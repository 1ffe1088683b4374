#include "graph/generator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "graph/guide_table.hpp"

namespace hymm {

namespace {

// Packs an undirected edge into a dedup key.
std::uint64_t edge_key(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

// Open-addressing set of edge keys: linear probing over a power-of-two
// table sized for at most `capacity` keys at load <= 1/2. ~0 marks an
// empty slot; no edge key packs to it (both ids are below 2^32 - 1).
class EdgeKeySet {
 public:
  explicit EdgeKeySet(std::size_t capacity) : capacity_(capacity) {
    std::size_t slots = 16;
    while (slots < 2 * capacity) slots <<= 1;
    slots_.assign(slots, kEmpty);
    shift_ = 64 - std::countr_zero(slots);
  }

  // True if `key` was not in the set yet.
  bool insert(std::uint64_t key) {
    const std::size_t mask = slots_.size() - 1;
    // Fibonacci hashing: the multiply's top bits pick the home slot.
    std::size_t i = (key * 0x9E3779B97F4A7C15ULL) >> shift_;
    while (slots_[i] != kEmpty) {
      if (slots_[i] == key) return false;
      i = (i + 1) & mask;
    }
    HYMM_CHECK_MSG(size_ < capacity_, "edge key set is full");
    slots_[i] = key;
    ++size_;
    return true;
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  std::vector<std::uint64_t> slots_;
  std::size_t capacity_;
  std::size_t size_ = 0;
  int shift_ = 0;
};

// Samples a node id with probability proportional to its weight.
NodeId sample_node(const GuideTable& weights, Rng& rng) {
  const double u = rng.next_double() * weights.total();
  return static_cast<NodeId>(weights.index_of(u));
}

std::vector<NodeId> random_permutation(NodeId n, Rng& rng) {
  std::vector<NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), NodeId{0});
  for (NodeId i = n; i > 1; --i) {
    const auto j = static_cast<NodeId>(rng.next_below(i));
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

// Builds the unit-weight CSR of distinct, loop-free pairs by counting
// sort: per-row degree count, prefix sum, scatter, then a column sort
// within each row. Distinct undirected keys stay distinct after the
// id shuffle and the mirroring, so no entry ever needs merging.
CsrMatrix build_from_pairs(NodeId nodes,
                           const std::vector<std::uint64_t>& pair_keys,
                           bool symmetric, bool shuffle_ids, Rng& rng) {
  std::vector<NodeId> perm;
  if (shuffle_ids) perm = random_permutation(nodes, rng);
  const auto endpoints = [&](std::uint64_t key) {
    auto a = static_cast<NodeId>(key >> 32);
    auto b = static_cast<NodeId>(key & 0xFFFFFFFFu);
    if (shuffle_ids) {
      a = perm[a];
      b = perm[b];
    }
    return std::pair{a, b};
  };

  std::vector<EdgeCount> row_ptr(static_cast<std::size_t>(nodes) + 1, 0);
  for (const std::uint64_t key : pair_keys) {
    const auto [a, b] = endpoints(key);
    ++row_ptr[a + 1];
    if (symmetric) ++row_ptr[b + 1];
  }
  std::partial_sum(row_ptr.begin(), row_ptr.end(), row_ptr.begin());

  std::vector<EdgeCount> cursor(row_ptr.begin(), row_ptr.end() - 1);
  std::vector<NodeId> col_idx(row_ptr.back());
  for (const std::uint64_t key : pair_keys) {
    const auto [a, b] = endpoints(key);
    col_idx[cursor[a]++] = b;
    if (symmetric) col_idx[cursor[b]++] = a;
  }
  for (NodeId r = 0; r < nodes; ++r) {
    std::sort(col_idx.begin() + static_cast<std::ptrdiff_t>(row_ptr[r]),
              col_idx.begin() + static_cast<std::ptrdiff_t>(row_ptr[r + 1]));
  }
  std::vector<Value> values(col_idx.size(), 1.0f);
  return CsrMatrix::from_parts(nodes, nodes, std::move(row_ptr),
                               std::move(col_idx), std::move(values));
}

}  // namespace

CsrMatrix generate_power_law_graph(const GraphSpec& spec) {
  HYMM_CHECK_MSG(spec.nodes >= 2, "need at least two nodes");
  HYMM_CHECK_MSG(spec.skew >= 0.0 && spec.skew < 2.0,
                 "skew must be in [0, 2); higher values starve the "
                 "pair sampler through dedup collisions");
  const EdgeCount max_pairs =
      static_cast<EdgeCount>(spec.nodes) * (spec.nodes - 1) / 2;
  const EdgeCount target_pairs =
      std::min(max_pairs, spec.symmetric ? (spec.edges + 1) / 2 : spec.edges);

  std::vector<double> cumulative(spec.nodes);
  double acc = 0.0;
  for (NodeId i = 0; i < spec.nodes; ++i) {
    acc += std::pow(static_cast<double>(i) + 1.0, -spec.skew);
    cumulative[i] = acc;
  }
  const GuideTable weights(std::move(cumulative));

  Rng rng(spec.seed);
  EdgeKeySet seen(target_pairs);
  std::vector<std::uint64_t> pairs;
  pairs.reserve(target_pairs);

  // Rejection-sample distinct non-loop pairs. The attempt budget keeps
  // the generator total even for adversarial specs; in practice the
  // paper's graphs are >99 % sparse and duplicates are rare.
  const EdgeCount max_attempts = 40 * target_pairs + 1000;
  EdgeCount attempts = 0;
  while (pairs.size() < target_pairs && attempts < max_attempts) {
    ++attempts;
    const NodeId a = sample_node(weights, rng);
    const NodeId b = sample_node(weights, rng);
    if (a == b) continue;
    const std::uint64_t key = edge_key(a, b);
    if (seen.insert(key)) pairs.push_back(key);
  }

  CsrMatrix adj =
      build_from_pairs(spec.nodes, pairs, spec.symmetric, spec.shuffle_ids,
                       rng);
  // If symmetric and the requested edge count is odd we may overshoot
  // by one; that is within the documented tolerance.
  return adj;
}

CsrMatrix generate_uniform_graph(NodeId nodes, EdgeCount edges,
                                 std::uint64_t seed, bool symmetric) {
  HYMM_CHECK_MSG(nodes >= 2, "need at least two nodes");
  const EdgeCount max_pairs =
      static_cast<EdgeCount>(nodes) * (nodes - 1) / 2;
  const EdgeCount target_pairs =
      std::min(max_pairs, symmetric ? (edges + 1) / 2 : edges);
  Rng rng(seed);
  EdgeKeySet seen(target_pairs);
  std::vector<std::uint64_t> pairs;
  pairs.reserve(target_pairs);
  const EdgeCount max_attempts = 40 * target_pairs + 1000;
  EdgeCount attempts = 0;
  while (pairs.size() < target_pairs && attempts < max_attempts) {
    ++attempts;
    const auto a = static_cast<NodeId>(rng.next_below(nodes));
    const auto b = static_cast<NodeId>(rng.next_below(nodes));
    if (a == b) continue;
    const std::uint64_t key = edge_key(a, b);
    if (seen.insert(key)) pairs.push_back(key);
  }
  return build_from_pairs(nodes, pairs, symmetric, /*shuffle_ids=*/false,
                          rng);
}

CsrMatrix generate_rmat_graph(const RmatSpec& spec) {
  HYMM_CHECK_MSG(spec.nodes >= 2, "need at least two nodes");
  const double sum = spec.a + spec.b + spec.c + spec.d;
  HYMM_CHECK_MSG(sum > 0.99 && sum < 1.01,
                 "R-MAT quadrant probabilities must sum to 1, got " << sum);
  int levels = 0;
  while ((NodeId{1} << levels) < spec.nodes) ++levels;

  const EdgeCount max_pairs =
      static_cast<EdgeCount>(spec.nodes) * (spec.nodes - 1) / 2;
  const EdgeCount target_pairs =
      std::min(max_pairs, spec.symmetric ? (spec.edges + 1) / 2 : spec.edges);

  Rng rng(spec.seed);
  EdgeKeySet seen(target_pairs);
  std::vector<std::uint64_t> pairs;
  pairs.reserve(target_pairs);

  const EdgeCount max_attempts = 40 * target_pairs + 1000;
  EdgeCount attempts = 0;
  while (pairs.size() < target_pairs && attempts < max_attempts) {
    ++attempts;
    NodeId u = 0, v = 0;
    for (int level = 0; level < levels; ++level) {
      const double p = rng.next_double();
      u <<= 1;
      v <<= 1;
      if (p < spec.a) {
        // top-left quadrant: both bits 0
      } else if (p < spec.a + spec.b) {
        v |= 1;
      } else if (p < spec.a + spec.b + spec.c) {
        u |= 1;
      } else {
        u |= 1;
        v |= 1;
      }
    }
    if (u == v || u >= spec.nodes || v >= spec.nodes) continue;
    const std::uint64_t key = edge_key(u, v);
    if (seen.insert(key)) pairs.push_back(key);
  }
  return build_from_pairs(spec.nodes, pairs, spec.symmetric,
                          spec.shuffle_ids, rng);
}

CsrMatrix generate_features(const FeatureSpec& spec) {
  HYMM_CHECK(spec.nodes > 0);
  HYMM_CHECK(spec.feature_length > 0);
  HYMM_CHECK_MSG(spec.density >= 0.0 && spec.density <= 1.0,
                 "density is a fraction");
  Rng rng(spec.seed);
  const double per_row =
      static_cast<double>(spec.feature_length) * spec.density;

  std::vector<EdgeCount> row_ptr(static_cast<std::size_t>(spec.nodes) + 1, 0);
  std::vector<NodeId> col_idx;
  std::vector<Value> values;
  col_idx.reserve(static_cast<std::size_t>(per_row * spec.nodes) + spec.nodes);
  values.reserve(col_idx.capacity());

  // Error-diffused per-row counts keep the total nnz within one of
  // round(nodes * feature_length * density).
  double carry = 0.0;
  // One bit per column, reused by every row: a row's scan clears the
  // words it reads, so the bitmap is all-zero again for the next row.
  std::vector<std::uint64_t> picked(
      (static_cast<std::size_t>(spec.feature_length) + 63) / 64, 0);
  for (NodeId r = 0; r < spec.nodes; ++r) {
    carry += per_row;
    auto k = static_cast<NodeId>(carry);
    carry -= static_cast<double>(k);
    k = std::min<NodeId>(k, spec.feature_length);

    // Floyd's algorithm: k distinct columns out of feature_length.
    for (NodeId j = spec.feature_length - k; j < spec.feature_length; ++j) {
      const auto t = static_cast<NodeId>(rng.next_below(j + 1));
      const bool taken = (picked[t / 64] >> (t % 64)) & 1u;
      const NodeId c = taken ? j : t;
      picked[c / 64] |= std::uint64_t{1} << (c % 64);
    }
    // Word-by-word scan yields the picked columns in ascending order.
    if (k > 0) {
      for (std::size_t w = 0; w < picked.size(); ++w) {
        for (std::uint64_t bits = picked[w]; bits != 0; bits &= bits - 1) {
          col_idx.push_back(static_cast<NodeId>(
              w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
          values.push_back(static_cast<Value>(rng.next_double(0.1, 1.0)));
        }
        picked[w] = 0;
      }
    }
    row_ptr[r + 1] = col_idx.size();
  }
  return CsrMatrix::from_parts(spec.nodes, spec.feature_length,
                               std::move(row_ptr), std::move(col_idx),
                               std::move(values));
}

double top_degree_edge_share(const CsrMatrix& adjacency, double fraction) {
  HYMM_CHECK(fraction >= 0.0 && fraction <= 1.0);
  if (adjacency.nnz() == 0) return 0.0;
  std::vector<EdgeCount> degrees(adjacency.rows());
  for (NodeId r = 0; r < adjacency.rows(); ++r) degrees[r] = adjacency.row_nnz(r);
  std::sort(degrees.begin(), degrees.end(), std::greater<>());
  const auto top =
      static_cast<std::size_t>(fraction * static_cast<double>(degrees.size()));
  EdgeCount sum = 0;
  for (std::size_t i = 0; i < top && i < degrees.size(); ++i) sum += degrees[i];
  return static_cast<double>(sum) / static_cast<double>(adjacency.nnz());
}

}  // namespace hymm
