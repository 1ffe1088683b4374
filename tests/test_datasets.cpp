// Tests for the dataset registry (Table II) and the synthetic
// workload builder.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "graph/datasets.hpp"
#include "graph/fingerprint.hpp"
#include "graph/generator.hpp"
#include "linalg/gcn.hpp"
#include "sweep/workload_cache.hpp"

namespace hymm {
namespace {

TEST(Datasets, RegistryMatchesTableII) {
  const auto& all = paper_datasets();
  ASSERT_EQ(all.size(), 7u);
  EXPECT_EQ(all[0].abbrev, "CR");
  EXPECT_EQ(all[0].nodes, 2708u);
  EXPECT_EQ(all[0].edges, 10556u);
  EXPECT_EQ(all[0].feature_length, 1433u);
  EXPECT_EQ(all[1].abbrev, "AP");
  EXPECT_EQ(all[1].edges, 238162u);
  EXPECT_EQ(all[6].abbrev, "YP");
  EXPECT_EQ(all[6].nodes, 716847u);
  for (const DatasetSpec& spec : all) {
    EXPECT_EQ(spec.layer_dim, 16u);
    EXPECT_GT(spec.feature_sparsity, 0.0);
    EXPECT_LT(spec.feature_sparsity, 1.0);
  }
}

TEST(Datasets, AdjacencySparsityMatchesPaper) {
  // Table II lists e.g. 99.86% for Cora and 99.59% for Amazon-Photo.
  const DatasetSpec cora = *find_dataset("CR");
  EXPECT_NEAR(cora.adjacency_sparsity(), 0.9986, 0.0002);
  const DatasetSpec ap = *find_dataset("Amazon-Photo");
  EXPECT_NEAR(ap.adjacency_sparsity(), 0.9959, 0.0002);
}

TEST(Datasets, FindByNameOrAbbrev) {
  EXPECT_TRUE(find_dataset("Yelp").has_value());
  EXPECT_TRUE(find_dataset("YP").has_value());
  EXPECT_FALSE(find_dataset("nope").has_value());
}

TEST(Datasets, ScalePreservesAverageDegree) {
  const DatasetSpec ap = *find_dataset("AP");
  const DatasetSpec half = scale_dataset(ap, 0.5);
  const double full_degree =
      static_cast<double>(ap.edges) / ap.nodes;
  const double half_degree =
      static_cast<double>(half.edges) / half.nodes;
  EXPECT_NEAR(half_degree, full_degree, full_degree * 0.01);
  EXPECT_EQ(half.feature_length, ap.feature_length);
  EXPECT_EQ(scale_dataset(ap, 1.0).nodes, ap.nodes);
  EXPECT_THROW(scale_dataset(ap, 0.0), CheckError);
  EXPECT_THROW(scale_dataset(ap, 1.5), CheckError);
}

TEST(Datasets, DefaultScaleShrinksOnlyLargeGraphs) {
  unsetenv("HYMM_FULL_DATASETS");
  for (const DatasetSpec& spec : paper_datasets()) {
    const double scale = default_scale(spec);
    if (spec.abbrev == "FR" || spec.abbrev == "YP") {
      EXPECT_LT(scale, 1.0) << spec.abbrev;
    } else {
      EXPECT_EQ(scale, 1.0) << spec.abbrev;
    }
  }
  setenv("HYMM_FULL_DATASETS", "1", 1);
  EXPECT_EQ(default_scale(*find_dataset("YP")), 1.0);
  unsetenv("HYMM_FULL_DATASETS");
}

TEST(Workload, MatchesScaledSpecStatistics) {
  const DatasetSpec cora = *find_dataset("CR");
  const GcnWorkload w = build_workload(cora, 0.25, 3);
  EXPECT_EQ(w.adjacency.rows(), w.spec.nodes);
  EXPECT_EQ(w.features.rows(), w.spec.nodes);
  EXPECT_EQ(w.features.cols(), cora.feature_length);
  // Edge count within generator tolerance.
  const double edge_ratio = static_cast<double>(w.adjacency.nnz()) /
                            static_cast<double>(w.spec.edges);
  EXPECT_GT(edge_ratio, 0.9);
  EXPECT_LE(edge_ratio, 1.1);
  // Feature density matches the Table II sparsity.
  const double density =
      static_cast<double>(w.features.nnz()) /
      (static_cast<double>(w.spec.nodes) * w.spec.feature_length);
  EXPECT_NEAR(density, cora.feature_density(), 0.002);
}

TEST(Workload, DeterministicPerSeed) {
  const DatasetSpec cora = *find_dataset("CR");
  const GcnWorkload a = build_workload(cora, 0.1, 5);
  const GcnWorkload b = build_workload(cora, 0.1, 5);
  EXPECT_EQ(a.adjacency, b.adjacency);
  EXPECT_EQ(a.features, b.features);
  const GcnWorkload c = build_workload(cora, 0.1, 6);
  EXPECT_NE(a.adjacency, c.adjacency);
}

TEST(Workload, PowerLawShapeHolds) {
  // Every synthetic dataset must reproduce the Fig 2 observation at
  // its native size (pair deduplication flattens heavily scaled-down
  // dense graphs, so this is checked at scale 1).
  const DatasetSpec ap = *find_dataset("AP");
  const GcnWorkload w = build_workload(ap, 1.0, 7);
  EXPECT_GT(top_degree_edge_share(w.adjacency, 0.20), 0.70);
}

// Content pins for every Table II workload at its default scale: the
// fingerprints (dimensions, row_ptr, col_idx and value bits) of the
// adjacency, the features and the normalized A_hat. Every simulated
// result is a function of these matrices, so a set-up change that
// alters one byte of them fails here, by name, instead of showing up
// later as an unexplained cycle drift in BaselinePin.
struct WorkloadPin {
  const char* abbrev;
  std::uint64_t seed;
  std::uint64_t adjacency;
  std::uint64_t features;
  std::uint64_t a_hat;
};

constexpr WorkloadPin kWorkloadPins[] = {
    {"CR", 42, 0x76f669738cd9d5faULL, 0xa98cc6f0786b9257ULL,
     0xa9567bd3376be042ULL},
    {"CR", 1234, 0x99c01274b21dfea2ULL, 0x14639424705e8eefULL,
     0xd769b0e817665319ULL},
    {"AP", 42, 0x2b287a59526d09fdULL, 0xa085722c46ae41a7ULL,
     0x65cd3185ebc83ae5ULL},
    {"AP", 1234, 0x31e69757dcb4ef1dULL, 0xbce819c7056c7b5fULL,
     0x321a7c64d77986c0ULL},
    {"AC", 42, 0x6d4d3f384c34616cULL, 0x4ed524348f69a294ULL,
     0x321bf104c599df62ULL},
    {"AC", 1234, 0x512a50c38a61e080ULL, 0xb7e9b51f1f909240ULL,
     0x723bbea1663d3c69ULL},
    {"CS", 42, 0x11bad049665134aaULL, 0xb30efbed5c0afce7ULL,
     0x9debf3de1c0985d8ULL},
    {"CS", 1234, 0xb083b400fc11f3f8ULL, 0x3da3f2946c0fddacULL,
     0x6f4fcc71519e88cbULL},
    {"PH", 42, 0x760bd2fa1b9993a5ULL, 0x0842b37161cf4bd3ULL,
     0xe81c3f83d025f784ULL},
    {"PH", 1234, 0x6c81b37b78365098ULL, 0x1ae199ddf4684446ULL,
     0x78c81545dee59addULL},
    {"FR", 42, 0x20757be8fac4cf1cULL, 0x47c437ad0a6cab07ULL,
     0xc7c50524c22a2f13ULL},
    {"FR", 1234, 0x473deda291136ad4ULL, 0x1cfc246cc4a65489ULL,
     0x4dec9167f9b7eb8eULL},
    {"YP", 42, 0xefdd903a7910631cULL, 0x0d4389f8154061c4ULL,
     0x996147a992a32d84ULL},
    {"YP", 1234, 0x2322782468fa37ecULL, 0x0ac4c52416cf88b8ULL,
     0x5631ebd3ab0e8645ULL},
};

// Without a printer GoogleTest names each case after the raw bytes of
// its parameter, and `abbrev` is a pointer whose bytes change with
// every address-space layout; this keeps the printed case names fixed.
void PrintTo(const WorkloadPin& pin, std::ostream* os) {
  *os << pin.abbrev << " seed " << pin.seed;
}

class WorkloadContent : public ::testing::TestWithParam<WorkloadPin> {};

TEST_P(WorkloadContent, MatchesPinnedFingerprints) {
  unsetenv("HYMM_FULL_DATASETS");
  const WorkloadPin& pin = GetParam();
  const DatasetSpec spec = *find_dataset(pin.abbrev);
  const GcnWorkload w = build_workload(spec, default_scale(spec), pin.seed);
  EXPECT_EQ(fingerprint_hex(graph_fingerprint(w.adjacency)),
            fingerprint_hex(pin.adjacency))
      << "adjacency";
  EXPECT_EQ(fingerprint_hex(graph_fingerprint(w.features)),
            fingerprint_hex(pin.features))
      << "features";
  const CsrMatrix a_hat = normalize_adjacency(w.adjacency);
  EXPECT_EQ(fingerprint_hex(graph_fingerprint(a_hat)),
            fingerprint_hex(pin.a_hat))
      << "a_hat";
}

INSTANTIATE_TEST_SUITE_P(
    TableII, WorkloadContent, ::testing::ValuesIn(kWorkloadPins),
    [](const auto& info) {
      return std::string(info.param.abbrev) + "_seed" +
             std::to_string(info.param.seed);
    });

// --- Fingerprints ---

std::shared_ptr<const PreparedWorkload> cora_workload(double scale) {
  const DatasetSpec spec = *find_dataset("CR");
  return std::make_shared<PreparedWorkload>(spec, scale, 42);
}

TEST(Fingerprint, StableAndContentSensitive) {
  const auto w = cora_workload(0.25);
  const std::uint64_t fp1 = graph_fingerprint(w->a_hat());
  const std::uint64_t fp2 = graph_fingerprint(w->a_hat());
  EXPECT_EQ(fp1, fp2);

  // Any value change moves the fingerprint.
  CsrMatrix perturbed = w->a_hat();
  std::vector<Value> values = perturbed.values();
  values.front() += 1.0f;
  perturbed = CsrMatrix::from_parts(perturbed.rows(), perturbed.cols(),
                                    perturbed.row_ptr(), perturbed.col_idx(),
                                    std::move(values));
  EXPECT_NE(fp1, graph_fingerprint(perturbed));

  // Another seed draws other features.
  const std::uint64_t features = graph_fingerprint(w->workload().features);
  EXPECT_EQ(features, graph_fingerprint(w->workload().features));
  const auto other_seed = std::make_shared<PreparedWorkload>(
      *find_dataset("CR"), 0.25, 43);
  EXPECT_NE(features, graph_fingerprint(other_seed->workload().features));
}

TEST(Fingerprint, ConfigHashIgnoresThresholdAndObservability) {
  AcceleratorConfig base;
  const std::uint64_t h = tuning_config_hash(base);

  AcceleratorConfig threshold = base;
  threshold.tiling_threshold = 0.37;
  EXPECT_EQ(h, tuning_config_hash(threshold));

  AcceleratorConfig observed = base;
  observed.obs_sample_interval = 1;
  EXPECT_EQ(h, tuning_config_hash(observed));

  AcceleratorConfig resized = base;
  resized.dmb_bytes *= 2;
  EXPECT_NE(h, tuning_config_hash(resized));

  AcceleratorConfig repinned = base;
  repinned.dmb_pin_fraction = 0.5;
  EXPECT_NE(h, tuning_config_hash(repinned));
}

TEST(Fingerprint, HexRoundTrip) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{0xdeadbeefcafef00dULL},
        ~std::uint64_t{0}}) {
    const std::string hex = fingerprint_hex(v);
    ASSERT_EQ(hex.size(), 18u);
    EXPECT_EQ(hex.substr(0, 2), "0x");
    EXPECT_EQ(hex.find_first_not_of("0123456789abcdef", 2), std::string::npos)
        << hex;
    EXPECT_EQ(std::strtoull(hex.c_str(), nullptr, 16), v);
  }
}

}  // namespace
}  // namespace hymm
