/// @file
/// The host-side operands a GCN layer streams, derived from one
/// (A_hat, X) pair: HyMM's degree sort and sorted features, OP's
/// column-major features and adjacency, and the feature digests the
/// combination checkpoint key hashes. Each derivative is built on
/// first use and then read immutably, so one set can serve every run
/// on the same pair — every cell of a sweep (PreparedWorkload) — or
/// live only for one layer (LayerPlan, GcnModel).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "graph/csr.hpp"
#include "graph/degree_sort.hpp"

namespace hymm {

/// Lazily derived, thread-safe operand set for one (A_hat, X) pair.
/// Concurrent callers of an accessor block on its single build and
/// all receive the same object. The set references a_hat and x; both
/// must outlive it. Pinned in place: not copyable or movable.
class LayerOperands {
 public:
  /// References the pair; builds nothing yet.
  LayerOperands(const CsrMatrix& a_hat, const CsrMatrix& x);
  LayerOperands(const LayerOperands&) = delete;
  LayerOperands& operator=(const LayerOperands&) = delete;

  const CsrMatrix& a_hat() const { return *a_hat_; }  ///< n x n adjacency
  const CsrMatrix& features() const { return *x_; }   ///< n x f features

  /// HyMM's degree sort of a_hat (sorted adjacency and permutation).
  const DegreeSortResult& sort() const;
  /// The feature rows under sort().perm.
  const CsrMatrix& sorted_features() const;
  /// Host wall-clock of building sort() and sorted_features() (the
  /// degree sort, the symmetric permute and the feature permute):
  /// Table II's sorting cost, reported as `preprocess_ms`. The same
  /// value for every run that reads this set.
  double sort_cost_ms() const;

  /// OP's column-major operands.
  struct Csc {
    CscMatrix features;   ///< combination operand: features()
    CscMatrix adjacency;  ///< aggregation operand: a_hat()
  };
  /// OP's operands, owned by their holders rather than by the set: the
  /// first caller builds them, every caller while another still holds
  /// them gets that same pair, and the last holder frees it. A sweep's
  /// concurrent OP cells share one pair, yet a set kept for later
  /// sweeps holds none between its OP runs.
  std::shared_ptr<const Csc> csc() const;

  /// graph_fingerprint(features()).
  std::uint64_t features_digest() const;
  /// graph_fingerprint(sorted_features()).
  std::uint64_t sorted_features_digest() const;

 private:
  // One derivative: built once by the first caller of get().
  template <typename T>
  struct Lazy {
    std::once_flag once;
    T value{};

    template <typename Build>
    const T& get(Build&& build) {
      std::call_once(once, [&] { value = build(); });
      return value;
    }
  };

  struct Sorted {
    DegreeSortResult sort;
    CsrMatrix features;
    double cost_ms = 0.0;
  };

  const Sorted& sorted() const;

  const CsrMatrix* a_hat_;
  const CsrMatrix* x_;
  mutable Lazy<Sorted> sorted_;
  mutable std::mutex csc_mutex_;
  mutable std::weak_ptr<const Csc> csc_;
  mutable Lazy<std::uint64_t> x_digest_;
  mutable Lazy<std::uint64_t> sorted_x_digest_;
};

}  // namespace hymm
