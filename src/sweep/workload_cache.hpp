/// @file
/// Shared, immutable workload state for sweeps. Every (spec, scale,
/// seed) cell of a sweep needs the same synthetic workload, normalized
/// adjacency, weight matrix, golden reference and layer operands
/// (degree sort, OP's CSC operands, feature digests) — building them
/// once and sharing them read-only across worker threads is what makes
/// a dataset x dataflow x config grid cheap. See DESIGN.md "Sweep
/// executor".
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/layer_operands.hpp"
#include "graph/datasets.hpp"
#include "linalg/gcn.hpp"

namespace hymm {

/// One fully-built workload, immutable after construction (the lazy
/// operand set is internally synchronized). Always held by shared_ptr
/// so concurrent sweep cells can alias it safely.
class PreparedWorkload {
 public:
  /// Builds the synthetic workload for a registry spec.
  PreparedWorkload(const DatasetSpec& spec, double scale,
                   std::uint64_t seed);
  /// Wraps an externally-built workload (e.g. loaded from an edge
  /// list); computes a_hat, weights and the golden reference from it.
  PreparedWorkload(GcnWorkload workload, std::uint64_t seed);

  PreparedWorkload(const PreparedWorkload&) = delete;  ///< not copyable: alias via shared_ptr
  PreparedWorkload& operator=(const PreparedWorkload&) = delete;  ///< not copyable

  const GcnWorkload& workload() const { return workload_; }  ///< the input graph + features
  const CsrMatrix& a_hat() const { return a_hat_; }           ///< normalized adjacency
  const DenseMatrix& weights() const { return weights_; }     ///< seed-derived layer weights
  /// Golden pre-activation layer output (the verification reference).
  const DenseMatrix& reference() const { return golden_.aggregation; }
  const GcnLayerResult& golden() const { return golden_; }    ///< full golden layer result
  std::uint64_t seed() const { return seed_; }                ///< seed the build used

  /// The layer operands of (a_hat, features), each built on first use
  /// (a sweep pays only for what its flows stream) and thread-safe:
  /// concurrent callers block until the single build finishes. OP's
  /// CSC pair lives only while an OP cell holds it (LayerOperands::csc).
  const LayerOperands& operands() const { return operands_; }
  /// operands().sort(): the hybrid's degree sort.
  const DegreeSortResult& sort() const { return operands_.sort(); }

 private:
  GcnWorkload workload_;
  std::uint64_t seed_ = 0;
  CsrMatrix a_hat_;
  DenseMatrix weights_;
  GcnLayerResult golden_;
  LayerOperands operands_;
};

/// Thread-safe cache of PreparedWorkloads keyed on (spec, scale,
/// seed): concurrent get() calls for the same key block on one build
/// (never duplicate it) and share the result immutably.
class WorkloadCache {
 public:
  /// The workload for (spec, scale, seed), building it exactly once.
  std::shared_ptr<const PreparedWorkload> get(const DatasetSpec& spec,
                                              double scale,
                                              std::uint64_t seed);

  /// Number of workloads actually built (for tests: stays 1 per key no
  /// matter how many threads ask).
  std::size_t build_count() const { return builds_.load(); }

  /// The cache key get() files a workload under.
  static std::string key_of(const DatasetSpec& spec, double scale,
                            std::uint64_t seed);

 private:
  struct Entry {
    std::once_flag once;
    std::shared_ptr<const PreparedWorkload> value;
  };

  std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> entries_;
  std::atomic<std::size_t> builds_{0};
};

}  // namespace hymm
