/// @file
/// Top-level accelerator model: sequences the combination and
/// aggregation phases of one GCN layer on the shared memory system,
/// dispatching to the RWP / OP / hybrid engines per Table I:
///
///   architecture | combination | aggregation       | graph prep
///   RWP (GROW)   | RWP         | RWP               | none
///   OP (GCNAX)   | OP          | OP                | none
///   HyMM         | RWP         | OP (R1) + RWP     | degree sorting
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/config.hpp"
#include "core/engine.hpp"
#include "core/hybrid_engine.hpp"
#include "core/layer_operands.hpp"
#include "graph/csr.hpp"
#include "graph/partition.hpp"
#include "linalg/dense.hpp"

namespace hymm {

/// Identifies one combination-phase warm state: `workload` digests the
/// streamed inputs and engine kind, `config` the timing model (see
/// combination_checkpoint_key).
struct CheckpointKey {
  std::uint64_t workload = 0;
  std::uint64_t config = 0;

  friend bool operator==(const CheckpointKey&, const CheckpointKey&) = default;
};

/// "0x<workload>_0x<config>" — used in run reports.
std::string checkpoint_key_hex(const CheckpointKey& key);

/// The combination phase's warm state: the memory system at the
/// phase boundary (unified buffer, LSQ forwarding window, DRAM
/// channel, clock and counters) plus the host-side XW values the
/// phase produced. Shared read-only between the run that built it and
/// the runs that restore it.
struct WarmState {
  MemorySystem ms;
  DenseMatrix xw;
  CheckpointKey key;
};
using WarmStatePtr = std::shared_ptr<const WarmState>;

/// How the combination phase of one run was shared with other runs of
/// its sweep. All-false when the run shared nothing (no
/// CombinationShare, or an observer attached).
struct LayerCheckpointInfo {
  bool enabled = false;   ///< the run took part in a shared combination
  bool restored = false;  ///< combination state restored from a snapshot
  bool built = false;     ///< this run simulated and published the phase
  std::string key;        ///< checkpoint_key_hex, empty when disabled
};

/// Combination-phase sharing between runs, planned by the sweep
/// executor (sweep/sweep.hpp): the first run of a shared combination
/// publishes its phase-boundary state, the others restore it. At most
/// one member is set; both are ignored when an observer is attached,
/// because a restored phase would drop its trace events and counter
/// samples.
struct CombinationShare {
  /// Leader: receives a copy of the warm state right after the run's
  /// own combination phase, before aggregation starts.
  std::function<void(WarmStatePtr)> publish;
  /// Follower: the leader's warm state, restored instead of simulating
  /// the phase. Its key must equal the follower's own (a mismatch is a
  /// sweep-planning bug and throws CheckError).
  WarmStatePtr restore;
};

/// Outcome of one simulated GCN layer (`Accelerator::run_layer`).
struct LayerRunResult {
  Dataflow flow = Dataflow::kRowWiseProduct;  ///< dataflow that ran

  /// Functional combination output XW in the ORIGINAL node order
  /// (HyMM's internal degree-sorted order is un-permuted before
  /// returning).
  DenseMatrix combination;
  /// A_hat * XW, pre-activation, original order.
  DenseMatrix output;

  SimStats stats;              ///< whole-layer counters
  SimStats combination_stats;  ///< combination-phase deltas
  SimStats aggregation_stats;  ///< aggregation-phase deltas

  /// Hybrid-only region split (zeroed otherwise).
  RegionPartition partition;
  /// Hybrid-only per-phase/per-region breakdown (zeroed otherwise).
  HybridAggregationInfo hybrid_info;
  /// Hybrid-only: the operand set's sort_cost_ms (Table II's sorting
  /// cost), whether the set was shared or built for this layer.
  double preprocess_ms = 0.0;

  /// Warm-state checkpoint interaction of this run.
  LayerCheckpointInfo checkpoint;
};

/// Everything one layer run needs. The required inputs are a_hat
/// (n x n sparse), x (n x f sparse) and w (f x d dense; d > 16 spans
/// multiple lines per row). `observer` (optional) collects metrics and
/// trace events for the run; it never affects timing — cycle counts
/// are identical with or without an observer attached.
///
/// `operands` optionally supplies a shared LayerOperands set built on
/// this same a_hat and x (the WorkloadCache shares one across every
/// cell of a sweep): the layer then reads its degree sort, OP's CSC
/// operands and the checkpoint key's feature digest from it, building
/// whatever is still missing there. When absent, the layer builds a
/// set of its own that lives only for the call. Simulated cycles are
/// identical either way — the set holds host-side derivatives only.
struct LayerRunRequest {
  Dataflow flow = Dataflow::kRowWiseProduct;  ///< dataflow to simulate
  const CsrMatrix* a_hat = nullptr;           ///< required: adjacency
  const CsrMatrix* x = nullptr;               ///< required: features
  const DenseMatrix* w = nullptr;             ///< required: weights
  Observer* observer = nullptr;  ///< optional; never affects timing
  const LayerOperands* operands = nullptr;  ///< optional shared set

  /// Optional combination-phase sharing; see CombinationShare.
  CombinationShare share;
};

/// Key identifying the combination phase's warm state: the streamed
/// feature matrix (structure + values), the dense weights, the engine
/// kind the dataflow runs combination with, and the timing-model hash.
/// `x_used` must be the matrix actually streamed (the degree-sorted
/// features for hybrid runs). The tiling threshold is excluded via
/// tuning_config_hash: it only splits the aggregation phase.
CheckpointKey combination_checkpoint_key(const CsrMatrix& x_used,
                                         const DenseMatrix& w,
                                         const AcceleratorConfig& config,
                                         Dataflow flow);

/// The same key from an operand set, hashing its cached digest of the
/// features `flow` streams (the sorted ones for the hybrid) instead
/// of the matrix.
CheckpointKey combination_checkpoint_key(const LayerOperands& operands,
                                         const DenseMatrix& w,
                                         const AcceleratorConfig& config,
                                         Dataflow flow);

/// One accelerator instance: a config plus the layer sequencing logic.
class Accelerator {
 public:
  /// Captures the hardware parameters every layer run uses.
  explicit Accelerator(const AcceleratorConfig& config);

  /// The hardware parameters this instance was built with.
  const AcceleratorConfig& config() const { return config_; }

  /// Simulates one GCN layer H = a_hat * x * w (no activation).
  LayerRunResult run_layer(const LayerRunRequest& request) const;

  /// Convenience overload for callers without a shared operand set
  /// (equivalent to filling a LayerRunRequest).
  LayerRunResult run_layer(Dataflow flow, const CsrMatrix& a_hat,
                           const CsrMatrix& x, const DenseMatrix& w,
                           Observer* obs = nullptr) const;

 private:
  AcceleratorConfig config_;
};

}  // namespace hymm
