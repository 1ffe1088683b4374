/// @file
/// Per-class serving cost library: each request class's multi-layer
/// inference is simulated exactly once (cycle-accurate, verified
/// against the golden model), and the scheduler's batching /
/// inter-layer buffer-reuse savings are derived analytically from the
/// measured per-layer DRAM traffic and memory-stall budgets. All
/// savings arithmetic is integer and conservation-checked: saved
/// traffic never exceeds the traffic the standalone run actually
/// paid, and saved cycles never exceed the phase's memory-stall
/// cycles (you cannot save compute by skipping a fetch).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "linalg/dense.hpp"
#include "serve/request.hpp"

namespace hymm {

/// One layer's serving-relevant costs, distilled from the exact
/// simulation of the class's standalone inference.
struct LayerCost {
  Cycle cycles = 0;            ///< standalone layer cycles
  Cycle comb_mem_stall = 0;    ///< combination-phase memory-group stalls
  Cycle agg_mem_stall = 0;     ///< aggregation-phase memory-group stalls
  std::uint64_t weight_read_bytes = 0;  ///< DRAM reads of W (whole layer)
  std::uint64_t xw_write_bytes = 0;     ///< combination's XW writebacks
  std::uint64_t xw_read_bytes = 0;      ///< aggregation's XW re-reads
  std::uint64_t xw_footprint_bytes = 0; ///< line-rounded XW size (n x d)
};

/// One class's standalone cost: the exact per-layer simulation totals
/// the savings model subtracts from.
struct ClassCost {
  std::string name;            ///< RequestClass::name
  double weight = 1.0;         ///< class-mix probability weight
  NodeId nodes = 0;            ///< (sub)graph node count
  std::vector<LayerCost> layers;        ///< per-layer breakdown
  Cycle standalone_cycles = 0;          ///< sum of layer cycles
  std::uint64_t standalone_dram_bytes = 0;  ///< sum of layer DRAM bytes
  double preprocess_ms = 0.0;  ///< host-side preprocessing (hybrid sort)
  bool verified = false;       ///< output matched GcnModel::reference
  double max_abs_err = 0.0;    ///< worst element error vs. the reference
};

/// Simulates every class's full multi-layer inference exactly (one
/// GcnModel per class, all sharing `weights`) and distills LayerCost
/// /ClassCost. Classes simulate concurrently on `threads` workers
/// (sweep parallel_for; 0 = auto) — each class writes only its own
/// indexed slot, so results are bit-identical at any thread count.
/// Hybrid runs hand the model a precomputed degree sort through the
/// InferenceRequest passthrough (sorted once per class, not per
/// layer).
std::vector<ClassCost> simulate_class_costs(
    const std::vector<RequestClass>& classes,
    const std::vector<DenseMatrix>& weights, Dataflow flow,
    const AcceleratorConfig& config, unsigned threads);

/// Cycle/traffic savings one batch member gets relative to its
/// class's standalone run. Bytes split by mechanism so the report's
/// conservation identity (standalone == charged + reuse + batch) is
/// checkable per request.
struct RequestSavings {
  Cycle saved_cycles = 0;              ///< total service-cycle reduction
  std::uint64_t reuse_saved_bytes = 0; ///< XW writeback+re-read avoided
  std::uint64_t batch_saved_bytes = 0; ///< weight re-fetch avoided
};

/// Savings for the batch member at `position` (0 = the leader, which
/// pays the full weight fetch; followers share it). Inter-layer
/// buffer reuse applies to every member of every batch when the
/// layer's XW footprint fits the DMB slice the scheduler may pin
/// (config.dmb_pin_fraction * dmb_bytes): the combination's XW
/// writeback and the aggregation's XW re-read are served on chip
/// instead of through DRAM. Saved cycles are bounded per phase by the
/// measured memory-stall budget, and the weight-fetch saving draws
/// from whatever combination-stall budget reuse left over — the
/// mechanisms never double-count a stall cycle. DCHECKs enforce
/// saved_cycles <= standalone_cycles and saved bytes <= the matching
/// standalone traffic.
RequestSavings batch_member_savings(const ClassCost& cost,
                                    std::size_t position, bool buffer_reuse,
                                    const AcceleratorConfig& config);

}  // namespace hymm
