#include "core/accelerator.hpp"

#include <bit>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/stage.hpp"
#include "graph/fingerprint.hpp"
#include "obs/hooks.hpp"

namespace hymm {

std::string checkpoint_key_hex(const CheckpointKey& key) {
  char buf[2 * 18 + 2];
  std::snprintf(buf, sizeof(buf), "0x%016llx_0x%016llx",
                static_cast<unsigned long long>(key.workload),
                static_cast<unsigned long long>(key.config));
  return buf;
}

namespace {

// Combines the streamed features' digest with the weights, the
// combination engine kind and the timing model.
CheckpointKey checkpoint_key_of(std::uint64_t features_digest,
                                const DenseMatrix& w,
                                const AcceleratorConfig& config,
                                Dataflow flow) {
  std::uint64_t w_digest = fingerprint_combine(
      static_cast<std::uint64_t>(w.rows()),
      static_cast<std::uint64_t>(w.cols()));
  for (NodeId r = 0; r < w.rows(); ++r) {
    for (NodeId c = 0; c < w.cols(); ++c) {
      w_digest = fingerprint_combine(
          w_digest, std::bit_cast<std::uint32_t>(w.at(r, c)));
    }
  }
  std::uint64_t workload = fingerprint_combine(features_digest, w_digest);
  // Only the engine kind matters for the combination phase: RWP and
  // hybrid share the RWP combination engine.
  const bool op_combination = flow == Dataflow::kOuterProduct;
  workload = fingerprint_combine(workload,
                                 static_cast<std::uint64_t>(op_combination));
  return CheckpointKey{workload, tuning_config_hash(config)};
}

}  // namespace

CheckpointKey combination_checkpoint_key(const CsrMatrix& x_used,
                                         const DenseMatrix& w,
                                         const AcceleratorConfig& config,
                                         Dataflow flow) {
  return checkpoint_key_of(graph_fingerprint(x_used), w, config, flow);
}

CheckpointKey combination_checkpoint_key(const LayerOperands& operands,
                                         const DenseMatrix& w,
                                         const AcceleratorConfig& config,
                                         Dataflow flow) {
  const std::uint64_t digest = flow == Dataflow::kHybrid
                                   ? operands.sorted_features_digest()
                                   : operands.features_digest();
  return checkpoint_key_of(digest, w, config, flow);
}

Accelerator::Accelerator(const AcceleratorConfig& config) : config_(config) {
  config_.validate();
}

LayerRunResult Accelerator::run_layer(Dataflow flow, const CsrMatrix& a_hat,
                                      const CsrMatrix& x,
                                      const DenseMatrix& w,
                                      Observer* obs) const {
  LayerRunRequest request;
  request.flow = flow;
  request.a_hat = &a_hat;
  request.x = &x;
  request.w = &w;
  request.observer = obs;
  return run_layer(request);
}

namespace {

// Everything one layer streams: its operand set (the request's shared
// one, or one of its own) and, for OP, a hold on the set's column-major
// pair; HyMM's region tiling of the degree-sorted adjacency; the
// W/XW/AXW/spill address layout on `ms`; and the Table I stages over
// those operands — combination, then one aggregation stage (RWP, OP)
// or HyMM's region-split aggregation inputs (run_hybrid_aggregation
// streams its region-1 OP and region-2/3 RWP stages). Stage parameters
// point into the plan and its operands, so the plan never moves.
struct LayerPlan {
  LayerPlan(const AcceleratorConfig& config, const LayerRunRequest& request,
            MemorySystem& ms);
  LayerPlan(const LayerPlan&) = delete;
  LayerPlan& operator=(const LayerPlan&) = delete;

  std::optional<LayerOperands> own_operands;  // when the request has none
  const LayerOperands& operands;  // the set every stage reads
  TiledAdjacency tiled;           // hybrid only
  std::shared_ptr<const LayerOperands::Csc> csc;  // OP only

  DenseMatrix xw;
  DenseMatrix axw;
  HybridAggregationParams hybrid;  // hybrid aggregation inputs

  LayerStage combination;
  LayerStage aggregation;  // RWP and OP only
};

LayerPlan::LayerPlan(const AcceleratorConfig& config,
                     const LayerRunRequest& request, MemorySystem& ms)
    : operands(request.operands != nullptr
                   ? *request.operands
                   : own_operands.emplace(*request.a_hat, *request.x)) {
  HYMM_CHECK_MSG(&operands.a_hat() == request.a_hat &&
                     &operands.features() == request.x,
                 "LayerRunRequest.operands built on other matrices");
  const Dataflow flow = request.flow;
  const CsrMatrix& a_hat = *request.a_hat;
  const CsrMatrix& x = *request.x;
  const DenseMatrix& w = *request.w;
  const NodeId n = a_hat.rows();
  // 64-byte lines per dense row; 1 for the paper's layer dimension 16.
  const std::size_t chunks =
      (static_cast<std::size_t>(w.cols()) + kLaneCount - 1) / kLaneCount;

  // --- HyMM preprocessing: degree sorting + tiling ---
  // The hybrid streams the degree-sorted operands; the tiling depends
  // on this config, so it is the layer's own.
  const bool sorted = flow == Dataflow::kHybrid;
  const CsrMatrix& a_used = sorted ? operands.sort().sorted : a_hat;
  const CsrMatrix& x_used = sorted ? operands.sorted_features() : x;
  if (sorted) {
    tiled = TiledAdjacency::build(
        a_used, partition_regions(a_used, config, chunks));
  }

  // --- Address space ---
  const AddressRegion w_region = ms.address_map().allocate(
      "W", static_cast<std::size_t>(w.rows()) * chunks * kLineBytes,
      TrafficClass::kWeights);
  const AddressRegion xw_region = ms.address_map().allocate(
      "XW", static_cast<std::size_t>(n) * chunks * kLineBytes,
      TrafficClass::kCombined);
  const AddressRegion axw_region = ms.address_map().allocate(
      "AXW", static_cast<std::size_t>(n) * chunks * kLineBytes,
      TrafficClass::kOutput);
  const AddressRegion spill_region = ms.address_map().allocate(
      "partial-spill",
      static_cast<std::size_t>((x.nnz() + a_hat.nnz() + 1024) * 128 *
                               chunks),
      TrafficClass::kPartial);
  xw = DenseMatrix::zeros(n, w.cols());
  axw = DenseMatrix::zeros(n, w.cols());

  // --- Combination stage: XW = X * W ---
  if (flow == Dataflow::kOuterProduct) {
    // OP architecture streams X column-wise.
    csc = operands.csc();
    OpEngineParams op;
    op.sparse = &csc->features;
    op.sparse_class = TrafficClass::kFeatures;
    op.b = &w;
    op.b_region = w_region;
    op.b_class = TrafficClass::kWeights;
    op.c = &xw;
    op.c_region = xw_region;
    op.c_final_class = TrafficClass::kCombined;
    op.spill_region = spill_region;
    op.accumulate_in_buffer = config.op_baseline_accumulator;
    op.window = config.engine_window;
    combination.params = op;
  } else {
    RwpEngineParams rwp;
    rwp.sparse = &x_used;
    rwp.sparse_class = TrafficClass::kFeatures;
    rwp.b = &w;
    rwp.b_region = w_region;
    rwp.b_class = TrafficClass::kWeights;
    rwp.c = &xw;
    rwp.c_region = xw_region;
    rwp.c_class = TrafficClass::kCombined;
    rwp.c_store_kind = StoreKind::kAllocate;
    rwp.window = config.engine_window;
    combination.params = rwp;
  }

  // --- Aggregation stage(s): AXW = A_hat * XW ---
  switch (flow) {
    case Dataflow::kRowWiseProduct: {
      RwpEngineParams rwp;
      rwp.sparse = &a_used;
      rwp.sparse_class = TrafficClass::kAdjacency;
      rwp.b = &xw;
      rwp.b_region = xw_region;
      rwp.b_class = TrafficClass::kCombined;
      rwp.c = &axw;
      rwp.c_region = axw_region;
      rwp.c_class = TrafficClass::kOutput;
      rwp.c_store_kind = StoreKind::kThrough;
      rwp.window = config.engine_window;
      // Pure RWP aggregation: every tile is an RWP tile.
      rwp.spatial_in_grid = true;
      rwp.spatial_region2 = SpatialRegion::kRwp;
      rwp.spatial_region3 = SpatialRegion::kRwp;
      aggregation.params = rwp;
      break;
    }
    case Dataflow::kOuterProduct: {
      OpEngineParams op;
      op.sparse = &csc->adjacency;
      op.sparse_class = TrafficClass::kAdjacency;
      op.b = &xw;
      op.b_region = xw_region;
      op.b_class = TrafficClass::kCombined;
      op.c = &axw;
      op.c_region = axw_region;
      op.c_final_class = TrafficClass::kOutput;
      op.spill_region = spill_region;
      op.accumulate_in_buffer = config.op_baseline_accumulator;
      op.window = config.engine_window;
      // Pure OP aggregation: every tile is an OP tile.
      op.spatial_in_grid = true;
      op.spatial_region = SpatialRegion::kOp;
      aggregation.params = op;
      break;
    }
    case Dataflow::kHybrid: {
      hybrid.tiled = &tiled;
      hybrid.b = &xw;
      hybrid.b_region = xw_region;
      hybrid.b_class = TrafficClass::kCombined;
      hybrid.c = &axw;
      hybrid.c_region = axw_region;
      hybrid.spill_region = spill_region;
      break;
    }
  }
}

}  // namespace

LayerRunResult Accelerator::run_layer(const LayerRunRequest& request) const {
  HYMM_CHECK(request.a_hat != nullptr && request.x != nullptr &&
             request.w != nullptr);
  const Dataflow flow = request.flow;
  const CsrMatrix& a_hat = *request.a_hat;
  const DenseMatrix& w = *request.w;
  HYMM_CHECK(a_hat.rows() == a_hat.cols());
  HYMM_CHECK(a_hat.cols() == request.x->rows());
  HYMM_CHECK(request.x->cols() == w.rows());
  const NodeId n = a_hat.rows();
  Observer* obs = request.observer;
  LayerRunResult result;
  result.flow = flow;

  MemorySystem ms(config_);
  if (obs != nullptr) ms.attach_observer(obs);
  // The layer's clock starts at 0, and the spatial heatmap grid spans
  // the adjacency this layer streams — the degree-sorted order for
  // hybrid runs (tile coordinates then live in sorted space;
  // docs/schemas.md documents the caveat).
  HYMM_OBS(obs, begin_layer(n, config_.pe_count));
  LayerPlan plan(config_, request, ms);
  const bool hybrid = flow == Dataflow::kHybrid;
  if (hybrid) {
    result.partition = plan.tiled.partition();
    result.preprocess_ms = plan.operands.sort_cost_ms();
  }

  // --- Combination phase: XW = X * W ---
  // Observer runs never share: a restored combination would skip the
  // phase's trace events and counter samples.
  const CombinationShare& share = request.share;
  const bool sharing =
      obs == nullptr && (share.publish || share.restore != nullptr);
  CheckpointKey key;
  bool restored = false;
  if (sharing && share.restore != nullptr) {
    key = combination_checkpoint_key(plan.operands, w, config_, flow);
    HYMM_CHECK_MSG(share.restore->key == key,
                   "warm state " << checkpoint_key_hex(share.restore->key)
                                 << " restored into run "
                                 << checkpoint_key_hex(key));
    ms = share.restore->ms;
    plan.xw = share.restore->xw;
    restored = true;
  }
  if (!restored) run_stage(ms, plan.combination);
  if (sharing && share.publish) {
    // A leader keys its state only after its own combination phase:
    // of two leaders on one operand set, the first to get here
    // computes the shared feature digest and the later one reads it,
    // instead of one blocking on the other before either starts.
    key = combination_checkpoint_key(plan.operands, w, config_, flow);
    share.publish(
        std::make_shared<const WarmState>(WarmState{ms, plan.xw, key}));
    result.checkpoint.built = true;
  }
  if (sharing) {
    result.checkpoint.enabled = true;
    result.checkpoint.restored = restored;
    result.checkpoint.key = checkpoint_key_hex(key);
  }
  result.combination_stats = ms.stats();
  result.combination_stats.cycles = ms.now();
  HYMM_OBS(obs, phase_span("combination", 0, ms.now()));
  const Cycle aggregation_start = ms.now();

  // --- Aggregation phase: AXW = A_hat * XW ---
  // W is dead from here on: Section IV-D evicts W before XW, so the
  // combination results survive in the unified buffer instead.
  ms.dmb().demote_class(TrafficClass::kWeights);
  if (hybrid) {
    result.hybrid_info = run_hybrid_aggregation(ms, plan.hybrid);
  } else {
    run_stage(ms, plan.aggregation);
  }
  result.stats = ms.stats();
  result.stats.cycles = ms.now();
  result.aggregation_stats =
      stats_delta(result.stats, result.combination_stats);
  HYMM_OBS(obs, phase_span("aggregation", aggregation_start, ms.now()));
  if (obs != nullptr) {
    // The registry counters that repeat a SimStats field take the
    // layer's totals here instead of counting every event again.
    MetricsRegistry& m = obs->metrics();
    const SimStats& s = result.stats;
    m.counter("dmb.evictions").add(s.dmb_evictions);
    m.counter("dmb.partial_spills").add(s.dmb_partial_spills);
    m.counter("lsq.forwards").add(s.lsq_forwards);
    m.counter("pe.mac_ops").add(s.mac_ops);
    m.counter("dram.reads").add(s.dram_total_read_bytes() / kLineBytes);
    m.counter("dram.writes").add(s.dram_total_write_bytes() / kLineBytes);
  }

  // --- Return results in the original node order ---
  if (hybrid) {
    const std::vector<NodeId>& perm = plan.operands.sort().perm;
    DenseMatrix xw_orig(n, w.cols());
    DenseMatrix axw_orig(n, w.cols());
    for (NodeId old_id = 0; old_id < n; ++old_id) {
      const NodeId new_id = perm[old_id];
      for (NodeId c = 0; c < w.cols(); ++c) {
        xw_orig.at(old_id, c) = plan.xw.at(new_id, c);
        axw_orig.at(old_id, c) = plan.axw.at(new_id, c);
      }
    }
    result.combination = std::move(xw_orig);
    result.output = std::move(axw_orig);
  } else {
    result.combination = std::move(plan.xw);
    result.output = std::move(plan.axw);
  }
  return result;
}

}  // namespace hymm
