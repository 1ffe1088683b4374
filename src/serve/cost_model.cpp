#include "serve/cost_model.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/stall.hpp"
#include "core/gcn_model.hpp"
#include "graph/degree_sort.hpp"
#include "sweep/sweep.hpp"

namespace hymm {

namespace {

constexpr std::size_t cls_index(TrafficClass cls) {
  return static_cast<std::size_t>(cls);
}

ClassCost simulate_one(const RequestClass& cls,
                       const std::vector<DenseMatrix>& weights,
                       Dataflow flow, const AcceleratorConfig& config) {
  const GcnModel model(cls.a_hat, weights);

  GcnModel::InferenceRequest request;
  request.flow = flow;
  request.features = &cls.features;
  request.config = config;
  request.verify = true;
  // Hybrid: sort once here and share it across the model's layers via
  // the request passthrough.
  DegreeSortResult sort;
  CsrMatrix sorted_features;
  if (flow == Dataflow::kHybrid) {
    sort = degree_sort(cls.a_hat);
    sorted_features = permute_feature_rows(cls.features, sort.perm);
    request.sort = &sort;
    request.sorted_features = &sorted_features;
  }
  const GcnModel::InferenceResult result = model.run(request);

  ClassCost cost;
  cost.name = cls.name;
  cost.weight = cls.weight;
  cost.nodes = cls.nodes;
  cost.standalone_cycles = result.total_cycles;
  cost.standalone_dram_bytes = result.total_dram_bytes;
  cost.preprocess_ms = result.total_preprocess_ms;
  cost.verified = result.verified;
  cost.max_abs_err = result.max_abs_err;
  for (const LayerRunResult& layer : result.layers) {
    LayerCost lc;
    lc.cycles = layer.stats.cycles;
    lc.comb_mem_stall =
        stall_group_memory(layer.combination_stats.stall_cycles);
    lc.agg_mem_stall =
        stall_group_memory(layer.aggregation_stats.stall_cycles);
    lc.weight_read_bytes =
        layer.stats.dram_read_bytes[cls_index(TrafficClass::kWeights)];
    lc.xw_write_bytes =
        layer.combination_stats
            .dram_write_bytes[cls_index(TrafficClass::kCombined)];
    lc.xw_read_bytes =
        layer.aggregation_stats
            .dram_read_bytes[cls_index(TrafficClass::kCombined)];
    const std::size_t chunks =
        (static_cast<std::size_t>(layer.combination.cols()) + kLaneCount -
         1) /
        kLaneCount;
    lc.xw_footprint_bytes = static_cast<std::uint64_t>(cls.nodes) * chunks *
                            kLineBytes;
    cost.layers.push_back(lc);
  }
  return cost;
}

}  // namespace

std::vector<ClassCost> simulate_class_costs(
    const std::vector<RequestClass>& classes,
    const std::vector<DenseMatrix>& weights, Dataflow flow,
    const AcceleratorConfig& config, unsigned threads) {
  HYMM_CHECK_MSG(!classes.empty(), "no request classes");
  std::vector<ClassCost> costs(classes.size());
  // Indexed slots: each class writes only costs[i], so the result is
  // bit-identical at any thread count.
  parallel_for(classes.size(), threads, [&](std::size_t i) {
    costs[i] = simulate_one(classes[i], weights, flow, config);
  });
  return costs;
}

RequestSavings batch_member_savings(const ClassCost& cost,
                                    std::size_t position, bool buffer_reuse,
                                    const AcceleratorConfig& config) {
  const std::uint64_t bpc =
      std::max<std::uint64_t>(config.dram_bytes_per_cycle, 1);
  const std::uint64_t resident_budget = static_cast<std::uint64_t>(
      config.dmb_pin_fraction * static_cast<double>(config.dmb_bytes));

  RequestSavings savings;
  for (const LayerCost& layer : cost.layers) {
    Cycle comb_budget = layer.comb_mem_stall;
    Cycle agg_budget = layer.agg_mem_stall;
    if (buffer_reuse && layer.xw_footprint_bytes <= resident_budget) {
      // XW stays pinned between the phases: the combination's
      // writeback and the aggregation's re-read never touch DRAM.
      const Cycle comb_saved = std::min<Cycle>(
          layer.xw_write_bytes / bpc, comb_budget);
      const Cycle agg_saved =
          std::min<Cycle>(layer.xw_read_bytes / bpc, agg_budget);
      comb_budget -= comb_saved;
      agg_budget -= agg_saved;
      savings.saved_cycles += comb_saved + agg_saved;
      savings.reuse_saved_bytes +=
          layer.xw_write_bytes + layer.xw_read_bytes;
    }
    if (position > 0) {
      // Follower: the leader already fetched W this layer; the saving
      // draws from whatever combination stall budget reuse left.
      const Cycle weight_saved = std::min<Cycle>(
          layer.weight_read_bytes / bpc, comb_budget);
      savings.saved_cycles += weight_saved;
      savings.batch_saved_bytes += layer.weight_read_bytes;
    }
  }
  HYMM_DCHECK(savings.saved_cycles <= cost.standalone_cycles);
  HYMM_DCHECK(savings.reuse_saved_bytes + savings.batch_saved_bytes <=
              cost.standalone_dram_bytes);
  return savings;
}

}  // namespace hymm
