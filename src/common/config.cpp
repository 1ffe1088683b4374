#include "common/config.hpp"

#include "common/check.hpp"

namespace hymm {

std::string to_string(Dataflow dataflow) {
  switch (dataflow) {
    case Dataflow::kRowWiseProduct: return "RWP";
    case Dataflow::kOuterProduct: return "OP";
    case Dataflow::kHybrid: return "HyMM";
  }
  return "?";
}

std::string to_string(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kLru: return "LRU";
    case EvictionPolicy::kFifo: return "FIFO";
  }
  return "?";
}

void AcceleratorConfig::validate() const {
  HYMM_CHECK_MSG(pe_count > 0, "need at least one PE");
  HYMM_CHECK_MSG(clock_ghz > 0.0, "clock must be positive");
  HYMM_CHECK_MSG(dmb_bytes >= kLineBytes, "DMB smaller than one line");
  HYMM_CHECK_MSG(dmb_mshr_entries > 0, "need at least one MSHR");
  HYMM_CHECK_MSG(smq_pointer_bytes >= kLineBytes, "SMQ pointer buffer tiny");
  HYMM_CHECK_MSG(smq_index_bytes >= kLineBytes, "SMQ index buffer tiny");
  HYMM_CHECK_MSG(lsq_entries > 0, "empty LSQ");
  HYMM_CHECK_MSG(engine_window > 0, "zero engine window");
  HYMM_CHECK_MSG(engine_window < lsq_entries,
                 "engine window must leave LSQ headroom for stores");
  HYMM_CHECK_MSG(dram_bytes_per_cycle > 0, "zero DRAM bandwidth");
  HYMM_CHECK_MSG(dram_queue_entries > 0, "empty DRAM queue");
  HYMM_CHECK_MSG(dram_write_buffer_lines > 0, "empty DRAM write buffer");
  HYMM_CHECK_MSG(tiling_threshold >= 0.0 && tiling_threshold <= 1.0,
                 "tiling threshold must be a fraction");
  HYMM_CHECK_MSG(dmb_pin_fraction > 0.0 && dmb_pin_fraction <= 1.0,
                 "pin fraction must be in (0, 1]");
  HYMM_CHECK_MSG(obs_sample_interval > 0, "zero observability sample interval");
}

}  // namespace hymm
