#include "graph/fingerprint.hpp"

#include <bit>
#include <cstdio>

namespace hymm {

namespace {

// splitmix64 finalizer: cheap, well-distributed 64-bit mixer.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Digest {
 public:
  void add(std::uint64_t v) { state_ = mix64(state_ ^ mix64(v)); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(float v) {
    add(static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(v)));
  }
  void add(bool v) { add(static_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0x48794d4d5475ULL;  // "HyMMTu"
};

}  // namespace

std::uint64_t graph_fingerprint(const CsrMatrix& matrix) {
  Digest d;
  d.add(static_cast<std::uint64_t>(matrix.rows()));
  d.add(static_cast<std::uint64_t>(matrix.cols()));
  d.add(static_cast<std::uint64_t>(matrix.nnz()));
  for (const EdgeCount p : matrix.row_ptr()) {
    d.add(static_cast<std::uint64_t>(p));
  }
  for (const NodeId c : matrix.col_idx()) {
    d.add(static_cast<std::uint64_t>(c));
  }
  for (const Value v : matrix.values()) d.add(v);
  return d.value();
}

std::uint64_t tuning_config_hash(const AcceleratorConfig& c) {
  Digest d;
  d.add(static_cast<std::uint64_t>(c.pe_count));
  d.add(c.clock_ghz);
  d.add(static_cast<std::uint64_t>(c.dmb_bytes));
  d.add(static_cast<std::uint64_t>(c.dmb_mshr_entries));
  d.add(static_cast<std::uint64_t>(c.op_prefetch_columns));
  d.add(static_cast<std::uint64_t>(c.dmb_hit_latency));
  d.add(static_cast<std::uint64_t>(c.eviction_policy));
  d.add(c.near_memory_accumulator);
  d.add(static_cast<std::uint64_t>(c.engine_window));
  d.add(c.op_baseline_accumulator);
  d.add(static_cast<std::uint64_t>(c.smq_pointer_bytes));
  d.add(static_cast<std::uint64_t>(c.smq_index_bytes));
  d.add(static_cast<std::uint64_t>(c.lsq_entries));
  d.add(static_cast<std::uint64_t>(c.lsq_entry_bytes));
  d.add(c.lsq_store_to_load_forwarding);
  d.add(static_cast<std::uint64_t>(c.dram_bytes_per_cycle));
  d.add(static_cast<std::uint64_t>(c.dram_latency));
  d.add(static_cast<std::uint64_t>(c.dram_queue_entries));
  d.add(static_cast<std::uint64_t>(c.dram_write_buffer_lines));
  // tiling_threshold deliberately omitted (it is the tuning output);
  // dmb_pin_fraction stays in — it changes the clamp geometry.
  d.add(c.dmb_pin_fraction);
  return d.value();
}

std::uint64_t fingerprint_combine(std::uint64_t a, std::uint64_t b) {
  return mix64(a ^ mix64(b));
}

std::string fingerprint_hex(std::uint64_t digest) {
  char buf[2 + 16 + 1];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace hymm
