// Accelerator configuration (Table III of the paper plus model knobs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace hymm {

// Which SpDeMM dataflow an engine runs (Section II-B / Table I).
enum class Dataflow {
  kRowWiseProduct,  // RWP — Gustavson, represents GROW
  kOuterProduct,    // OP — OuterSpace-style, represents GCNAX
  kHybrid,          // HyMM: OP for region 1, RWP for regions 2 and 3
};

std::string to_string(Dataflow dataflow);

// Victim selection inside the dense matrix buffer.
enum class EvictionPolicy {
  kLru,   // paper default (Section IV-D)
  kFifo,  // ablation
};

std::string to_string(EvictionPolicy policy);

// All microarchitectural parameters of the simulated accelerator.
// Defaults reproduce Table III and Section IV of the paper.
struct AcceleratorConfig {
  // --- Compute ---
  std::size_t pe_count = 16;          // MAC units (Table III)
  double clock_ghz = 1.0;             // 16 MACs * 2 ops * 1 GHz = 32 GFLOPS

  // --- Dense matrix buffer (DMB) ---
  std::size_t dmb_bytes = 256 * 1024;  // Table III: 256 KB
  std::size_t dmb_mshr_entries = 16;
  // Depth of the OP engines' pointer-guided prefetch of upcoming
  // stationary rows (the SMQ pointer buffer exposes future column
  // ids, making the OP input stream sequential — Section III). 0
  // disables prefetching (ablation).
  std::size_t op_prefetch_columns = 128;
  Cycle dmb_hit_latency = 2;
  EvictionPolicy eviction_policy = EvictionPolicy::kLru;
  // Near-memory accumulator that merges partial-output lines in place
  // (Section IV-D "Write with accumulation") — HyMM's mechanism.
  // Turned off, the hybrid's region-1 OP phase degrades to
  // append-and-merge, reproducing the "w/o accumulator" series of
  // Fig 10.
  bool near_memory_accumulator = true;

  // In-flight non-zero window of the dataflow engines (bounded by the
  // LSQ capacity; the paper's latency-hiding argument of Section IV-B
  // relies on the LSQ running far ahead of a missed head entry).
  std::size_t engine_window = 120;

  // Whether the OP *baseline* gets the near-memory accumulator. The
  // paper's "traditional outer product implementations" (Fig 10) do
  // not: every partial product is written out and merged in a later
  // pass. On (ablation) gives the OP baseline HyMM's accumulator.
  bool op_baseline_accumulator = false;

  // --- Sparse matrix queue (SMQ) ---
  std::size_t smq_pointer_bytes = 4 * 1024;   // Table III / Section V
  std::size_t smq_index_bytes = 12 * 1024;

  // --- Load/store queue (LSQ) ---
  std::size_t lsq_entries = 128;        // Table III
  std::size_t lsq_entry_bytes = 68;     // Table III
  bool lsq_store_to_load_forwarding = true;

  // --- Off-chip memory ---
  // 64 GB/s at 1 GHz equals one 64-byte line per cycle (Section IV).
  std::size_t dram_bytes_per_cycle = 64;
  Cycle dram_latency = 100;
  std::size_t dram_queue_entries = 64;
  // Write-buffer depth: writers stall once the channel is booked this
  // many line-slots ahead (back-pressure for spill storms).
  std::size_t dram_write_buffer_lines = 64;

  // --- HyMM preprocessing (Section IV-E) ---
  // Maximum tiling size as a fraction of graph nodes; clamped so the
  // region-1 output rows (OP) and region-2 input rows (RWP) fit in
  // the DMB.
  double tiling_threshold = 0.20;
  // Fraction of the DMB the hybrid engine is willing to pin for
  // region-1 partial-output rows (the rest keeps servicing reads).
  double dmb_pin_fraction = 0.75;

  // --- Observability (never affects timing) ---
  // Cycles between counter-track samples (DMB occupancy, partial
  // bytes, LSQ depth, SMQ backlog).
  Cycle obs_sample_interval = 64;

  // Derived quantities.
  std::size_t dmb_lines() const { return dmb_bytes / kLineBytes; }
  double gflops() const {
    return static_cast<double>(pe_count) * 2.0 * clock_ghz;
  }

  // Throws CheckError when a parameter combination is unbuildable
  // (e.g. buffers smaller than one line).
  void validate() const;
};

}  // namespace hymm
