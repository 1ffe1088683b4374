// Processing-engine array (paper Section IV-C): 16 PEs, each a MAC
// unit plus a stationary buffer. The array retires one scalar x
// 16-lane-vector operation per cycle; lanes map to the 16 floats of a
// 64-byte dense row (layer dimension 16).
//
// Functional math happens on host arrays at retire time; this class
// models occupancy (ALU utilization, Fig 8) and applies the lane-wise
// arithmetic helpers used by the engines.
#pragma once

#include <span>

#include "common/config.hpp"
#include "common/types.hpp"
#include "sim/stats.hpp"

namespace hymm {

class Observer;

class PeArray {
 public:
  PeArray(const AcceleratorConfig& config, SimStats& stats);

  // Copyable (the only dynamic state is the last issue cycle);
  // rebind() re-points a copy's counters, see Dram::rebind.
  void rebind(SimStats& stats) { stats_ = &stats; }

  // Attaches the observability context (read-only hooks; nullptr
  // detaches).
  void set_observer(Observer* obs) { obs_ = obs; }

  // True when the array can retire another op this cycle.
  bool can_issue(Cycle now) const;

  // Retires one scalar-vector MAC: out[i] += scalar * in[i]. Counts a
  // busy cycle and pe_count multiply-accumulates.
  void mac(Value scalar, std::span<const Value> in, std::span<Value> out,
           Cycle now);

  // Retires one vector addition (baseline OP merge phase: the PE
  // adders fold spilled partials): out[i] += in[i].
  void add(std::span<const Value> in, std::span<Value> out, Cycle now);

  // Retires one timing-only merge addition (the operand values were
  // already folded into the host array at MAC time; the merge phase
  // only costs cycles and counters).
  void merge_op(Cycle now);

  // Occupies the array for a cycle without arithmetic (pipeline
  // bubble bookkeeping in tests).
  void stall(Cycle now);

 private:
  void mark_busy(Cycle now);

  std::size_t pe_count_;
  Cycle last_issue_cycle_ = ~Cycle{0};
  SimStats* stats_;
  Observer* obs_ = nullptr;
};

}  // namespace hymm
