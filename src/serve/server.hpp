/// @file
/// Open-loop GCN serving model: a seeded Poisson request generator on
/// the simulated clock feeds a bounded FIFO queue of inference
/// requests (one RequestClass each), and a single accelerator-backed
/// server dispatches them in batches of consecutive same-class
/// requests — followers of a batch share the leader's weight fetches,
/// and every member keeps each layer's XW output resident between
/// combination and aggregation (cost_model.hpp). Per-request service
/// cycles come from exact per-class simulations minus the analytic
/// savings, so the whole run is deterministic: bit-identical for a
/// fixed seed at any worker thread count and under HYMM_NO_FASTFWD.
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "obs/histogram.hpp"
#include "serve/cost_model.hpp"
#include "serve/request.hpp"

namespace hymm {

/// Everything one serving run needs, named instead of positional.
struct ServeConfig {
  Dataflow flow = Dataflow::kHybrid;  ///< dataflow every request runs
  AcceleratorConfig accel;            ///< hardware parameters
  std::uint64_t requests = 256;       ///< arrivals to generate
  /// Open-loop Poisson arrival rate, in requests per second of
  /// modeled time at accel.clock_ghz.
  double arrival_rate = 2000.0;
  std::size_t queue_capacity = 64;  ///< waiting requests before drops
  std::size_t max_batch = 4;        ///< leader + followers per dispatch
  bool buffer_reuse = true;         ///< keep XW resident between phases
  std::uint64_t seed = 42;          ///< arrival/class-pick RNG seed
  unsigned threads = 0;  ///< class-cost simulation workers (0 = auto)
};

/// The lifecycle of one generated request, in arrival order. Dropped
/// requests (queue full on arrival) carry only id/class/arrival.
struct RequestRecord {
  std::uint64_t id = 0;         ///< arrival index
  std::size_t class_index = 0;  ///< index into ServeResult::class_costs
  bool dropped = false;         ///< rejected by the bounded queue
  Cycle arrival = 0;            ///< generator timestamp
  Cycle start = 0;              ///< service start (after queue wait)
  Cycle completion = 0;         ///< service end
  Cycle service_cycles = 0;     ///< standalone cycles minus savings
  Cycle wait_cycles = 0;        ///< start - arrival
  Cycle latency_cycles = 0;     ///< completion - arrival
  std::uint64_t batch_id = 0;   ///< dispatch the request rode in
  std::size_t batch_position = 0;  ///< 0 = batch leader
  RequestSavings savings;       ///< cycles/bytes this request avoided
};

/// One point of the queue-depth timeseries (sampled at every arrival
/// and dispatch event, decimated to <= 512 points).
struct QueueSample {
  Cycle cycle = 0;              ///< event timestamp
  std::uint64_t depth = 0;      ///< waiting requests after the event
  std::uint64_t in_flight = 0;  ///< batch members being served
};

/// Everything a serving run produced.
struct ServeResult {
  std::vector<ClassCost> class_costs;   ///< per-class standalone costs
  std::vector<RequestRecord> requests;  ///< every arrival, in order
  LogHistogram latency;   ///< completion - arrival, served requests
  LogHistogram wait;      ///< start - arrival, served requests
  LogHistogram service;   ///< per-request service cycles
  std::vector<QueueSample> queue_depth;  ///< decimated event series

  std::uint64_t served = 0;   ///< requests that completed
  std::uint64_t dropped = 0;  ///< requests the bounded queue rejected
  std::uint64_t batches = 0;  ///< dispatches issued
  Cycle makespan = 0;         ///< last completion cycle
  Cycle busy_cycles = 0;      ///< cycles the server was serving

  /// DRAM-traffic conservation ledger: for every served request,
  /// standalone == charged + reuse_saved + batch_saved (HYMM_CHECKed
  /// by run_serve; the JSON report re-states the identity).
  std::uint64_t standalone_bytes = 0;  ///< sum of class standalone traffic
  std::uint64_t charged_bytes = 0;     ///< traffic the serving run pays
  std::uint64_t reuse_saved_bytes = 0; ///< XW writeback+re-read avoided
  std::uint64_t batch_saved_bytes = 0; ///< weight re-fetches avoided
  Cycle standalone_cycles = 0;  ///< sum of served standalone cycles
  Cycle saved_cycles = 0;       ///< total service-cycle reduction

  /// Served requests per second of modeled time at `clock_ghz`.
  double throughput_rps(double clock_ghz = 1.0) const {
    if (makespan == 0) return 0.0;
    return static_cast<double>(served) * clock_ghz * 1e9 /
           static_cast<double>(makespan);
  }
  /// Fraction of the makespan the server spent serving.
  double utilization() const {
    return makespan == 0 ? 0.0
                         : static_cast<double>(busy_cycles) /
                               static_cast<double>(makespan);
  }
};

/// Runs the full serving pipeline: simulates each class's standalone
/// cost (parallel across classes; see simulate_class_costs), then
/// plays the open-loop arrival process through the bounded queue and
/// batching scheduler on the simulated clock. Deterministic for a
/// fixed (classes, weights, config).
ServeResult run_serve(const std::vector<RequestClass>& classes,
                      const std::vector<DenseMatrix>& weights,
                      const ServeConfig& config);

}  // namespace hymm
