#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/check.hpp"

namespace hymm {

namespace {

// Pre-generated arrival: timestamp plus the class the pick stream
// drew. Generated before the event loop so the arrival process is
// independent of scheduling decisions (open loop).
struct Arrival {
  Cycle cycle = 0;
  std::size_t class_index = 0;
};

std::vector<Arrival> generate_arrivals(const ServeConfig& config,
                                       const std::vector<ClassCost>& costs) {
  // Separate streams so adding a knob to one never perturbs the
  // other: seed+1 drives inter-arrival gaps, seed+2 the class mix.
  Rng gap_rng(config.seed + 1);
  Rng class_rng(config.seed + 2);
  const double clock_hz = config.accel.clock_ghz * 1e9;
  const double mean_gap = clock_hz / config.arrival_rate;
  double total_weight = 0.0;
  for (const ClassCost& cost : costs) total_weight += cost.weight;
  HYMM_CHECK_MSG(total_weight > 0.0, "class-mix weights sum to zero");

  std::vector<Arrival> arrivals;
  arrivals.reserve(config.requests);
  Cycle now = 0;
  for (std::uint64_t i = 0; i < config.requests; ++i) {
    // Exponential inter-arrival via inversion; floored at one cycle
    // so timestamps strictly increase.
    const double u = gap_rng.next_double();
    const double gap = -std::log(1.0 - u) * mean_gap;
    now += std::max<Cycle>(static_cast<Cycle>(gap), 1);
    Arrival arrival;
    arrival.cycle = now;
    double pick = class_rng.next_double() * total_weight;
    std::size_t index = 0;
    for (; index + 1 < costs.size(); ++index) {
      pick -= costs[index].weight;
      if (pick < 0.0) break;
    }
    arrival.class_index = index;
    arrivals.push_back(arrival);
  }
  return arrivals;
}

// Decimates an event series to <= limit points by repeated halving
// (keep every other sample) — deterministic and order-preserving.
void decimate(std::vector<QueueSample>& samples, std::size_t limit) {
  while (samples.size() > limit) {
    std::vector<QueueSample> kept;
    kept.reserve((samples.size() + 1) / 2);
    for (std::size_t i = 0; i < samples.size(); i += 2) {
      kept.push_back(samples[i]);
    }
    samples.swap(kept);
  }
}

}  // namespace

ServeResult run_serve(const std::vector<RequestClass>& classes,
                      const std::vector<DenseMatrix>& weights,
                      const ServeConfig& config) {
  HYMM_CHECK_MSG(config.requests > 0, "ServeConfig.requests must be > 0");
  HYMM_CHECK_MSG(config.arrival_rate > 0.0,
                 "ServeConfig.arrival_rate must be > 0");
  HYMM_CHECK_MSG(config.max_batch > 0, "ServeConfig.max_batch must be > 0");
  HYMM_CHECK_MSG(config.queue_capacity > 0,
                 "ServeConfig.queue_capacity must be > 0");

  ServeResult result;
  result.class_costs =
      simulate_class_costs(classes, weights, config.flow, config.accel,
                           config.threads);
  // Per-(class, position) savings depend only on the class and on
  // whether the member is the leader — precompute both variants.
  std::vector<RequestSavings> leader_savings;
  std::vector<RequestSavings> follower_savings;
  for (const ClassCost& cost : result.class_costs) {
    leader_savings.push_back(
        batch_member_savings(cost, 0, config.buffer_reuse, config.accel));
    follower_savings.push_back(
        batch_member_savings(cost, 1, config.buffer_reuse, config.accel));
  }

  const std::vector<Arrival> arrivals =
      generate_arrivals(config, result.class_costs);
  result.requests.resize(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    result.requests[i].id = i;
    result.requests[i].class_index = arrivals[i].class_index;
    result.requests[i].arrival = arrivals[i].cycle;
  }

  std::vector<QueueSample> samples;
  std::deque<std::size_t> queue;  // waiting request indices, FIFO
  // The last dispatched batch's service window, for in-flight
  // attribution of samples taken while it runs.
  Cycle batch_begin = 0, batch_end = 0;
  std::uint64_t batch_size = 0;
  const auto in_flight_at = [&](Cycle t) -> std::uint64_t {
    return (t >= batch_begin && t < batch_end) ? batch_size : 0;
  };
  const auto sample = [&](Cycle t) {
    samples.push_back(QueueSample{t, queue.size(), in_flight_at(t)});
  };

  std::size_t next_arrival = 0;
  const auto admit_until = [&](Cycle t) {
    // Admit every arrival at or before t, in arrival order; the
    // bounded queue drops what does not fit.
    while (next_arrival < arrivals.size() &&
           arrivals[next_arrival].cycle <= t) {
      RequestRecord& record = result.requests[next_arrival];
      if (queue.size() >= config.queue_capacity) {
        record.dropped = true;
        ++result.dropped;
      } else {
        queue.push_back(next_arrival);
      }
      sample(record.arrival);
      ++next_arrival;
    }
  };

  Cycle server_free = 0;
  while (next_arrival < arrivals.size() || !queue.empty()) {
    if (queue.empty()) {
      // Idle server: jump to the next arrival.
      admit_until(arrivals[next_arrival].cycle);
      continue;
    }
    const Cycle start = std::max(
        server_free, result.requests[queue.front()].arrival);
    // Everything that arrived while the previous batch was in service
    // (or before this start) is waiting when the batch forms.
    admit_until(start);

    // Batch = leader + consecutive same-class requests, strict FIFO
    // (no reordering around an incompatible request).
    const std::size_t leader_class =
        result.requests[queue.front()].class_index;
    std::vector<std::size_t> batch;
    while (batch.size() < config.max_batch && !queue.empty() &&
           result.requests[queue.front()].class_index == leader_class) {
      batch.push_back(queue.front());
      queue.pop_front();
    }

    batch_begin = start;
    batch_size = batch.size();
    Cycle member_start = start;
    for (std::size_t position = 0; position < batch.size(); ++position) {
      RequestRecord& record = result.requests[batch[position]];
      const ClassCost& cost = result.class_costs[record.class_index];
      record.savings = position == 0
                           ? leader_savings[record.class_index]
                           : follower_savings[record.class_index];
      record.service_cycles =
          cost.standalone_cycles - record.savings.saved_cycles;
      record.batch_id = result.batches;
      record.batch_position = position;
      record.start = member_start;
      record.completion = member_start + record.service_cycles;
      record.wait_cycles = record.start - record.arrival;
      record.latency_cycles = record.completion - record.arrival;
      member_start = record.completion;

      result.latency.observe(record.latency_cycles);
      result.wait.observe(record.wait_cycles);
      result.service.observe(record.service_cycles);
      ++result.served;
      result.standalone_cycles += cost.standalone_cycles;
      result.saved_cycles += record.savings.saved_cycles;
      result.standalone_bytes += cost.standalone_dram_bytes;
      result.reuse_saved_bytes += record.savings.reuse_saved_bytes;
      result.batch_saved_bytes += record.savings.batch_saved_bytes;
      const std::uint64_t saved_bytes = record.savings.reuse_saved_bytes +
                                        record.savings.batch_saved_bytes;
      HYMM_CHECK(saved_bytes <= cost.standalone_dram_bytes);
      result.charged_bytes += cost.standalone_dram_bytes - saved_bytes;
    }
    batch_end = member_start;
    server_free = batch_end;
    result.busy_cycles += batch_end - batch_begin;
    result.makespan = std::max(result.makespan, batch_end);
    ++result.batches;
    sample(start);
  }

  // Conservation: the serving run's DRAM ledger must account for
  // every byte the standalone runs would have paid.
  HYMM_CHECK(result.charged_bytes + result.reuse_saved_bytes +
                 result.batch_saved_bytes ==
             result.standalone_bytes);
  HYMM_CHECK(result.served + result.dropped == config.requests);

  decimate(samples, 512);
  result.queue_depth = std::move(samples);
  return result;
}

}  // namespace hymm
