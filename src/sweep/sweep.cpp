#include "sweep/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "common/flags.hpp"
#include "graph/fingerprint.hpp"

namespace hymm {

std::vector<SweepCell> SweepSpec::cells() const {
  std::vector<SweepCell> cells;
  const std::size_t dataset_count = datasets.size() + workloads.size();
  cells.reserve(dataset_count * configs.size() * flows.size());
  HYMM_CHECK_MSG(!configs.empty(), "SweepSpec with no configs");
  HYMM_CHECK_MSG(!flows.empty(), "SweepSpec with no flows");
  HYMM_CHECK_MSG(dataset_count > 0, "SweepSpec with no workloads");
  const auto expand = [&](const DatasetSpec& spec, double effective_scale,
                          std::shared_ptr<const PreparedWorkload> prepared) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      for (const Dataflow flow : flows) {
        SweepCell cell;
        cell.index = cells.size();
        cell.spec = spec;
        cell.scale = effective_scale;
        cell.seed = seed;
        cell.config_index = c;
        cell.config = configs[c];
        cell.flow = flow;
        cell.prepared = prepared;
        cells.push_back(std::move(cell));
      }
    }
  };
  for (const DatasetSpec& spec : datasets) {
    expand(spec, scale.value_or(default_scale(spec)), nullptr);
  }
  for (const std::shared_ptr<const PreparedWorkload>& prepared : workloads) {
    HYMM_CHECK(prepared != nullptr);
    expand(prepared->workload().spec, prepared->workload().scale, prepared);
  }
  return cells;
}

unsigned resolve_thread_count(unsigned requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("HYMM_THREADS")) {
    const unsigned parsed = static_cast<unsigned>(
        parse_u64_value("HYMM_THREADS", env, 0, 4096));
    if (parsed > 0) return parsed;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  const unsigned workers = std::min<unsigned>(
      resolve_thread_count(threads), static_cast<unsigned>(count));
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error == nullptr) first_error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

SweepRunner::SweepRunner(SweepOptions options)
    : options_(std::move(options)) {}

namespace {

// How one cell takes part in its run's reuse plan.
enum class Role {
  kCold,       // simulates everything itself, publishes nothing
  kLeader,     // simulates a shared combination phase and publishes it
  kFollower,   // restores the leader's combination phase
  kDuplicate,  // copies an earlier cell's result; never simulated
};

// One combination phase shared by two or more simulated cells: the
// leader publishes a copy of its warm state here, followers wait for
// it.
// Pinned in place: the leader's publish callback holds its address.
struct SharedCombination {
  SharedCombination() = default;
  SharedCombination(const SharedCombination&) = delete;
  SharedCombination& operator=(const SharedCombination&) = delete;

  std::promise<WarmStatePtr> promise;
  std::shared_future<WarmStatePtr> warm = promise.get_future().share();
  bool published = false;  // touched only by the leader's thread
};

struct CellPlan {
  Role role = Role::kCold;
  std::size_t source = 0;  // kDuplicate: the cell whose result it copies
  std::size_t share = 0;   // kLeader / kFollower: index into the shares
};

struct ReusePlan {
  std::vector<CellPlan> cells;   // one per grid cell
  std::size_t shared_count = 0;  // combination phases with a leader
};

// The three combination engine kinds are one per flow: OP, RWP on the
// raw features (RWP) and RWP on the degree-sorted features (hybrid).
// The workload is named without building it: the pre-built instance,
// or the WorkloadCache key it is built under.
using CombinationKey = std::tuple<std::string, Dataflow, std::uint64_t>;
// A whole cell adds what only the hybrid's aggregation reads.
using CellKey = std::tuple<CombinationKey, double>;

CombinationKey combination_key(const SweepCell& cell) {
  std::string workload =
      cell.prepared != nullptr
          ? "prepared:" + std::to_string(reinterpret_cast<std::uintptr_t>(
                              cell.prepared.get()))
          : WorkloadCache::key_of(cell.spec, cell.scale, cell.seed);
  return {std::move(workload), cell.flow, tuning_config_hash(cell.config)};
}

// Dedupes whole cells first, then pairs the surviving cells that share
// a combination phase. Depends only on the grid, never on threads.
ReusePlan plan_reuse(const std::vector<SweepCell>& cells) {
  ReusePlan plan;
  plan.cells.resize(cells.size());
  std::map<CellKey, std::size_t> first_cell;
  std::map<CombinationKey, std::vector<std::size_t>> by_combination;
  for (const SweepCell& cell : cells) {
    CombinationKey combination = combination_key(cell);
    const bool hybrid = cell.flow == Dataflow::kHybrid;
    CellKey key{combination, hybrid ? cell.config.tiling_threshold : 0.0};
    const auto [it, inserted] = first_cell.emplace(std::move(key), cell.index);
    if (!inserted) {
      plan.cells[cell.index] = {Role::kDuplicate, it->second, 0};
      continue;
    }
    by_combination[std::move(combination)].push_back(cell.index);
  }
  for (const auto& [key, members] : by_combination) {
    if (members.size() < 2) continue;  // runs cold, no snapshot
    for (const std::size_t index : members) {
      plan.cells[index] = {index == members.front() ? Role::kLeader
                                                    : Role::kFollower,
                           0, plan.shared_count};
    }
    ++plan.shared_count;
  }
  return plan;
}

}  // namespace

SweepRun SweepRunner::run(const SweepSpec& spec) {
  const std::vector<SweepCell> cells = spec.cells();

  SweepRun run;
  run.cells.resize(cells.size());

  // --- Group cells (observed: one Observer + serial execution each) ---
  std::unordered_map<std::string, std::size_t> group_index;
  std::vector<std::size_t> group_of(cells.size());
  for (const SweepCell& cell : cells) {
    const std::string key = options_.group_key
                                ? options_.group_key(cell)
                                : "cell:" + std::to_string(cell.index);
    const auto [it, inserted] =
        group_index.emplace(key, run.groups.size());
    if (inserted) run.groups.push_back(SweepGroup{key, {}, nullptr});
    run.groups[it->second].cells.push_back(cell.index);
    group_of[cell.index] = it->second;
  }

  // --- Plan reuse; the snapshot store lives for this run only ---
  ReusePlan reuse_plan;
  if (!options_.observe) {
    reuse_plan = plan_reuse(cells);
  } else {
    reuse_plan.cells.resize(cells.size());
  }
  const std::vector<CellPlan>& plan = reuse_plan.cells;
  std::vector<SharedCombination> shares(reuse_plan.shared_count);

  // --- Order the work: each task is a list of cells run serially ---
  std::vector<std::vector<std::size_t>> tasks;
  if (options_.observe) {
    for (const SweepGroup& group : run.groups) tasks.push_back(group.cells);
  } else {
    // Leaders first: they unblock the followers. Then the cells that
    // wait on nobody, slowest flow first — OP's merge pass makes it
    // the slowest flow, then RWP, then HyMM — so the longest cells do
    // not start last. Followers last: a follower only waits on a
    // leader claimed before it, so no worker blocks while independent
    // work is still unclaimed.
    const std::pair<Role, std::optional<Dataflow>> passes[] = {
        {Role::kLeader, std::nullopt},
        {Role::kCold, Dataflow::kOuterProduct},
        {Role::kCold, Dataflow::kRowWiseProduct},
        {Role::kCold, Dataflow::kHybrid},
        {Role::kFollower, std::nullopt}};
    for (const auto& [role, flow] : passes) {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        if (plan[i].role == role && (!flow || cells[i].flow == *flow)) {
          tasks.push_back({i});
        }
      }
    }
  }

  std::mutex start_mutex;
  std::vector<bool> group_started(run.groups.size(), false);
  const auto start_group = [&](std::size_t index) {
    if (!options_.on_group_start) return;
    const std::lock_guard<std::mutex> lock(start_mutex);
    const std::size_t g = group_of[index];
    if (group_started[g]) return;
    group_started[g] = true;
    options_.on_group_start(cells[run.groups[g].cells.front()]);
  };

  const auto run_cell = [&](std::size_t index, Observer* observer) {
    const SweepCell& cell = cells[index];
    const std::shared_ptr<const PreparedWorkload> prepared =
        cell.prepared != nullptr
            ? cell.prepared
            : cache_.get(cell.spec, cell.scale, cell.seed);
    if (observer != nullptr) {
      observer->begin_run(to_string(cell.flow) + "/" +
                          prepared->workload().spec.abbrev);
    }
    ExperimentRequest request;
    request.workload = &prepared->workload();
    request.a_hat = &prepared->a_hat();
    request.weights = &prepared->weights();
    request.reference = &prepared->reference();
    request.flow = cell.flow;
    request.config = cell.config;
    request.observer = observer;
    request.operands = &prepared->operands();
    SweepCellResult& slot = run.cells[index];
    slot.cell = cell;
    slot.scaled_spec = prepared->workload().spec;
    if (plan[index].role == Role::kFollower) {
      // Blocks until the leader publishes; rethrows the leader's error.
      request.share.restore = shares[plan[index].share].warm.get();
    }
    if (plan[index].role != Role::kLeader) {
      slot.result = run_experiment(request);
      return;
    }
    SharedCombination& share = shares[plan[index].share];
    request.share.publish = [&share](WarmStatePtr warm) {
      share.published = true;
      share.promise.set_value(std::move(warm));
    };
    try {
      slot.result = run_experiment(request);
    } catch (...) {
      if (!share.published) {
        share.promise.set_exception(std::current_exception());
      }
      throw;
    }
    // Never leave followers waiting: without a snapshot they run cold.
    if (!share.published) share.promise.set_value(nullptr);
  };

  parallel_for(tasks.size(), options_.threads, [&](std::size_t t) {
    SweepGroup& group = run.groups[group_of[tasks[t].front()]];
    if (options_.observe) {
      group.observer = std::make_shared<Observer>(options_.observer_options);
    }
    for (const std::size_t index : tasks[t]) {
      start_group(index);
      run_cell(index, group.observer.get());
    }
  });

  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (plan[i].role != Role::kDuplicate) continue;
    SweepCellResult& slot = run.cells[i];
    slot = run.cells[plan[i].source];
    slot.cell = cells[i];
    slot.result.sim_wall_ms = 0.0;
    slot.reused_from = plan[i].source;
  }
  return run;
}

}  // namespace hymm
