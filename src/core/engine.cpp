#include "core/engine.hpp"

#include <atomic>
#include <cstdlib>

#include "common/check.hpp"
#include "obs/hooks.hpp"

namespace hymm {

namespace {

bool env_flag_set(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

FastForwardMode mode_from_env() {
  if (env_flag_set("HYMM_NO_FASTFWD")) return FastForwardMode::kOff;
  if (env_flag_set("HYMM_FASTFWD_CHECK")) return FastForwardMode::kCheck;
  return FastForwardMode::kOn;
}

// -1 = not yet initialized from the environment.
std::atomic<int> g_fast_forward_mode{-1};

}  // namespace

FastForwardMode fast_forward_mode() {
  int mode = g_fast_forward_mode.load(std::memory_order_relaxed);
  if (mode < 0) {
    mode = static_cast<int>(mode_from_env());
    g_fast_forward_mode.store(mode, std::memory_order_relaxed);
  }
  return static_cast<FastForwardMode>(mode);
}

void set_fast_forward_mode(FastForwardMode mode) {
  g_fast_forward_mode.store(static_cast<int>(mode),
                            std::memory_order_relaxed);
}

MemorySystem::MemorySystem(const AcceleratorConfig& config)
    : config_(config),
      dram_(config_, stats_),
      dmb_(config_, dram_, stats_),
      lsq_(config_, dmb_, stats_),
      smq_(config_, dram_),
      pe_(config_, stats_) {
  config_.validate();
}

MemorySystem::MemorySystem(const MemorySystem& other)
    : MemorySystem(other.config_) {
  *this = other;
}

MemorySystem& MemorySystem::operator=(const MemorySystem& other) {
  HYMM_CHECK_MSG(obs_ == nullptr && other.obs_ == nullptr,
                 "MemorySystem copy with an observer attached");
  if (this == &other) return *this;
  stats_ = other.stats_;
  address_map_ = other.address_map_;
  dram_ = other.dram_;
  dmb_ = other.dmb_;
  lsq_ = other.lsq_;
  smq_ = other.smq_;
  pe_ = other.pe_;
  now_ = other.now_;
  rebind_components();
  return *this;
}

void MemorySystem::rebind_components() {
  dram_.rebind(stats_);
  dmb_.rebind(dram_, stats_);
  lsq_.rebind(dmb_, stats_);
  smq_.rebind(dram_);
  pe_.rebind(stats_);
}

void MemorySystem::attach_observer(Observer* obs) {
  obs_ = obs;
  dram_.set_observer(obs);
  dmb_.set_observer(obs);
  lsq_.set_observer(obs);
  smq_.set_observer(obs);
  pe_.set_observer(obs);
}

void MemorySystem::tick_components() {
  dram_.tick(now_);
  dmb_.tick(now_);
  lsq_.tick(now_);
  smq_.tick(now_);
  sample_observer_if_due();
}

void MemorySystem::sample_observer_if_due() {
#ifndef HYMM_OBS_DISABLED
  if (obs_ != nullptr && now_ >= obs_->next_sample()) {
    obs_->sample(timeseries_sample());
  }
#endif
}

TimeSeriesSample MemorySystem::timeseries_sample() const {
  TimeSeriesSample s;
  s.cycle = now_;
  s.lsq_depth = lsq_.pending_loads() + lsq_.pending_stores();
  s.smq_backlog = smq_.backlog();
  s.dmb_lines = dmb_.resident_lines();
  s.partial_bytes = stats_.partial_bytes_now;
  s.dmb_hits = stats_.dmb_read_hits + stats_.dmb_accumulate_hits;
  s.dmb_misses = stats_.dmb_read_misses + stats_.dmb_accumulate_misses;
  s.dram_bytes = stats_.dram_total_bytes();
  s.alu_busy_cycles = stats_.alu_busy_cycles;
  s.mac_ops = stats_.mac_ops;
  s.stall_cycles = stats_.stall_cycles;
  s.dram_peak_bytes_per_cycle = config_.dram_bytes_per_cycle;
  return s;
}

void MemorySystem::sample_observer() {
  // run_phase calls this at the same cycle under every fast-forward
  // mode, so forcing a sample here preserves bit-identity.
  HYMM_OBS(obs_, sample_phase_end(timeseries_sample()));
}

void MemorySystem::fast_forward_to(Cycle target, StallCause cause) {
  HYMM_DCHECK(target > now_ + 1);
  const Cycle span = target - now_ - 1;
  stats_.account(cause, span);
  stats_.skipped_cycles += span;
  // Spatial back-fill: the tile focus only moves at engine retire
  // events, which a quiescent span by definition lacks, so bulk-
  // charging the span to the current focus is exactly what the
  // per-cycle loop would have attributed.
  HYMM_OBS(obs_, spatial().account_cycles(span));
  // A quiescent LSQ tick rejects every parked load and does nothing
  // else, so each skipped cycle would have rejected them all once.
  HYMM_OBS(obs_, on_lsq_rejects(lsq_.parked_loads() * span));
#ifndef HYMM_OBS_DISABLED
  // Replay every observer sample due inside the skipped span with the
  // exact values the legacy loop would have seen. Across a quiescent
  // span only the charged stall bucket moves (one cycle per cycle);
  // a legacy sample at cycle c reads accounting through c-1, and the
  // post-bulk vector holds accounting through target-1, so the charged
  // bucket at c is the current value minus (target - c).
  if (obs_ != nullptr && obs_->next_sample() <= target - 1) {
    TimeSeriesSample s = timeseries_sample();
    const auto ci = static_cast<std::size_t>(cause);
    const Cycle charged = stats_.stall_cycles[ci];
    while (obs_->next_sample() <= target - 1) {
      const Cycle c = obs_->next_sample();
      s.cycle = c;
      s.stall_cycles[ci] = charged - (target - c);
      obs_->sample(s);
    }
  }
#endif
  now_ = target;
}

Cycle run_phase(MemorySystem& ms, Engine& engine, Cycle max_cycles) {
  const Cycle start = ms.now();
  [[maybe_unused]] const Cycle stalls_before = ms.stats().stall_total();
  const FastForwardMode mode = fast_forward_mode();
  // kCheck: end and cause of the span the fast path would skip.
  Cycle check_until = 0;
  [[maybe_unused]] StallCause check_cause = StallCause::kDrain;
  while (!engine.done(ms) || !ms.lsq().all_stores_drained() ||
         ms.dmb().has_pending_misses()) {
    HYMM_CHECK_MSG(ms.now() - start < max_cycles,
                   "engine exceeded " << max_cycles
                                      << " cycles — likely a deadlock");
    if (mode == FastForwardMode::kOn && ms.components_idle()) {
      // The tick of an idle system changes nothing (kCheck proves it
      // below); only the observer's schedule runs.
      ms.sample_observer_if_due();
    } else {
      [[maybe_unused]] const bool idle =
          mode == FastForwardMode::kCheck && ms.components_idle();
      ms.tick_components();
      HYMM_DCHECK(!idle || (ms.components_idle() &&
                            ms.components_quiescent()));
    }
    engine.tick(ms);
    ms.stats().account(engine.cycle_cause());
    // Spatial attribution mirrors the stall accounting: one cycle to
    // the currently focused tile (or the residual bucket).
    HYMM_OBS(ms.observer(), spatial().account_cycles(1));
    if (mode == FastForwardMode::kOn) {
      if (engine.quiescent() && ms.components_quiescent()) {
        // Nothing changed this cycle and nothing can change before
        // the earliest event: jump there. Capping at the deadlock
        // horizon keeps a stuck engine (no events at all) tripping
        // the max_cycles check exactly like the legacy loop.
        const Cycle target =
            std::min(std::min(ms.next_component_event(),
                              engine.next_event(ms.now())),
                     start + max_cycles);
        if (target > ms.now() + 1) {
          ms.fast_forward_to(target, engine.cycle_cause());
          continue;  // the clock already sits on the event cycle
        }
      }
    } else if (mode == FastForwardMode::kCheck) {
      if (ms.now() < check_until) {
        // Inside a span the fast path would have skipped: prove it
        // dead — still quiescent, still charged to the same bucket.
        HYMM_DCHECK(engine.quiescent());
        HYMM_DCHECK(ms.components_quiescent());
        HYMM_DCHECK(engine.cycle_cause() == check_cause);
      } else if (engine.quiescent() && ms.components_quiescent()) {
        const Cycle target =
            std::min(std::min(ms.next_component_event(),
                              engine.next_event(ms.now())),
                     start + max_cycles);
        if (target > ms.now() + 1) {
          check_until = target;
          check_cause = engine.cycle_cause();
        }
      }
    }
    ms.advance();
  }
  // Account trailing DRAM writes still in the bandwidth pipe.
  if (ms.dram().busy_until() > ms.now()) {
    const Cycle drain = ms.dram().busy_until() - ms.now();
    ms.stats().account(StallCause::kDrain, drain);
    // Drain cycles flush traffic from many tiles; they land in the
    // spatial residual bucket (identical under every fast-forward
    // mode — this block never fast-forwards).
    HYMM_OBS(ms.observer(), spatial().unfocus());
    HYMM_OBS(ms.observer(), spatial().account_cycles(drain));
    while (ms.now() < ms.dram().busy_until()) ms.advance();
  }
  ms.stats().cycles = ms.now();
  // The cross-cutting accounting invariant: this phase attributed
  // exactly as many bucket-cycles as it simulated.
  HYMM_DCHECK(ms.stats().stall_total() - stalls_before == ms.now() - start);
  ms.sample_observer();
  return ms.now() - start;
}

}  // namespace hymm
