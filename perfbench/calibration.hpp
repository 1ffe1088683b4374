/// @file
/// Host-speed calibration. On a shared VM the vCPU's speed drifts by up
/// to 2x over minutes, with no steal time or preemption the guest can
/// see, and the same work takes that much longer. A fixed kernel timed
/// right before and right after each timed unit of work measures the
/// speed the unit ran at, so host times can be reported at one
/// reference speed.
///
/// The kernel is benchmark code, compiled with the benchmark's own
/// flags, so a change to the library never moves it: a faster
/// simulator still reads as fewer reference seconds.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Seconds the kernel takes on the reference host. A unit of work that
/// took `t` host seconds between kernel samples `a` and `b` is
/// reported as t * kCalibrationReferenceSeconds / ((a + b) / 2).
inline constexpr double kCalibrationReferenceSeconds = 0.2;

/// Runs the fixed calibration kernel once and returns its host
/// seconds: dependent multiply-and-update steps over a 256 KiB table
/// that stays in cache, like the simulator's hot loop over its queues
/// and small hash maps. (Of the kernels tried, this one tracked the
/// workloads' own slow-downs best; a DRAM-bound one did not.)
inline double calibration_seconds() {
  static std::vector<std::uint32_t> table(std::size_t{1} << 16);
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t acc = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 20000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint32_t& slot = table[(x ^ acc) & (table.size() - 1)];
    slot += static_cast<std::uint32_t>(acc);
    acc += slot * 2654435761u + (x >> 32);
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  // Keeps the result observable so the loop is not optimized away.
  table[0] ^= static_cast<std::uint32_t>(acc);
  return seconds;
}

}  // namespace perfbench
