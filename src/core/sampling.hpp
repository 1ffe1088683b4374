/// @file
/// Sampled simulation mode (--sample / HYMM_SAMPLE): instead of
/// simulating every non-zero of a layer, each stage of each phase
/// simulates a deterministic, seeded subset of contiguous tile bands
/// in full cycle-accurate detail — row bands of the streamed CSR for
/// RWP stages, column bands of the streamed CSC for OP stages — and
/// extrapolates cycles, stall vectors and DRAM bytes to the whole
/// stage with a non-zero-weighted ratio estimator. The stages are the
/// exact run's own (core/stage.hpp): Accelerator::run_layer builds one
/// layer plan and, when LayerRunRequest::sample is set, hands its
/// stages to sample_phase instead of streaming them whole.
///
/// Estimator. Bands are near-equal spans of the streamed dimension;
/// with fraction f and B bands, k = max(1, round(f*B)) bands are
/// chosen by seeded stratified selection (one uniform draw per
/// contiguous stratum of bands, so every part of the degree
/// distribution is represented). All bands of the whole layer run
/// back-to-back on the one MemorySystem and address layout of the
/// layer, so warm state (the W working set in combination, the XW
/// lines the aggregation phase inherits) carries across bands and
/// phases exactly as it does in a full run. With per-band cycles y_i
/// and non-zeros x_i, the stage estimate is warm-start-corrected: the
/// first band pays the stage's compulsory misses and enters the
/// estimate once, unscaled, while only the warm bands' rate
/// R_warm = sum_{i>=2} y_i / sum_{i>=2} x_i is extrapolated —
/// t = y_1 + R_warm * (X - x_1) for stage total X.
/// Every other additive counter scales the same way (scale_stats,
/// which keeps the stall-bucket invariant exact). The reported
/// 1-sigma error bar is the ratio-estimator standard error with
/// finite-population correction over the warm bands' residuals
/// e_i = y_i - R_warm*x_i.
///
/// Bias control beyond the warm-start correction: each band restarts
/// its engine (a pipeline drain an exact run pays once per phase), so
/// band_target is lowered until every band holds at least
/// min_band_nnz non-zeros, and phases below min_nnz simulated
/// non-zeros raise their effective fraction toward 1 (an exact phase)
/// — extrapolating tiny phases saves nothing and biases most. The
/// documented and tested accuracy bound (docs/performance.md,
/// tests/test_sampling.cpp) covers the residual bias plus noise;
/// sampled results are labeled `sampled: true`, are never
/// functionally verified, and are never gated against exact
/// snapshots (hymm_diff refuses mixed pairs).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "core/stage.hpp"
#include "sim/stats.hpp"

namespace hymm {

/// Knobs of one sampled layer run.
struct SampleOptions {
  /// Fraction of bands simulated per phase, in (0, 1].
  double fraction = 0.25;
  /// Seed of the stratified band selection (combined per stage with
  /// the stage's sample_tag, so stages draw independent bands).
  std::uint64_t seed = 42;
  /// Target band count per phase before the fraction is applied; the
  /// effective count is capped by the streamed dimension's extent and
  /// lowered so every band holds at least min_band_nnz non-zeros.
  NodeId band_target = 16;
  /// Minimum non-zeros per band: each band restarts the engine (a
  /// pipeline/window drain an exact run pays only once per phase), so
  /// bands must be large enough to amortize it or the extrapolated
  /// restart cost dominates small phases. Phases too small for even
  /// two such bands collapse to a single band covering everything —
  /// an exact phase simulation.
  std::uint64_t min_band_nnz = 1u << 14;
  /// Adaptive floor: a phase keeps at least this many simulated
  /// non-zeros, raising its effective fraction up to 1 on small
  /// phases. Sampling cannot pay for itself there (the whole phase is
  /// milliseconds) while per-band extrapolation bias is at its worst,
  /// so small phases degrade gracefully toward a full simulation.
  std::uint64_t min_nnz = 1u << 16;
};

/// One phase's sampled measurement and extrapolation.
struct PhaseSampleEstimate {
  std::uint64_t bands_total = 0;      ///< bands the phase was split into
  std::uint64_t bands_simulated = 0;  ///< bands actually simulated
  std::uint64_t nnz_total = 0;        ///< non-zeros of the whole phase
  std::uint64_t nnz_simulated = 0;    ///< non-zeros in simulated bands
  double cycles_estimate = 0.0;       ///< ratio-estimator cycle total
  /// Approximate 1-sigma standard error of cycles_estimate
  /// (finite-population-corrected ratio estimator; 0 when fewer than
  /// two bands were simulated — no variance information).
  double cycles_stderr = 0.0;
  /// Extrapolated counters (cycles, stall vector, DRAM bytes, ...);
  /// the stall-bucket invariant sum(stall_cycles) == cycles holds.
  SimStats stats;
};

/// The sampled-run annotation carried by ExperimentResult and
/// serialized as the "sample" object of hymm-run-report/9.
struct SampleInfo {
  bool enabled = false;   ///< true on sampled runs
  double fraction = 0.0;  ///< requested band fraction
  std::uint64_t seed = 0; ///< band-selection seed
  PhaseSampleEstimate combination;  ///< XW-phase estimate
  PhaseSampleEstimate aggregation;  ///< aggregation-phase estimate

  double cycles_estimate() const {
    return combination.cycles_estimate + aggregation.cycles_estimate;
  }
  /// 1-sigma error of the whole-layer estimate (phases independent).
  double cycles_stderr() const;
  /// Relative half-width of the ~95% interval: 2*sigma / estimate.
  double rel_error_bound() const;
};

/// Samples one phase: each stage in order on `ms`, with its own seeded
/// band selection and warm-start-corrected extrapolation, the stage
/// estimates summed (variances add). Bands run back-to-back on `ms`,
/// so warm state carries across bands, stages and phases as in an
/// exact run. A stage's pinned rows are pinned once around its bands,
/// and their writeback enters the estimate once, unscaled.
/// Deterministic for fixed (stages, options, machine state).
PhaseSampleEstimate sample_phase(MemorySystem& ms,
                                 std::span<const LayerStage> stages,
                                 const SampleOptions& options);

/// The deterministic band selection, exposed for tests: splits
/// [0, extent) into near-equal bands of at most band_target count and
/// returns the stratified seeded choice of round(fraction * bands)
/// bands (at least one), in ascending order.
struct BandSelection {
  std::uint64_t bands_total = 0;
  std::vector<std::pair<NodeId, NodeId>> selected;  ///< [begin, end) spans
};
BandSelection select_sample_bands(NodeId extent, NodeId band_target,
                                  double fraction, std::uint64_t seed);

}  // namespace hymm
