/// @file
/// Stable content digests. The sweep executor and the combination
/// checkpoint key (core/accelerator.hpp) pair a graph fingerprint
/// with a config hash to decide when two cells share work, and the
/// run report's "tune" object names the timing config by its hash.
/// Both are plain FNV/splitmix-style 64-bit digests: stable across
/// processes and platforms (they hash the logical contents, never
/// pointers or iteration order), and cheap relative to even one
/// simulation.
#pragma once

#include <cstdint>
#include <string>

#include "common/config.hpp"
#include "graph/csr.hpp"

namespace hymm {

/// Order-sensitive digest of a sparse matrix's full logical content:
/// dimensions, row pointers, column indices and values (hashed by bit
/// pattern, so -0.0 and 0.0 differ — fingerprints are identity checks,
/// not numeric comparisons). Two CsrMatrix objects compare equal iff
/// their fingerprints match (modulo 64-bit collisions).
std::uint64_t graph_fingerprint(const CsrMatrix& matrix);

/// Digest of every AcceleratorConfig field that can change simulated
/// cycle counts, EXCEPT `tiling_threshold` — the threshold only splits
/// the aggregation phase, so cells that differ in it alone still share
/// their combination phase. The observability knob
/// (obs_sample_interval) is excluded too: it never affects timing.
std::uint64_t tuning_config_hash(const AcceleratorConfig& config);

/// Combines two digests (e.g. a graph fingerprint with a weights-shape
/// digest) into one, non-commutatively.
std::uint64_t fingerprint_combine(std::uint64_t a, std::uint64_t b);

/// Formats a digest as "0x%016x". JSON numbers are doubles (53-bit
/// integer range), so 64-bit digests are written as hex strings.
std::string fingerprint_hex(std::uint64_t digest);

}  // namespace hymm
