// Warm-state checkpoint/restore: serialize the full simulator state
// at the combination/aggregation phase boundary so sweep cells that
// share a combination phase (sweep/sweep.hpp) simulate it once and
// restore the warm DMB/LSQ/DRAM state instead.
//
// A checkpoint is a self-describing binary blob:
//
//   magic "HYMMCKP1" | key.workload | key.config | payload bytes |
//   fnv1a64(payload)
//
// The payload is the MemorySystem state (clock, stats, DRAM channel,
// DMB directory + recency order, LSQ entries + forwarding window, SMQ
// tag counter, PE issue cycle) followed by the host-side XW values.
// Restoring into a fresh MemorySystem is bit-identical to the cold
// run continued past the same cycle: every future cycle, stall bucket
// and DRAM byte matches (DCHECKed when a blob is sealed via a
// serialize -> restore -> re-serialize round trip, and locked by
// tests/test_checkpoint.cpp and tests/test_sweep.cpp).
//
// Keys use the content fingerprints of graph/fingerprint.hpp:
// `workload` digests the streamed feature matrix, the weight values
// and the combination engine kind; `config` is tuning_config_hash,
// which deliberately excludes the tiling threshold — the threshold
// only affects aggregation. A blob that fails validation is ignored
// (cold-run fallback), never fatal; see docs/performance.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace hymm {

/// Little-endian binary writer for checkpoint payloads.
class StateWriter {
 public:
  void put_u8(std::uint8_t v) { bytes_.push_back(static_cast<std::byte>(v)); }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_f32(float v);
  void put_f64(double v);
  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  const std::vector<std::byte>& bytes() const { return bytes_; }
  std::vector<std::byte> take() { return std::move(bytes_); }

 private:
  std::vector<std::byte> bytes_;
};

/// Bounds-checked reader over a checkpoint payload. Out-of-bounds
/// reads throw CheckError; callers validate the blob checksum first,
/// so a throw indicates a version/logic bug, not disk corruption.
class StateReader {
 public:
  StateReader(const std::byte* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  float get_f32();
  double get_f64();
  bool get_bool() { return get_u8() != 0; }
  bool exhausted() const { return pos_ == size_; }

 private:
  const std::byte* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Identifies one combination-phase warm state: `workload` digests the
/// streamed inputs and engine kind, `config` the timing model.
struct CheckpointKey {
  std::uint64_t workload = 0;
  std::uint64_t config = 0;

  friend bool operator==(const CheckpointKey&, const CheckpointKey&) = default;
};

/// "0x<workload>_0x<config>" — used in run reports.
std::string checkpoint_key_hex(const CheckpointKey& key);

/// A sealed checkpoint, shared read-only between the run that built
/// it and the runs that restore it.
using CheckpointBlob = std::shared_ptr<const std::vector<std::byte>>;

/// Frames a payload into a full checkpoint blob (magic + key +
/// length + payload + checksum).
std::vector<std::byte> seal_checkpoint(const CheckpointKey& key,
                                       std::vector<std::byte> payload);

/// Validates magic, key echo, length and checksum; returns a view
/// (pointer/size into `blob`) of the payload, or false when the blob
/// is corrupted or keyed differently.
bool open_checkpoint(const std::vector<std::byte>& blob,
                     const CheckpointKey& key, const std::byte** payload,
                     std::size_t* payload_size);

}  // namespace hymm
