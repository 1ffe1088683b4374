#include "sim/checkpoint.hpp"

#include <bit>
#include <cstdio>
#include <utility>

#include "common/check.hpp"

namespace hymm {

namespace {

constexpr std::uint64_t kMagic = 0x48794d4d434b5031ULL;  // "HyMMCKP1"

std::uint64_t fnv1a64(const std::byte* data, std::size_t size) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= static_cast<std::uint64_t>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

void StateWriter::put_u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    put_u8(static_cast<std::uint8_t>(v >> shift));
  }
}

void StateWriter::put_u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    put_u8(static_cast<std::uint8_t>(v >> shift));
  }
}

void StateWriter::put_f32(float v) { put_u32(std::bit_cast<std::uint32_t>(v)); }

void StateWriter::put_f64(double v) {
  put_u64(std::bit_cast<std::uint64_t>(v));
}

std::uint8_t StateReader::get_u8() {
  HYMM_CHECK_MSG(pos_ < size_, "checkpoint payload truncated");
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t StateReader::get_u32() {
  std::uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    v |= static_cast<std::uint32_t>(get_u8()) << shift;
  }
  return v;
}

std::uint64_t StateReader::get_u64() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    v |= static_cast<std::uint64_t>(get_u8()) << shift;
  }
  return v;
}

float StateReader::get_f32() { return std::bit_cast<float>(get_u32()); }

double StateReader::get_f64() { return std::bit_cast<double>(get_u64()); }

std::string checkpoint_key_hex(const CheckpointKey& key) {
  char buf[2 * 18 + 2];
  std::snprintf(buf, sizeof(buf), "0x%016llx_0x%016llx",
                static_cast<unsigned long long>(key.workload),
                static_cast<unsigned long long>(key.config));
  return buf;
}

std::vector<std::byte> seal_checkpoint(const CheckpointKey& key,
                                       std::vector<std::byte> payload) {
  StateWriter header;
  header.put_u64(kMagic);
  header.put_u64(key.workload);
  header.put_u64(key.config);
  header.put_u64(static_cast<std::uint64_t>(payload.size()));
  std::vector<std::byte> blob = header.take();
  blob.insert(blob.end(), payload.begin(), payload.end());
  StateWriter footer;
  footer.put_u64(fnv1a64(payload.data(), payload.size()));
  const std::vector<std::byte>& tail = footer.bytes();
  blob.insert(blob.end(), tail.begin(), tail.end());
  return blob;
}

bool open_checkpoint(const std::vector<std::byte>& blob,
                     const CheckpointKey& key, const std::byte** payload,
                     std::size_t* payload_size) {
  constexpr std::size_t kHeaderBytes = 4 * 8;
  constexpr std::size_t kFooterBytes = 8;
  if (blob.size() < kHeaderBytes + kFooterBytes) return false;
  StateReader header(blob.data(), kHeaderBytes);
  if (header.get_u64() != kMagic) return false;
  if (header.get_u64() != key.workload) return false;
  if (header.get_u64() != key.config) return false;
  const std::uint64_t size = header.get_u64();
  if (size != blob.size() - kHeaderBytes - kFooterBytes) return false;
  const std::byte* body = blob.data() + kHeaderBytes;
  StateReader footer(blob.data() + kHeaderBytes + size, kFooterBytes);
  if (footer.get_u64() != fnv1a64(body, size)) return false;
  *payload = body;
  *payload_size = static_cast<std::size_t>(size);
  return true;
}

}  // namespace hymm
