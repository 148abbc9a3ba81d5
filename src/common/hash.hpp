// Non-cryptographic 64-bit content hashing for the run digests.
//
// metrics_digest (sim/metrics) and service_digest (session/service) hash a
// little-endian byte image of a run's results, so the golden-run tests and
// the perf gate's bit-identity checks compare one 64-bit value per run. The
// hash is the XXH64 construction (Yann Collet's xxHash, public domain):
// 4-lane striped multiply-rotate over 32-byte blocks with an avalanche
// finalizer, ~40 lines of dependency-free C++. Stable across platforms:
// input is consumed as little-endian 64/32-bit words, so a digest pinned on
// one machine reproduces on another.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace jstream {

namespace hash_detail {

inline constexpr std::uint64_t kXxPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kXxPrime2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kXxPrime3 = 0x165667B19E3779F9ULL;
inline constexpr std::uint64_t kXxPrime4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr std::uint64_t kXxPrime5 = 0x27D4EB2F165667C5ULL;

/// Unaligned little-endian loads. This library only targets little-endian
/// hosts, so a memcpy load IS the little-endian read.
inline std::uint64_t load64(const unsigned char* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint64_t load32(const unsigned char* p) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint64_t xx_round(std::uint64_t acc, std::uint64_t input) noexcept {
  acc += input * kXxPrime2;
  acc = std::rotl(acc, 31);
  return acc * kXxPrime1;
}

inline std::uint64_t xx_merge_round(std::uint64_t acc, std::uint64_t val) noexcept {
  acc ^= xx_round(0, val);
  return acc * kXxPrime1 + kXxPrime4;
}

}  // namespace hash_detail

/// XXH64 of `len` bytes at `data` under `seed`. One-shot; the digests hash
/// one contiguous byte image, so no streaming state is needed.
[[nodiscard]] inline std::uint64_t xxh64(const void* data, std::size_t len,
                                         std::uint64_t seed = 0) noexcept {
  using namespace hash_detail;
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + len;
  std::uint64_t h = 0;

  if (len >= 32) {
    std::uint64_t v1 = seed + kXxPrime1 + kXxPrime2;
    std::uint64_t v2 = seed + kXxPrime2;
    std::uint64_t v3 = seed + 0;
    std::uint64_t v4 = seed - kXxPrime1;
    const unsigned char* const limit = end - 32;
    do {
      v1 = xx_round(v1, load64(p));
      v2 = xx_round(v2, load64(p + 8));
      v3 = xx_round(v3, load64(p + 16));
      v4 = xx_round(v4, load64(p + 24));
      p += 32;
    } while (p <= limit);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    h = xx_merge_round(h, v1);
    h = xx_merge_round(h, v2);
    h = xx_merge_round(h, v3);
    h = xx_merge_round(h, v4);
  } else {
    h = seed + kXxPrime5;
  }

  h += static_cast<std::uint64_t>(len);
  while (p + 8 <= end) {
    h ^= xx_round(0, load64(p));
    h = std::rotl(h, 27) * kXxPrime1 + kXxPrime4;
    p += 8;
  }
  if (p + 4 <= end) {
    h ^= load32(p) * kXxPrime1;
    h = std::rotl(h, 23) * kXxPrime2 + kXxPrime3;
    p += 4;
  }
  while (p < end) {
    h ^= (*p) * kXxPrime5;
    h = std::rotl(h, 11) * kXxPrime1;
    ++p;
  }

  h ^= h >> 33;
  h *= kXxPrime2;
  h ^= h >> 29;
  h *= kXxPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace jstream
