// Portability shim for the SIMD-friendly hot paths (the EMA solver's rows in
// src/core/ema.cpp and the SoA slot snapshot in src/gateway/slot_context.hpp).
//
// The kernels themselves are written as plain, branch-light loops over
// contiguous arrays and rely on the compiler's autovectorizer — no intrinsics,
// so every target the toolchain supports keeps working. What this header pins
// down is the part the autovectorizer cannot supply on its own:
//
//   * `kSimdAlign`-aligned storage (`AlignedVec`) so the vectorizer can emit
//     aligned loads/stores and rows never straddle cache lines, and
//   * `JSTREAM_RESTRICT` so independent input/output streams are visibly
//     alias-free inside the kernels.
//
// The build adds target flags per translation unit (see src/core/CMakeLists:
// ema.cpp is compiled with wider vector units when the compiler supports
// them, always with FP contraction off — fused multiply-adds round
// differently and would silently move the EMA decisions the golden digests
// pin).
#pragma once

#include <cstddef>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

#if defined(_MSC_VER)
#define JSTREAM_RESTRICT __restrict
#elif defined(__GNUC__) || defined(__clang__)
#define JSTREAM_RESTRICT __restrict__
#else
#define JSTREAM_RESTRICT
#endif

namespace jstream::simd {

/// Alignment of every hot-path array: one cache line, and wide enough for
/// 512-bit vector loads should the build enable them.
inline constexpr std::size_t kSimdAlign = 64;

/// Minimal aligned allocator (C++17 aligned operator new). Deliberately tiny:
/// no fancy rebinding logic beyond what std::vector needs, so clang-tidy and
/// the counting-operator-new test binary both see plain `new`/`delete`.
template <typename T>
class AlignedAllocator {
 public:
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] T* allocate(std::size_t count) {
    if (count > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_alloc();
    }
    return static_cast<T*>(::operator new(count * sizeof(T), std::align_val_t{kSimdAlign}));
  }

  void deallocate(T* ptr, std::size_t /*count*/) noexcept {
    ::operator delete(ptr, std::align_val_t{kSimdAlign});
  }

  template <typename U>
  [[nodiscard]] bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  [[nodiscard]] bool operator!=(const AlignedAllocator<U>&) const noexcept {
    return false;
  }
};

/// Contiguous cache-line-aligned array; drop-in std::vector replacement for
/// the SoA slot state and the DP rows. Grow-only usage keeps it off the
/// steady-state allocation path (pinned by tests/perf/test_zero_alloc_slot).
template <typename T>
using AlignedVec = std::vector<T, AlignedAllocator<T>>;

}  // namespace jstream::simd
