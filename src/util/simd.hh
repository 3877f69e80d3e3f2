/**
 * @file
 * Width-agnostic SIMD kernel for the packed snoop-probe data paths.
 *
 * The hot tag state lives in contiguous packed words — the L2's
 * (tag << 1) | valid frame words and the exclude-JETTY's (tag << 1) |
 * present entry words — so a set lookup can compare more than one way
 * per step. This header holds that step, the findEqU64 equality scan,
 * with one implementation per ISA tier and a portable scalar reference.
 *
 * Tier selection is two-level. The configure-time level picks the
 * family: the CMake option `JETTY_SIMD=OFF` defines JETTY_SIMD_DISABLED
 * and forces the scalar tier everywhere; otherwise the compiler target
 * decides between x86 (SSE2 baseline), NEON, and scalar. On x86 an AVX2
 * variant is also compiled with the `target("avx2")` function attribute;
 * haveAvx2() detects it once at run time via cpuid, and isaName() /
 * lanesU64() report the tier in every Report's provenance. The scan
 * itself stays a compile-time choice: its inputs are a handful of ways,
 * where an out-of-line dispatch call would cost more than the scan.
 *
 * The kernel is semantically identical across tiers — tests/test_simd.cc
 * asserts each tier against the scalar reference over alignments, tail
 * lengths and duplicate keys — so the simulated numbers never depend on
 * the tier, only the wall clock does.
 *
 * The scalar namespace is always compiled, whatever the active tier: it
 * is both the fallback and the test oracle.
 */

#ifndef JETTY_UTIL_SIMD_HH
#define JETTY_UTIL_SIMD_HH

#include <cstddef>
#include <cstdint>

#if !defined(JETTY_SIMD_DISABLED)
#  if defined(__AVX2__) || defined(__SSE2__) || defined(_M_X64) || \
      defined(_M_AMD64) || defined(__x86_64__)
#    define JETTY_SIMD_X86 1
#    include <immintrin.h>
#    if defined(__AVX2__)
#      define JETTY_SIMD_AVX2_NATIVE 1
#    endif
#  elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#    define JETTY_SIMD_NEON 1
#    include <arm_neon.h>
#  endif
#endif

// The AVX2 kernel is compiled as a target("avx2") function, so it exists
// whenever the compiler can emit it for x86 — not only under -mavx2.
#if defined(JETTY_SIMD_X86) && (defined(__GNUC__) || defined(__clang__))
#  define JETTY_SIMD_AVX2_KERNELS 1
#  if defined(JETTY_SIMD_AVX2_NATIVE)
#    define JETTY_SIMD_TARGET_AVX2
#  else
#    define JETTY_SIMD_TARGET_AVX2 __attribute__((target("avx2")))
#  endif
#endif

namespace jetty::simd
{

/** True when the running CPU offers AVX2 and the build may use it. */
inline bool
haveAvx2()
{
#if defined(JETTY_SIMD_AVX2_NATIVE)
    return true;
#elif defined(JETTY_SIMD_AVX2_KERNELS)
    static const bool have = __builtin_cpu_supports("avx2") != 0;
    return have;
#else
    return false;
#endif
}

/** 64-bit lanes of one vector step on this run (1 = scalar). */
inline unsigned
lanesU64()
{
#if defined(JETTY_SIMD_X86)
    return haveAvx2() ? 4 : 2;
#elif defined(JETTY_SIMD_NEON)
    return 2;
#else
    return 1;
#endif
}

/** The active tier, for report provenance (BENCH_*.json baselines
 *  record which kernels produced their timings). */
inline const char *
isaName()
{
#if defined(JETTY_SIMD_X86)
    return haveAvx2() ? "avx2" : "sse2";
#elif defined(JETTY_SIMD_NEON)
    return "neon";
#else
    return "scalar";
#endif
}

// ---- portable reference kernels (always compiled: fallback + oracle) --

namespace scalar
{

/** First index in [0, n) with words[i] == key, else -1. */
inline int
findEqU64(const std::uint64_t *words, std::size_t n, std::uint64_t key)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (words[i] == key)
            return static_cast<int>(i);
    }
    return -1;
}

} // namespace scalar

// ---- AVX2 kernel (x86) ------------------------------------------------

#if defined(JETTY_SIMD_AVX2_KERNELS)

namespace avx2
{

JETTY_SIMD_TARGET_AVX2 inline int
findEqU64(const std::uint64_t *words, std::size_t n, std::uint64_t key)
{
    const __m256i keyv =
        _mm256_set1_epi64x(static_cast<long long>(key));
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(words + i));
        const int m = _mm256_movemask_pd(
            _mm256_castsi256_pd(_mm256_cmpeq_epi64(v, keyv)));
        if (m)
            return static_cast<int>(i) + __builtin_ctz(m);
    }
    const int tail = scalar::findEqU64(words + i, n - i, key);
    return tail < 0 ? -1 : static_cast<int>(i) + tail;
}

} // namespace avx2

#endif // JETTY_SIMD_AVX2_KERNELS

// ---- dispatch kernels (active tier) -----------------------------------

#if defined(JETTY_SIMD_X86)

inline int
findEqU64(const std::uint64_t *words, std::size_t n, std::uint64_t key)
{
#if defined(JETTY_SIMD_AVX2_NATIVE)
    return avx2::findEqU64(words, n, key);
#else
    // Per-lookup scan over a handful of ways: always the inline SSE2
    // body — a run-time dispatch call costs more than it saves here.
    const __m128i keyv = _mm_set1_epi64x(static_cast<long long>(key));
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(words + i));
        // SSE2 has no 64-bit compare: AND the 32-bit equality halves.
        const __m128i eq32 = _mm_cmpeq_epi32(v, keyv);
        const __m128i eq64 = _mm_and_si128(
            eq32, _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
        const int m = _mm_movemask_pd(_mm_castsi128_pd(eq64));
        if (m)
            return static_cast<int>(i) + __builtin_ctz(m);
    }
    const int tail = scalar::findEqU64(words + i, n - i, key);
    return tail < 0 ? -1 : static_cast<int>(i) + tail;
#endif
}

#elif defined(JETTY_SIMD_NEON)

inline int
findEqU64(const std::uint64_t *words, std::size_t n, std::uint64_t key)
{
    const uint64x2_t keyv = vdupq_n_u64(key);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const uint64x2_t eq = vceqq_u64(vld1q_u64(words + i), keyv);
        if (vgetq_lane_u64(eq, 0))
            return static_cast<int>(i);
        if (vgetq_lane_u64(eq, 1))
            return static_cast<int>(i) + 1;
    }
    const int tail = scalar::findEqU64(words + i, n - i, key);
    return tail < 0 ? -1 : static_cast<int>(i) + tail;
}

#else  // portable scalar tier

inline int
findEqU64(const std::uint64_t *words, std::size_t n, std::uint64_t key)
{
    return scalar::findEqU64(words, n, key);
}

#endif

} // namespace jetty::simd

#endif // JETTY_UTIL_SIMD_HH
