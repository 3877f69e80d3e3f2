/**
 * @file
 * Width-agnostic SIMD kernels for the packed snoop-probe data paths.
 *
 * The hot filter state lives in contiguous packed words — the L2's
 * (tag << 1) | valid frame words, the exclude-JETTY's (tag << 1) |
 * present entry words, the include-JETTY's 64-per-word p-bit array, the
 * write-back buffer's 64-bit Bloom signature — so the batched replay
 * loops can scan it more than one element per step. This header holds
 * those steps: three tiny kernels (equality scan, p-bit
 * gather-accumulate, one-hot multiplicative hash) with one
 * implementation per ISA tier and a portable scalar reference.
 *
 * Tier selection is two-level. The configure-time level picks the
 * family: the CMake option `JETTY_SIMD=OFF` defines JETTY_SIMD_DISABLED
 * and forces the scalar tier everywhere; otherwise the compiler target
 * decides between x86 (SSE2 baseline), NEON, and scalar. On x86 the
 * batch kernels additionally carry an AVX2 variant compiled with the
 * `target("avx2")` function attribute and selected once at run time via
 * cpuid — x86-64 builds with default flags (no -march) still run the
 * gather/variable-shift kernels at full width on AVX2 hardware, while
 * the same binary falls back to SSE2/scalar elsewhere. The per-element
 * findEqU64 scan stays a compile-time choice: its inputs are a handful
 * of ways, where an out-of-line dispatch call would cost more than the
 * scan.
 *
 * Every kernel is semantically identical across tiers —
 * tests/test_simd.cc asserts the dispatch tier against the scalar
 * reference over alignments, tail lengths and 56-bit addresses — so the
 * simulated numbers never depend on the tier, only the wall clock does.
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

// The AVX2 batch kernels are compiled as target("avx2") functions and
// picked at run time, so they exist whenever the compiler can emit them
// for x86 — not only under -mavx2.
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

/** 64-bit lanes of one batch-kernel step on this run (1 = scalar). */
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

/** Read-prefetch @p p into a near cache level; a hint, never semantics. */
inline void
prefetchRead(const void *p)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, 0, 1);
#else
    (void)p;
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

/**
 * Include-JETTY p-bit lookup for one sub-array over @p n addresses:
 * slot = ((addr >> shift) & mask) | base, and absent[k] |= 1 when the
 * slot's packed p-bit is clear. Accumulating |= lets the caller fold
 * the N sub-arrays into one per-address "guaranteed absent" verdict.
 */
inline void
pbitAbsentAccum(const std::uint64_t *pbits, const std::uint64_t *addrs,
                std::size_t n, unsigned shift, std::uint64_t mask,
                std::uint64_t base, std::uint8_t *absent)
{
    for (std::size_t k = 0; k < n; ++k) {
        const std::uint64_t slot = ((addrs[k] >> shift) & mask) | base;
        const std::uint64_t bit = (pbits[slot >> 6] >> (slot & 63)) & 1;
        absent[k] |= static_cast<std::uint8_t>(bit ^ 1);
    }
}

/**
 * One-hot multiplicative hash (the write-back buffer's Bloom-signature
 * bit) over @p n keys: out[k] = 1 << (((keys[k] >> preShift) * mul)
 * >> postShift). @p postShift must be >= 58 so the shift amount fits a
 * 64-bit mask.
 */
inline void
oneHotHash(const std::uint64_t *keys, std::size_t n, unsigned preShift,
           std::uint64_t mul, unsigned postShift, std::uint64_t *out)
{
    for (std::size_t k = 0; k < n; ++k) {
        out[k] = std::uint64_t{1}
                 << (((keys[k] >> preShift) * mul) >> postShift);
    }
}

} // namespace scalar

// ---- AVX2 batch kernels (x86: run-time selected) ----------------------

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

JETTY_SIMD_TARGET_AVX2 inline void
pbitAbsentAccum(const std::uint64_t *pbits, const std::uint64_t *addrs,
                std::size_t n, unsigned shift, std::uint64_t mask,
                std::uint64_t base, std::uint8_t *absent)
{
    const __m128i shiftv = _mm_cvtsi32_si128(static_cast<int>(shift));
    const __m256i maskv =
        _mm256_set1_epi64x(static_cast<long long>(mask));
    const __m256i basev =
        _mm256_set1_epi64x(static_cast<long long>(base));
    const __m256i onev = _mm256_set1_epi64x(1);
    const __m256i c63 = _mm256_set1_epi64x(63);
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        const __m256i av = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(addrs + k));
        const __m256i slot = _mm256_or_si256(
            _mm256_and_si256(_mm256_srl_epi64(av, shiftv), maskv), basev);
        const __m256i word = _mm256_i64gather_epi64(
            reinterpret_cast<const long long *>(pbits),
            _mm256_srli_epi64(slot, 6), 8);
        const __m256i bit = _mm256_and_si256(
            _mm256_srlv_epi64(word, _mm256_and_si256(slot, c63)), onev);
        alignas(32) std::uint64_t lane[4];
        _mm256_store_si256(reinterpret_cast<__m256i *>(lane),
                           _mm256_xor_si256(bit, onev));
        absent[k + 0] |= static_cast<std::uint8_t>(lane[0]);
        absent[k + 1] |= static_cast<std::uint8_t>(lane[1]);
        absent[k + 2] |= static_cast<std::uint8_t>(lane[2]);
        absent[k + 3] |= static_cast<std::uint8_t>(lane[3]);
    }
    scalar::pbitAbsentAccum(pbits, addrs + k, n - k, shift, mask, base,
                            absent + k);
}

JETTY_SIMD_TARGET_AVX2 inline void
oneHotHash(const std::uint64_t *keys, std::size_t n, unsigned preShift,
           std::uint64_t mul, unsigned postShift, std::uint64_t *out)
{
    const __m128i prev = _mm_cvtsi32_si128(static_cast<int>(preShift));
    const __m128i postv = _mm_cvtsi32_si128(static_cast<int>(postShift));
    const __m256i mulv =
        _mm256_set1_epi64x(static_cast<long long>(mul));
    const __m256i onev = _mm256_set1_epi64x(1);
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        const __m256i a = _mm256_srl_epi64(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(keys + k)),
            prev);
        // 64x64 -> low 64 multiply from 32-bit partial products (no
        // vpmullq below AVX-512): lo*lo + ((lo*hi + hi*lo) << 32).
        const __m256i cross = _mm256_add_epi64(
            _mm256_mul_epu32(a, _mm256_srli_epi64(mulv, 32)),
            _mm256_mul_epu32(_mm256_srli_epi64(a, 32), mulv));
        const __m256i prod = _mm256_add_epi64(
            _mm256_mul_epu32(a, mulv), _mm256_slli_epi64(cross, 32));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(out + k),
            _mm256_sllv_epi64(onev, _mm256_srl_epi64(prod, postv)));
    }
    scalar::oneHotHash(keys + k, n - k, preShift, mul, postShift, out + k);
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

inline void
pbitAbsentAccum(const std::uint64_t *pbits, const std::uint64_t *addrs,
                std::size_t n, unsigned shift, std::uint64_t mask,
                std::uint64_t base, std::uint8_t *absent)
{
#if defined(JETTY_SIMD_AVX2_KERNELS)
    if (haveAvx2()) {
        avx2::pbitAbsentAccum(pbits, addrs, n, shift, mask, base, absent);
        return;
    }
#endif
    // No gather below AVX2: the p-bit lookup stays scalar.
    scalar::pbitAbsentAccum(pbits, addrs, n, shift, mask, base, absent);
}

inline void
oneHotHash(const std::uint64_t *keys, std::size_t n, unsigned preShift,
           std::uint64_t mul, unsigned postShift, std::uint64_t *out)
{
#if defined(JETTY_SIMD_AVX2_KERNELS)
    if (haveAvx2()) {
        avx2::oneHotHash(keys, n, preShift, mul, postShift, out);
        return;
    }
#endif
    // 64-bit multiply and per-lane variable shift need AVX2: scalar.
    scalar::oneHotHash(keys, n, preShift, mul, postShift, out);
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

/** NEON has no gather: the p-bit lookup stays scalar on this tier. */
inline void
pbitAbsentAccum(const std::uint64_t *pbits, const std::uint64_t *addrs,
                std::size_t n, unsigned shift, std::uint64_t mask,
                std::uint64_t base, std::uint8_t *absent)
{
    scalar::pbitAbsentAccum(pbits, addrs, n, shift, mask, base, absent);
}

inline void
oneHotHash(const std::uint64_t *keys, std::size_t n, unsigned preShift,
           std::uint64_t mul, unsigned postShift, std::uint64_t *out)
{
    scalar::oneHotHash(keys, n, preShift, mul, postShift, out);
}

#else  // portable scalar tier

inline int
findEqU64(const std::uint64_t *words, std::size_t n, std::uint64_t key)
{
    return scalar::findEqU64(words, n, key);
}

inline void
pbitAbsentAccum(const std::uint64_t *pbits, const std::uint64_t *addrs,
                std::size_t n, unsigned shift, std::uint64_t mask,
                std::uint64_t base, std::uint8_t *absent)
{
    scalar::pbitAbsentAccum(pbits, addrs, n, shift, mask, base, absent);
}

inline void
oneHotHash(const std::uint64_t *keys, std::size_t n, unsigned preShift,
           std::uint64_t mul, unsigned postShift, std::uint64_t *out)
{
    scalar::oneHotHash(keys, n, preShift, mul, postShift, out);
}

#endif

} // namespace jetty::simd

#endif // JETTY_UTIL_SIMD_HH
