/**
 * @file
 * Exhaustive scalar-vs-dispatch equivalence of the util/simd.hh kernel.
 *
 * The simulated numbers must never depend on the active SIMD tier
 * (DESIGN.md), so the dispatch kernel is checked bit-for-bit against
 * the always-compiled scalar reference across the axes where vector
 * implementations classically diverge:
 *  - every misalignment of the input array within a cache line (the
 *    vector scans use unaligned loads; nothing may assume 16/32 B bases);
 *  - every length around and below one vector width, including 0 and 1,
 *    so tail handling and the scalar fallback loop are both exercised;
 *  - full-width 56-bit physical addresses (the largest physAddrBits the
 *    simulator configures), so no lane narrows a key;
 *  - first-match semantics of findEqU64 with duplicate keys (the vector
 *    scan must report the lowest index, as the replacement policies
 *    depend on it).
 *
 * On x86 the AVX2 variant is additionally tested directly whenever the
 * host offers AVX2, so a build whose compile-time tier is SSE2 still
 * verifies it.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.hh"
#include "util/simd.hh"

using namespace jetty;

namespace
{

constexpr std::uint64_t kAddrMask56 = (std::uint64_t{1} << 56) - 1;

/** A buffer with a controlled byte misalignment of its u64 base. */
struct Misaligned
{
    // The kernels take uint64_t*, so offsets are in whole words; the
    // interesting misalignment axis for unaligned vector loads is the
    // word offset within a 64-byte line (0..7).
    std::vector<std::uint64_t> storage;
    std::uint64_t *base = nullptr;

    Misaligned(std::size_t words, unsigned wordOffset, Rng &rng)
        : storage(words + 8)
    {
        for (auto &w : storage)
            w = rng.next();
        base = storage.data() + (wordOffset & 7);
    }
};

using FindFn = int (*)(const std::uint64_t *, std::size_t,
                       std::uint64_t);

void
checkFindEq(FindFn fn, const char *what)
{
    Rng rng(12345);
    for (unsigned offset = 0; offset < 8; ++offset) {
        for (std::size_t n = 0; n <= 19; ++n) {
            Misaligned buf(n, offset, rng);
            // Mask every word to 57 bits ((tag << 1) | present with a
            // 56-bit tag): the packed-word shape the callers scan.
            for (std::size_t i = 0; i < n; ++i)
                buf.base[i] &= (kAddrMask56 << 1) | 1;

            // Absent key.
            const std::uint64_t missing = ~std::uint64_t{0};
            EXPECT_EQ(fn(buf.base, n, missing),
                      simd::scalar::findEqU64(buf.base, n, missing))
                << what << " off=" << offset << " n=" << n;

            // Every present key, and first-match on duplicates.
            for (std::size_t hit = 0; hit < n; ++hit) {
                const std::uint64_t key = buf.base[hit];
                const int want =
                    simd::scalar::findEqU64(buf.base, n, key);
                EXPECT_EQ(fn(buf.base, n, key), want)
                    << what << " off=" << offset << " n=" << n
                    << " hit=" << hit;
            }
            if (n >= 2) {
                // Force a duplicate pair straddling a vector boundary.
                buf.base[n - 1] = buf.base[0];
                EXPECT_EQ(fn(buf.base, n, buf.base[0]), 0)
                    << what << " duplicate, off=" << offset
                    << " n=" << n;
            }
        }
    }
}

} // namespace

TEST(Simd, DispatchFindEqMatchesScalar)
{
    checkFindEq(&simd::findEqU64, "dispatch");
}

#if defined(JETTY_SIMD_AVX2_KERNELS)
// The AVX2 kernel, exercised directly whenever the host supports it —
// even when the compile-time tier is SSE2.
TEST(Simd, Avx2FindEqMatchesScalar)
{
    if (!simd::haveAvx2())
        GTEST_SKIP() << "host lacks AVX2";
    checkFindEq(&simd::avx2::findEqU64, "avx2");
}
#endif

TEST(Simd, ProvenanceIsConsistent)
{
    // isaName()/lanesU64() feed the Report envelope; their pairing is
    // fixed per tier.
    const std::string isa = simd::isaName();
    const unsigned lanes = simd::lanesU64();
    if (isa == "avx2")
        EXPECT_EQ(lanes, 4u);
    else if (isa == "sse2" || isa == "neon")
        EXPECT_EQ(lanes, 2u);
    else
        EXPECT_EQ(lanes, 1u);
#if defined(JETTY_SIMD_DISABLED)
    EXPECT_EQ(isa, "scalar");
#endif
}
