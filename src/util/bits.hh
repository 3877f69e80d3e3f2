/**
 * @file
 * Bit-manipulation helpers used by cache index/tag extraction, the
 * JETTY index generators and the snoop-probe tag scans.
 */

#ifndef JETTY_UTIL_BITS_HH
#define JETTY_UTIL_BITS_HH

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "util/types.hh"

namespace jetty
{

/** Return true when @p v is a (non-zero) power of two. */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Floor of log2(@p v); @p v must be non-zero. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    assert(v != 0);
    unsigned l = 0;
    while (v >>= 1)
        ++l;
    return l;
}

/** Ceiling of log2(@p v); @p v must be non-zero. */
constexpr unsigned
ceilLog2(std::uint64_t v)
{
    assert(v != 0);
    return isPowerOfTwo(v) ? floorLog2(v) : floorLog2(v) + 1;
}

/**
 * Extract the bit field [first, first+count) of @p v (LSB = bit 0).
 * A zero @p count yields 0; fields reaching past bit 63 are truncated.
 */
constexpr std::uint64_t
bitField(std::uint64_t v, unsigned first, unsigned count)
{
    if (count == 0 || first >= 64)
        return 0;
    v >>= first;
    if (count >= 64)
        return v;
    return v & ((std::uint64_t{1} << count) - 1);
}

/** Build a mask with bits [0, count) set. */
constexpr std::uint64_t
maskBits(unsigned count)
{
    return count >= 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << count) - 1;
}

/** Align @p a down to a multiple of the power-of-two @p unit. */
constexpr Addr
alignDown(Addr a, std::uint64_t unit)
{
    assert(isPowerOfTwo(unit));
    return a & ~(unit - 1);
}

/**
 * Home bus of the coherence unit at @p unitAddr on the block-interleaved
 * split snoop interconnect of @p buses (>= 1) logical buses: the unit's
 * L2 block index modulo the bus count, a mask for power-of-two counts.
 * The one statement of the interleave in the library, shared by
 * sim::SmpSystem (transaction routing) and filter::FilterBank (its
 * per-bus event queues).
 */
constexpr unsigned
interleavedBus(Addr unitAddr, unsigned blockOffsetBits, unsigned buses)
{
    const Addr block = unitAddr >> blockOffsetBits;
    return static_cast<unsigned>(isPowerOfTwo(buses) ? block & (buses - 1)
                                                     : block % buses);
}

/**
 * First index in [0, @p n) with words[i] == @p key, else -1: the probe
 * scan of L2Cache::findWay and ExcludeJetty::lookup over one set's packed
 * (tag << 1) | valid words. The paper's configurations scan 1 way (the
 * direct-mapped L2) to 4 (the EJ/VEJ sets), so a vector body has nothing
 * to win (DESIGN.md, "The probe scan").
 */
inline int
findEqU64(const std::uint64_t *words, std::size_t n, std::uint64_t key)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (words[i] == key)
            return static_cast<int>(i);
    }
    return -1;
}

} // namespace jetty

#endif // JETTY_UTIL_BITS_HH
