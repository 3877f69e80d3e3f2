/**
 * @file
 * Fundamental scalar types shared by every jetty library.
 */

#ifndef JETTY_UTIL_TYPES_HH
#define JETTY_UTIL_TYPES_HH

#include <cstdint>
#include <string>

namespace jetty
{

/** A physical memory address. The paper assumes a 36--40 bit physical
 *  address space; we carry addresses in 64 bits and let each structure
 *  decide how many bits it stores. */
using Addr = std::uint64_t;

/** Simulation tick used for interleaving and ordering, not detailed timing. */
using Tick = std::uint64_t;

/** Identifier of a processor node in the SMP (0-based). */
using ProcId = std::uint32_t;

/** Kind of a processor-initiated memory access. */
enum class AccessType : std::uint8_t
{
    Read,
    Write,
};

} // namespace jetty

#endif // JETTY_UTIL_TYPES_HH
