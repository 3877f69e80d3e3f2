/**
 * @file
 * Bus transaction record and snoop response plumbing shared between the
 * bus, the processor nodes, and the statistics machinery.
 */

#ifndef JETTY_COHERENCE_BUS_TXN_HH
#define JETTY_COHERENCE_BUS_TXN_HH

#include <cstdint>

#include "coherence/moesi.hh"
#include "util/types.hh"

namespace jetty::coherence
{

/** One transaction placed on the snoop interconnect by a requester. */
struct BusTransaction
{
    BusOp op = BusOp::BusRead;
    Addr unitAddr = 0;     //!< coherence-unit-aligned address
    ProcId requester = 0;  //!< issuing processor

    /** Logical snoop bus the transaction was routed to: with an
     *  address-interleaved split interconnect every transaction for one
     *  unit lands on the same bus (util/bits.hh interleavedBus). 0 on the
     *  classic single shared bus. */
    unsigned busId = 0;
};

/** Aggregate view of all snoop responses to one transaction. */
struct BusResponse
{
    unsigned remoteCopies = 0;  //!< caches (or WBs) holding a valid copy
    bool suppliedByCache = false;  //!< some cache (not memory) sourced data
};

} // namespace jetty::coherence

#endif // JETTY_COHERENCE_BUS_TXN_HH
