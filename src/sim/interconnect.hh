/**
 * @file
 * Address-interleaved split snoop interconnect.
 *
 * Real SMP servers of the paper's class split the snoop fabric into N
 * logical buses, interleaved by address, so independent transactions
 * proceed in parallel. The functional model here keeps every transaction
 * atomic — the interleave maps each coherence unit to exactly one bus,
 * so all transactions for a unit serialize on its home bus and the
 * coherence outcome is independent of the bus count (asserted against
 * the golden model for snoopBuses in {1, 2, 4}).
 *
 * What the bus count *does* change:
 *  - per-bus occupancy statistics (SimStats::perBus /
 *    busSnoopTagProbes), the input of the latency model's contention
 *    term and the accountant's per-bus snoop energy split;
 *  - the order in which run()'s chunk-end flush replays the filter
 *    banks' queued observations (FilterBank::flushDeferred applies
 *    queues bus-major), so per-filter *coverage* of a run() may shift
 *    with the bus count while the safety guarantee is untouched
 *    (DESIGN.md, "Interconnect & snoop batching"); step() replays each
 *    event as it is queued, in capture order at every bus count.
 *
 * The interleave granularity is the L2 *block*: every filter-visible
 * structure (EJ/VEJ block entries, IJ block-address slices, sibling
 * subblocks sharing a tag) is block-indexed, so routing whole blocks to
 * one bus keeps each structure's update stream totally ordered. The
 * routing function is busOf(): for a unit address U,
 * bus = (U >> blockOffsetBits) % snoopBuses — deterministic, checked
 * online by the CheckerSuite's bus-routing invariant and offline
 * against GoldenSmp's independently restated interleave.
 */

#ifndef JETTY_SIM_INTERCONNECT_HH
#define JETTY_SIM_INTERCONNECT_HH

#include <cstdint>

#include "util/bits.hh"
#include "util/types.hh"

namespace jetty::sim
{

/** Occupancy counters of one logical snoop bus (SimStats::perBus). */
struct BusStats
{
    std::uint64_t transactions = 0;  //!< transactions routed to this bus
    std::uint64_t reads = 0;         //!< BusRead share
    std::uint64_t readXs = 0;        //!< BusReadX share
    std::uint64_t upgrades = 0;      //!< BusUpgrade share
};

/** The split snoop interconnect's routing fabric: N logical buses,
 *  block-interleaved. Occupancy is counted in SimStats so it travels
 *  with every SweepResult. */
class Interconnect
{
  public:
    /**
     * @param buses           logical snoop buses (>= 1; 1 = the classic
     *                        single shared bus).
     * @param blockOffsetBits log2 of the L2 block size — the interleave
     *                        granularity (see the file comment).
     */
    Interconnect(unsigned buses, unsigned blockOffsetBits);

    /** Number of logical buses. */
    unsigned buses() const { return buses_; }

    /** Home bus of the unit at @p unitAddr (util/bits.hh
     *  interleavedBus, the interleave the filter banks queue by). */
    unsigned
    busOf(Addr unitAddr) const
    {
        return interleavedBus(unitAddr, blockOffsetBits_, buses_);
    }

  private:
    unsigned buses_;
    unsigned blockOffsetBits_;
};

} // namespace jetty::sim

#endif // JETTY_SIM_INTERCONNECT_HH
