/**
 * @file
 * Statistics gathered by the SMP simulation: everything needed to
 * regenerate Tables 2 and 3 and to feed the energy accountant
 * (local/snoop access mixes) and Figures 4--6 (per-filter coverage lives
 * in the FilterBank).
 */

#ifndef JETTY_SIM_SIM_STATS_HH
#define JETTY_SIM_SIM_STATS_HH

#include <cstdint>
#include <vector>

#include "energy/accountant.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace jetty::sim
{

/** Per-processor counters. */
struct ProcStats
{
    // Processor reference stream.
    std::uint64_t accesses = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;

    // L1 behaviour.
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l1Writebacks = 0;        //!< dirty L1 victims sent to L2
    std::uint64_t l1SnoopInvalidations = 0;

    // Locally initiated L2 behaviour. Local accesses are L1 misses plus
    // L1 writebacks (Table 2's definition).
    std::uint64_t l2LocalAccesses = 0;
    std::uint64_t l2LocalHits = 0;
    std::uint64_t l2Fills = 0;
    std::uint64_t l2Evictions = 0;   //!< valid units displaced by fills
    std::uint64_t upgradesSilent = 0; //!< E->M without a bus transaction

    // Bus activity initiated by this processor.
    std::uint64_t busReads = 0;
    std::uint64_t busReadXs = 0;
    std::uint64_t busUpgrades = 0;
    std::uint64_t busWritebacks = 0;

    // This processor's L2 as a snoop target.
    std::uint64_t snoopTagProbes = 0;  //!< snoop-induced tag accesses
    std::uint64_t snoopHits = 0;       //!< unit was valid here
    std::uint64_t snoopMisses = 0;     //!< unit was absent here
    std::uint64_t snoopSupplies = 0;   //!< this cache sourced the data

    // Write-back buffer.
    std::uint64_t wbInsertions = 0;
    std::uint64_t wbSnoopsHit = 0;   //!< snoops satisfied by the WB
    std::uint64_t wbReclaims = 0;    //!< own misses satisfied by the WB
    std::uint64_t wbDrains = 0;      //!< entries written to memory

    /** Energy-model view of this processor's L2 traffic. */
    energy::L2Traffic traffic;

    /** Merge another processor's counters (for aggregate reporting). */
    void merge(const ProcStats &o);
};

/** Occupancy counters of one logical snoop bus (SimStats::perBus). */
struct BusStats
{
    std::uint64_t transactions = 0;  //!< transactions routed to this bus
    std::uint64_t reads = 0;         //!< BusRead share
    std::uint64_t readXs = 0;        //!< BusReadX share
    std::uint64_t upgrades = 0;      //!< BusUpgrade share
};

/** Whole-system statistics. */
struct SimStats
{
    /** @param snoopBuses sizes the per-bus occupancy vectors (1 when the
     *  stats block is built before the interconnect is known). */
    explicit SimStats(unsigned nprocs, unsigned snoopBuses = 1)
        : procs(nprocs), remoteHits(nprocs), perBus(snoopBuses),
          busSnoopTagProbes(snoopBuses, 0)
    {}

    std::vector<ProcStats> procs;

    /** Distribution of remote copies found per snooping transaction
     *  (Table 3's "Remote Cache Hits" columns, buckets 0..nprocs-1). */
    Histogram remoteHits;

    /** Total snooping bus transactions (reads + readXs + upgrades). */
    std::uint64_t snoopTransactions = 0;

    /** Per-bus transaction occupancy, indexed by bus id — the split
     *  interconnect's view (sums to snoopTransactions). */
    std::vector<BusStats> perBus;

    /** Snoop-induced L2 tag probes per bus (each transaction probes
     *  nprocs-1 remote L2s on its home bus) — the accountant's per-bus
     *  snoop energy input. */
    std::vector<std::uint64_t> busSnoopTagProbes;

    /** Aggregate of all per-processor counters. */
    ProcStats aggregate() const;
};

} // namespace jetty::sim

#endif // JETTY_SIM_SIM_STATS_HH
