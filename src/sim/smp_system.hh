/**
 * @file
 * The bus-based SMP system: N processor nodes (L1 + write-back buffer +
 * subblocked MOESI L2 + JETTY filter bank) on an atomic snoopy bus with a
 * memory behind it. Trace-driven: per-processor reference streams are
 * interleaved round-robin, one reference per turn (a WWT2-style quantum).
 *
 * Filters are passive observers (DESIGN.md): each node carries a
 * FilterBank whose configurations all see every snoop with ground truth,
 * so one run scores every candidate JETTY and the energy accountant
 * evaluates them afterwards. A bank has one observation path: broadcast()
 * queues each remote node's snoop and the node's L2 queues its fills and
 * evictions. run() seals the queues at chunk boundaries and hands the
 * sealed batches to one replay thread, so the filters learn while the
 * walk goes on; every other route (step(), processorAccess(), an
 * observed run) replays each event as it is queued. The replay order is
 * fixed by the chunk marks, so every number is the same whichever
 * thread replays and however the two threads are scheduled.
 */

#ifndef JETTY_SIM_SMP_SYSTEM_HH
#define JETTY_SIM_SMP_SYSTEM_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "coherence/bus_txn.hh"
#include "core/filter_bank.hh"
#include "mem/cache_config.hh"
#include "mem/l1_cache.hh"
#include "mem/l2_cache.hh"
#include "mem/writeback_buffer.hh"
#include "sim/observer.hh"
#include "sim/sim_stats.hh"
#include "trace/trace_source.hh"

namespace jetty::sim
{

/** Configuration of the whole SMP. Defaults are the paper's base 4-way
 *  SPARC-like system. */
struct SmpConfig
{
    unsigned nprocs = 4;
    mem::L1Config l1;
    mem::L2Config l2;
    unsigned wbEntries = 8;
    unsigned physAddrBits = 40;

    /** JETTY configurations every node evaluates in parallel. */
    std::vector<std::string> filterSpecs;

    /** Panic when a filter would have broken coherence (keep on). */
    bool checkSafety = true;

    /**
     * References pulled per TraceSource::nextBatch call in the delivery
     * path (1 = scalar per-reference pulls). The one purely wall-clock
     * field: the round-robin interleaving — one reference per processor per
     * sweep — and therefore every simulated number is bit-identical for
     * every value.
     */
    unsigned batchRefs = 256;

    /**
     * Logical snoop buses (>= 1) of the address-interleaved split
     * interconnect: each unit's transactions go to its L2 block's home
     * bus (util/bits.hh interleavedBus; DESIGN.md, "Interconnect & snoop
     * batching"). 1 is the classic single shared bus and is
     * bit-identical to the pre-interconnect simulator in every number.
     * Any value leaves the coherence outcome (caches, write-back
     * buffers, architectural statistics) untouched — all transactions
     * for one unit serialize on its home bus — and only changes the
     * per-bus occupancy stats, the latency model's contention input,
     * and the bus-major order in which run()'s replay walks each chunk
     * of the filter banks' queues (per-filter coverage of run() may
     * shift for snoopBuses > 1; step()'s never does, nor does safety).
     */
    unsigned snoopBuses = 1;

    /** Derive the filters' address-space facts. */
    filter::AddressMap addressMap() const;
};

/** The simulated machine. */
class SmpSystem
{
  public:
    explicit SmpSystem(const SmpConfig &cfg);

    /** Attach one reference stream per processor (size must match). */
    void attachSources(std::vector<trace::TraceSourcePtr> sources);

    /**
     * One round-robin sweep: each processor with a live stream issues one
     * reference. @return false once every stream is exhausted.
     *
     * References are pulled from the sources in batches of
     * SmpConfig::batchRefs and replayed one per sweep, so a step()-driven
     * simulation is bit-identical to run() and to any batch size.
     */
    bool step();

    /**
     * Run until all streams are exhausted. This is the hot path, one walk
     * for every L1 geometry: batched delivery, step()'s access()
     * dispatch per reference with the lane's L1 already resolved, and
     * deferred filter banks sealed per chunk and replayed
     * on a helper thread (see kReplayHandoffEvents), or inline per chunk
     * when the calling thread may use only one CPU. Produces exactly
     * the per-reference behaviour of repeated step() calls. A safety
     * violation panics from whichever thread replays it.
     */
    void run();

    // ---- run()'s filter replay pipeline ---------------------------------

    /** Queued bank events, over all nodes, at which run() hands its
     *  sealed chunks to the replay thread (starting it on first use).
     *  A run that never queues this many replays inline at its end. */
    static constexpr std::size_t kReplayHandoffEvents = 16 * 1024;

    /**
     * Drive one reference: align @p addr to its coherence unit, take
     * the access() dispatch the run() walk takes, and report the
     * reference to the observer. step() issues every reference through
     * here; tests drive single references with it.
     */
    void processorAccess(ProcId p, AccessType type, Addr addr);

    /** Gathered statistics. */
    const SimStats &stats() const { return stats_; }

    /** A node's filter bank (coverage stats per configuration). */
    const filter::FilterBank &bank(ProcId p) const;

    /** Coverage stats of filter @p filterIdx merged over all nodes. */
    filter::FilterStats mergedFilterStats(std::size_t filterIdx) const;

    /** L2 traffic merged over all nodes (energy denominator). */
    energy::L2Traffic mergedTraffic() const;

    /** Direct cache access for white-box tests. */
    mem::L2Cache &l2(ProcId p) { return *nodes_[p]->l2; }
    mem::L1Cache &l1(ProcId p) { return *nodes_[p]->l1; }
    mem::WritebackBuffer &wb(ProcId p) { return *nodes_[p]->wb; }
    const mem::L2Cache &l2(ProcId p) const { return *nodes_[p]->l2; }
    const mem::L1Cache &l1(ProcId p) const { return *nodes_[p]->l1; }
    const mem::WritebackBuffer &wb(ProcId p) const { return *nodes_[p]->wb; }

    /** The configuration the system was built with. */
    const SmpConfig &config() const { return cfg_; }

    /**
     * Attach (or detach with nullptr) a passive observer of references,
     * snoops, and bus transactions (sim/observer.hh). While an observer
     * is attached run() takes the step() route, where processorAccess()
     * reports each reference and every filter event replays as it is
     * queued; both routes make the same access() calls, so the observed
     * simulation is exactly the unobserved one. With no observer the
     * hot loop pays nothing.
     */
    void setObserver(SimObserver *obs) { observer_ = obs; }

  private:
    struct Node
    {
        std::unique_ptr<mem::L1Cache> l1;
        std::unique_ptr<mem::L2Cache> l2;
        std::unique_ptr<mem::WritebackBuffer> wb;
        std::unique_ptr<filter::FilterBank> bank;
        trace::TraceSourcePtr source;
        bool sourceDone = true;

        /** Delivery batch prefetched from the source (cfg.batchRefs). */
        std::vector<trace::TraceRecord> batch;
        std::size_t batchPos = 0;  //!< next undelivered record
        std::size_t batchLen = 0;  //!< valid records in batch
    };

    /** Refill @p node's delivery batch; marks the source done (and
     *  returns false) when the stream is exhausted. */
    bool refillBatch(Node &node);

    /** Place a transaction on its home snoop bus: snoop all other
     *  nodes, count remote copies, transition their states, and queue
     *  each node's snoop on its filter bank (replayed at once outside
     *  run()'s batch, where the observer sees each snoop). */
    coherence::BusResponse
    broadcast(ProcId requester, coherence::BusOp op, Addr unitAddr);

    /** Handle a local L2 miss for @p addr: WB reclaim or bus fetch plus
     *  L2 (and victim) bookkeeping. Returns the unit's final L2 state. */
    coherence::State fetchUnit(ProcId p, Addr unitAddr, bool forWrite);

    /**
     * One reference's local route, the only one: processorAccess() and
     * the run() walk both call it with the node's L1 and the
     * unit-aligned address. accessClassify() retires a hit in place; a
     * Blocked write (a hit lacking permission) upgrades the L2 unit and
     * then grants the L1 line write permission; a miss takes
     * missTail(). The L1 is looked up once either way.
     */
    void
    access(ProcId p, mem::L1Cache &l1, AccessType type, Addr unit)
    {
        const bool write = type == AccessType::Write;
        ProcStats &ps = stats_.procs[p];
        ++ps.accesses;
        if (write)
            ++ps.writes;
        else
            ++ps.reads;
        switch (l1.accessClassify(unit, write)) {
          case mem::L1FastOutcome::Hit:
            ++ps.l1Hits;
            return;
          case mem::L1FastOutcome::Blocked:
            ++ps.l1Hits;
            upgradeForWrite(p, unit);
            l1.grantWrite(unit);
            return;
          case mem::L1FastOutcome::Miss:
            ++ps.l1Misses;
            missTail(p, type, unit);
            return;
        }
    }

    /** Make the L2 unit backing a Blocked L1 write hit Modified: a
     *  silent E->M, or a BusUpgrade from S/O. */
    void upgradeForWrite(ProcId p, Addr unit);

    /** The L1-miss tail of access(): L2 lookup/upgrade/fetch, L1 fill,
     *  dirty-victim writeback. @p unit is the aligned address. */
    void missTail(ProcId p, AccessType type, Addr unit);

    /** Make room in the WB, then insert a victim. */
    void pushVictim(ProcId p, const mem::L2Victim &victim);

    /** Invalidate the L1 line backing @p unitAddr (inclusion). */
    void enforceInclusion(ProcId p, Addr unitAddr);

    SmpConfig cfg_;
    std::vector<std::unique_ptr<Node>> nodes_;
    unsigned blockOffsetBits_;  //!< log2 L2 block: the bus interleave
    std::vector<mem::L2Victim> victimScratch_;  //!< fetchUnit reuse
    SimStats stats_;
    SimObserver *observer_ = nullptr;
};

} // namespace jetty::sim

#endif // JETTY_SIM_SMP_SYSTEM_HH
