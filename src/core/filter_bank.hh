/**
 * @file
 * FilterBank: passive, parallel evaluation of many JETTY configurations on
 * one processor's snoop and fill/evict streams.
 *
 * Filtering is observation-only -- a JETTY never changes a coherence
 * outcome, only whether the L2 tag array is probed -- so a single
 * simulation run can score every candidate configuration at once. The bank
 * subscribes to the L2's fill/evict events, receives every snoop with its
 * ground-truth outcome, checks the safety invariant (a filtered snoop must
 * be a true miss), and accumulates per-filter coverage statistics that the
 * energy accountant later combines with per-event filter energies.
 *
 * The bank has one observation path: every event is queued, and a
 * queued batch is replayed once per filter family (replay). Outside a
 * deferred batch (run()'s chunked walk) each event is replayed as soon
 * as it is queued, so a step()-driven or instrumented simulation sees
 * every filter learn in capture order. Inside one, the walk seals each
 * chunk of the schedule (sealChunk) and either replays the batch itself
 * (flushDeferred) or hands it to another thread (take, then replay
 * there): the replay order is fixed by the chunk marks, never by when
 * or where the replay runs. Per-event verdicts are visible as
 * FilterStats deltas (the verification checkers read them).
 */

#ifndef JETTY_CORE_FILTER_BANK_HH
#define JETTY_CORE_FILTER_BANK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/snoop_filter.hh"
#include "energy/accountant.hh"
#include "mem/cache_events.hh"
#include "util/arena.hh"
#include "util/bits.hh"

namespace jetty::filter
{

/** The bank of simultaneously evaluated filters for one processor. */
class FilterBank : public mem::CacheEventListener
{
  public:
    /**
     * @param specs       configuration names (see filter_spec.hh).
     * @param amap        address-space facts of the simulated system.
     * @param checkSafety verify the "never filter a cached unit" guarantee
     *                    against ground truth (panics on violation when
     *                    true; counts violations either way).
     * @param snoopBuses  logical snoop buses of the interconnect the
     *                    bank's node sits on: events are queued (and
     *                    replayed) per home bus. 1 keeps the classic
     *                    single-queue behaviour.
     */
    FilterBank(const std::vector<std::string> &specs, const AddressMap &amap,
               bool checkSafety = true, unsigned snoopBuses = 1);

    /**
     * Present one snoop to every filter: the bank's one snoop entry.
     * @param unitAddr   coherence-unit aligned snooped address.
     * @param unitInL2   ground truth: the unit is valid in the local L2.
     * @param blockInL2  ground truth: the enclosing block's tag matched
     *                   (the tag probe reports this for free).
     */
    void
    observeSnoop(Addr unitAddr, bool unitInL2, bool blockInL2)
    {
        enqueue({unitAddr, BankEvent::Kind::Snoop, unitInL2, blockInL2});
    }

    // ---- Queue and replay --------------------------------------------
    //
    // Snoops and the L2's fill/evict notifications are queued per home
    // snoop bus (the interleave the interconnect routes transactions
    // by). A replay walks the sealed chunks in seal order, each chunk
    // bus by bus, once per filter family: the bank groups its filters
    // by dynamic type at construction, and each group walks a queue
    // range event-major through one SnoopFilter::applyBatch call,
    // decoding each event once for all its filters. Filters are
    // independent, so every filter sees exactly the stream it would see
    // alone. Per bus the replay order is the capture order, and all
    // events of one L2 block share a bus, so every block-granular
    // (EJ/VEJ entries, IJ slices) or counting (IJ, RF) structure sees a
    // per-structure totally ordered stream — the no-false-negative
    // guarantee holds for any bus count. Outside a deferred batch each
    // queued event is replayed at once, which is the capture order at
    // every bus count; inside one, a single bus replays the capture
    // order too (its whole batch is one range), so a batched run's
    // filter numbers equal step()'s there. The order depends only on
    // the events and the chunk marks, so a batch replayed late or on
    // another thread scores exactly what it scores replayed in place.

    /**
     * A queued batch: per bus, the events in capture order, and per
     * sealed chunk each bus queue's end offset. It moves between the
     * bank and a replaying thread by take(); clear() keeps the buffers'
     * capacity, so a steady-state pipeline does no allocator work.
     */
    struct Pending
    {
        /** [bus] -> events in capture order. */
        std::vector<util::AlignedVec<BankEvent>> busQueues;
        /** [chunk * buses + bus] -> end of the chunk in busQueues[bus].
         *  Events past the last mark replay as one more chunk. */
        std::vector<std::uint32_t> chunkEnds;

        /** Queued events over all buses. */
        std::size_t events() const;

        /** Drop every event and mark, keeping the capacity. */
        void clear();
    };

    /** Enter a deferred batch: events stay queued until replayed. */
    void beginDeferred() { deferred_ = true; }

    /** Replay all queued events and leave the deferred batch. */
    void endDeferred();

    /** End the current chunk: a replay walks the events queued since
     *  the previous seal bus-major, after every earlier chunk. With one
     *  bus (bus-major is the capture order), or when nothing was queued
     *  since the previous seal, this marks nothing. */
    void sealChunk();

    /** Events queued and not yet replayed. */
    std::size_t queuedEvents() const { return queued_.events(); }

    /** Move the queued batch into @p out (whose old contents are
     *  dropped) and continue queueing into its cleared buffers. */
    void take(Pending &out);

    /**
     * Replay @p batch — chunk by chunk, each bus-major — into the
     * bank's filters and stats, then clear it. Panics on a safety
     * violation when the bank checks safety. Touches only the filters
     * and their stats, so one thread may replay a taken batch while
     * another keeps queueing.
     */
    void replay(Pending &batch);

    /** Replay the bank's own queued batch. */
    void flushDeferred() { replay(queued_); }

    // CacheEventListener
    void
    unitFilled(Addr unitAddr) override
    {
        enqueue({unitAddr, BankEvent::Kind::Fill, false, false});
    }

    void
    unitEvicted(Addr unitAddr) override
    {
        enqueue({unitAddr, BankEvent::Kind::Evict, false, false});
    }

    /** Number of filters in the bank. */
    std::size_t size() const { return filters_.size(); }

    /** Filter @p i. */
    SnoopFilter &filterAt(std::size_t i) { return *filters_[i]; }
    const SnoopFilter &filterAt(std::size_t i) const { return *filters_[i]; }

    /** Stats of filter @p i. */
    const FilterStats &statsAt(std::size_t i) const { return stats_[i]; }

    /** Index of the filter whose name() equals @p name, or -1. */
    int indexOf(const std::string &name) const;

  private:
    std::vector<SnoopFilterPtr> filters_;
    std::vector<FilterStats> stats_;
    AddressMap amap_;
    bool checkSafety_;

    /** Queue @p ev on its home bus; replay at once outside a batch. */
    void
    enqueue(const BankEvent &ev)
    {
        queued_.busQueues[interleavedBus(ev.unitAddr, amap_.blockOffsetBits,
                                         snoopBuses_)]
            .push_back(ev);
        if (!deferred_)
            flushDeferred();
    }

    /** The filters of one dynamic type (one family), in bank order,
     *  with their stats slots: one applyBatch call per queue range. */
    struct ReplayGroup
    {
        std::vector<SnoopFilter *> filters;
        std::vector<FilterStats *> stats;
    };
    std::vector<ReplayGroup> groups_;

    bool deferred_ = false;
    unsigned snoopBuses_ = 1;
    /** The batch being queued (one AlignedVec per bus, so each bus
     *  range replays as one contiguous run per group). */
    Pending queued_;
};

} // namespace jetty::filter

#endif // JETTY_CORE_FILTER_BANK_HH
