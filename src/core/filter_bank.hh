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
 * energy accountant later combines with per-event filter energies. The
 * simulator's hot loop queues the events instead and has the bank replay
 * them in batches, once per filter family (the deferred path below).
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

namespace jetty::filter
{

/**
 * One filter's verdict on one snoop, with the ground truth it was judged
 * against. The verification subsystem's no-false-negative checker hangs
 * off this: `filtered && unitInL2` is the broken-coherence case.
 */
struct FilterProbeEvent
{
    ProcId owner = 0;          //!< node whose bank observed the snoop
    std::size_t filterIdx = 0; //!< index into the bank
    Addr unitAddr = 0;
    bool unitInL2 = false;     //!< ground truth: unit valid in local L2
    bool blockInL2 = false;    //!< ground truth: enclosing tag matched
    bool filtered = false;     //!< the filter claimed "definitely absent"
};

/** Passive observer of every (filter, snoop) verdict. */
class FilterProbeObserver
{
  public:
    virtual ~FilterProbeObserver() = default;
    virtual void onFilterProbe(const FilterProbeEvent &) = 0;
};

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
     *                    bank's node sits on: deferred events are queued
     *                    (and later replayed) per home bus. 1 keeps the
     *                    classic single-queue behaviour.
     */
    FilterBank(const std::vector<std::string> &specs, const AddressMap &amap,
               bool checkSafety = true, unsigned snoopBuses = 1);

    /**
     * Present one snoop to every filter.
     * @param unitAddr   coherence-unit aligned snooped address.
     * @param unitInL2   ground truth: the unit is valid in the local L2.
     * @param blockInL2  ground truth: the enclosing block's tag matched
     *                   (the tag probe reports this for free).
     */
    void observeSnoop(Addr unitAddr, bool unitInL2, bool blockInL2);

    // ---- The deferred (batched) observation path --------------------
    //
    // The simulation hot loop defers filter work: snoops and the L2's
    // fill/evict notifications are queued per home snoop bus (the same
    // block interleave the interconnect routes transactions by), and a
    // chunk-end flush replays every queue, bus by bus, once per filter
    // family: the bank groups its filters by dynamic type at
    // construction, and each group walks a queue event-major through
    // one SnoopFilter::applyBatch call, decoding each event once for
    // all its filters. Filters are independent, so every filter sees
    // exactly the stream it would see alone. Per bus the replay order
    // is the capture order, and all events of one L2 block share a bus,
    // so every block-granular (EJ/VEJ entries, IJ slices) or counting
    // (IJ, RF) structure sees a per-structure totally ordered stream —
    // the no-false-negative guarantee survives deferral for any bus
    // count, and with one bus the replay is the original total order,
    // making the deferred path bit-identical to immediate observation.

    /** Enter deferred mode: observeSnoop and the L2 listener hooks queue
     *  instead of applying. Requires no probe observer (the instrumented
     *  paths stay immediate). */
    void beginDeferred();

    /** Replay all queued events (bus-major) and leave deferred mode. */
    void endDeferred();

    /** Replay all queued events bus-major, staying deferred. Panics on a
     *  safety violation when the bank checks safety. */
    void flushDeferred();

    /** In deferred mode, queue one snoop with its captured ground truth.
     *  @p busId must be the unit's home bus. */
    void
    deferSnoop(unsigned busId, Addr unitAddr, bool unitInL2, bool blockInL2)
    {
        busQueues_[busId].push_back(
            {unitAddr, BankEvent::Kind::Snoop, unitInL2, blockInL2});
    }

    // CacheEventListener
    void unitFilled(Addr unitAddr) override;
    void unitEvicted(Addr unitAddr) override;

    /** Number of filters in the bank. */
    std::size_t size() const { return filters_.size(); }

    /** Filter @p i. */
    SnoopFilter &filterAt(std::size_t i) { return *filters_[i]; }
    const SnoopFilter &filterAt(std::size_t i) const { return *filters_[i]; }

    /** Stats of filter @p i. */
    const FilterStats &statsAt(std::size_t i) const { return stats_[i]; }

    /** Index of the filter whose name() equals @p name, or -1. */
    int indexOf(const std::string &name) const;

    /**
     * Attach (or detach with nullptr) a per-probe observer. @p owner tags
     * the emitted events with the node this bank belongs to. Zero cost
     * when unset: observeSnoop hoists one null check out of its loops.
     */
    void setProbeObserver(FilterProbeObserver *obs, ProcId owner);

  private:
    std::vector<SnoopFilterPtr> filters_;
    std::vector<FilterStats> stats_;
    AddressMap amap_;
    bool checkSafety_;
    FilterProbeObserver *probeObserver_ = nullptr;
    ProcId owner_ = 0;

    /** Home bus of @p unitAddr — must agree with Interconnect::busOf
     *  (the one other statement of the interleave in sim/), which the
     *  CheckerSuite's bus-routing invariant cross-checks online. */
    unsigned
    homeBusOf(Addr unitAddr) const
    {
        return static_cast<unsigned>(
            (unitAddr >> amap_.blockOffsetBits) % snoopBuses_);
    }

    /** The filters of one dynamic type (one family), in bank order,
     *  with their stats slots: one applyBatch call per queue. */
    struct ReplayGroup
    {
        std::vector<SnoopFilter *> filters;
        std::vector<FilterStats *> stats;
    };
    std::vector<ReplayGroup> groups_;

    bool deferred_ = false;
    unsigned snoopBuses_ = 1;
    /** [bus] -> captured events in capture order. clear() keeps the
     *  capacity, so steady-state deferral does no allocator work, and
     *  each queue replays as one contiguous run per group. */
    std::vector<util::AlignedVec<BankEvent>> busQueues_;
};

} // namespace jetty::filter

#endif // JETTY_CORE_FILTER_BANK_HH
