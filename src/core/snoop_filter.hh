/**
 * @file
 * The SnoopFilter interface implemented by every JETTY variant.
 *
 * A filter sits between the bus and the L2 backside of one processor. On
 * an incoming snoop the filter is probed; a @c true answer is a *guarantee*
 * that the snooped coherence unit is not valid in the local L2, so the L2
 * tag probe can be skipped. Filters are speculative but must be safe: a
 * false "not cached" would break coherence, and the simulator verifies the
 * guarantee against ground truth on every filtered snoop.
 *
 * Filters keep no coherence state beyond presence, exactly as the paper
 * requires (no protocol changes). They learn through three event streams:
 *  - probe(addr): a snoop arrived;
 *  - onSnoopMiss(addr): the snoop was not filtered and missed in the L2
 *    (this is when an Exclude-JETTY allocates);
 *  - onFill/onEvict(addr): the L2 gained/lost a valid coherence unit
 *    (this is how Include-JETTY counters and EJ present bits stay
 *    coherent; the information is free at the L2, Section 3.2).
 *
 * A filter learns them only through its bank (core/filter_bank.hh),
 * which queues every event and replays queued runs: applyBatch walks a
 * run of BankEvents once for a whole family of filters of one type,
 * event-major, through the one protocol walk below (replayBankEvents /
 * applySnoopVerdict). Outside run()'s chunked batch a run is one event.
 */

#ifndef JETTY_CORE_SNOOP_FILTER_HH
#define JETTY_CORE_SNOOP_FILTER_HH

#include <cstdint>
#include <memory>
#include <string>

#include "energy/accountant.hh"
#include "energy/technology.hh"
#include "util/types.hh"

namespace jetty::filter
{

/**
 * Address-space facts a filter needs to slice addresses and size its
 * storage. Produced by the simulator from the L2 configuration.
 */
struct AddressMap
{
    /** log2 of the coherence-unit size (32 B -> 5). */
    unsigned unitOffsetBits = 5;

    /** log2 of the L2 block size (64 B -> 6); IJ indexing starts above
     *  this per Section 4.3.3. */
    unsigned blockOffsetBits = 6;

    /** Physical address bits (paper: 36--40). */
    unsigned physAddrBits = 40;

    /** Total coherence units the L2 can hold (pessimistic IJ counter
     *  sizing). */
    std::uint64_t l2CapacityUnits = 32768;
};

/** Storage cost of a filter, for Table 4 style reporting. */
struct StorageBreakdown
{
    std::uint64_t presenceBits = 0;  //!< bits probed on a snoop
    std::uint64_t counterBits = 0;   //!< IJ cnt arrays (not probed by snoops)

    std::uint64_t totalBits() const { return presenceBits + counterBits; }
    double totalBytes() const { return totalBits() / 8.0; }
};

/** Coverage statistics of one filter on one processor. */
struct FilterStats
{
    std::uint64_t probes = 0;          //!< snoops presented to the filter
    std::uint64_t filtered = 0;        //!< snoops eliminated
    std::uint64_t wouldMiss = 0;       //!< snoops that miss in the L2
    std::uint64_t filteredWouldMiss = 0;  //!< filtered AND a true miss
    std::uint64_t snoopAllocs = 0;     //!< onSnoopMiss deliveries
    std::uint64_t fillUpdates = 0;     //!< L2 fill events observed
    std::uint64_t evictUpdates = 0;    //!< L2 evict events observed
    std::uint64_t safetyViolations = 0;  //!< must stay zero

    /** Snoop-miss coverage (Section 4.3's key metric). */
    double
    coverage() const
    {
        return wouldMiss == 0
                   ? 0.0
                   : static_cast<double>(filteredWouldMiss) /
                         static_cast<double>(wouldMiss);
    }

    /** Convert to the accountant's traffic view. */
    energy::FilterTraffic
    traffic() const
    {
        energy::FilterTraffic t;
        t.probes = probes;
        t.filtered = filtered;
        t.snoopAllocs = snoopAllocs;
        t.fillUpdates = fillUpdates;
        t.evictUpdates = evictUpdates;
        return t;
    }

    /** Merge another processor's stats for the same configuration. */
    void merge(const FilterStats &o);
};

/**
 * One queued filter-bank event (core/filter_bank.hh). A bank queues
 * these per logical snoop bus, and FilterBank::flushDeferred replays
 * each queue once per filter family. Snoop events carry their ground
 * truth *as captured at snoop time*, so the safety check judges every
 * verdict against the true cache state, however late the replay.
 */
struct BankEvent
{
    /** What happened, in the order the filter must learn it. */
    enum class Kind : std::uint8_t
    {
        Snoop,  //!< a snoop arrived (probe + possible allocation)
        Fill,   //!< the local L2 gained a valid unit
        Evict,  //!< the local L2 lost a valid unit
    };

    Addr unitAddr = 0;
    Kind kind = Kind::Snoop;
    bool unitInL2 = false;   //!< snoop ground truth: unit valid locally
    bool blockInL2 = false;  //!< snoop ground truth: enclosing tag match
};

/**
 * The single copy of the snoop-arm bookkeeping: which counters a
 * verdict bumps, when the safety violation is counted, and when the
 * miss hook (exclude-side allocation) fires. The replay walk below —
 * through it every applyBatch in the tree — folds each snoop verdict
 * through this one function, so the protocol cannot drift between the
 * generic and devirtualized paths.
 */
template <typename MissFn>
inline void
applySnoopVerdict(FilterStats &st, const BankEvent &ev, bool filtered,
                  MissFn &&missFn)
{
    ++st.probes;
    if (ev.unitInL2) {
        if (filtered) {
            ++st.filtered;
            ++st.safetyViolations;
        }
    } else {
        ++st.wouldMiss;
        if (filtered) {
            ++st.filtered;
            ++st.filteredWouldMiss;
        } else {
            missFn();
            ++st.snoopAllocs;
        }
    }
}

/**
 * The batch-replay protocol walk, event-major over one family's
 * filters: each event is decoded once (kind, ground truth and
 * `unitAddr >> addrShift`) and then applied to every peer in turn, each
 * snoop verdict folded through applySnoopVerdict. Every applyBatch —
 * the generic virtual walk and the devirtualized EJ/VEJ kernels —
 * instantiates this with its own callables, called as probe(j, a),
 * miss(j, a, blockPresent), fill(j, a) and evict(j, a) for peer j and
 * decoded address a; a miss always directly follows the probe of the
 * same peer, so a kernel may carry the probe's set lookup into it. Each
 * peer sees the events in order, so the result equals replaying the
 * run through each peer alone.
 */
template <typename ProbeFn, typename MissFn, typename FillFn,
          typename EvictFn>
inline void
replayBankEvents(FilterStats *const *stats, std::size_t peers,
                 const BankEvent *evs, std::size_t n, unsigned addrShift,
                 ProbeFn &&probeFn, MissFn &&missFn, FillFn &&fillFn,
                 EvictFn &&evictFn)
{
    for (std::size_t i = 0; i < n; ++i) {
        const BankEvent ev = evs[i];
        const Addr a = ev.unitAddr >> addrShift;
        switch (ev.kind) {
          case BankEvent::Kind::Snoop:
            for (std::size_t j = 0; j < peers; ++j) {
                applySnoopVerdict(*stats[j], ev, probeFn(j, a),
                                  [&] { missFn(j, a, ev.blockInL2); });
            }
            break;
          case BankEvent::Kind::Fill:
            for (std::size_t j = 0; j < peers; ++j) {
                fillFn(j, a);
                ++stats[j]->fillUpdates;
            }
            break;
          case BankEvent::Kind::Evict:
            for (std::size_t j = 0; j < peers; ++j) {
                evictFn(j, a);
                ++stats[j]->evictUpdates;
            }
            break;
        }
    }
}

/** Abstract JETTY. */
class SnoopFilter
{
  public:
    virtual ~SnoopFilter() = default;

    /**
     * Probe for a snoop to @p unitAddr (coherence-unit aligned).
     * @return true when the unit is guaranteed absent from the local L2
     *         (the snoop is filtered).
     */
    virtual bool probe(Addr unitAddr) = 0;

    /**
     * The snoop to @p unitAddr was not filtered and the L2 tag probe
     * missed. Exclude components allocate here.
     *
     * @param blockPresent the enclosing block's tag matched (some other
     *        subblock is valid locally), so only the snooped unit is known
     *        absent. When false the whole block is guaranteed absent --
     *        the information an exclude-JETTY records. The tag probe that
     *        discovered the miss supplies this for free.
     */
    virtual void onSnoopMiss(Addr unitAddr, bool blockPresent) = 0;

    /** The local L2 gained a valid unit at @p unitAddr. */
    virtual void onFill(Addr unitAddr) = 0;

    /** The local L2 lost the valid unit at @p unitAddr. */
    virtual void onEvict(Addr unitAddr) = 0;

    /** Storage cost breakdown. */
    virtual StorageBreakdown storage() const = 0;

    /** Per-event energies under @p tech, from the SramArray model. */
    virtual energy::FilterEnergyCosts
    energyCosts(const energy::Technology &tech) const = 0;

    /** Canonical configuration name, e.g. "EJ-32x4". */
    virtual std::string name() const = 0;

    /**
     * Replay a run of queued bank events through @p peers, one family's
     * filters, accumulating peer j's counts into *stats[j] — the batched
     * path behind FilterBank::flushDeferred. Every peer must have this
     * filter's dynamic type and all must share one AddressMap (a bank's
     * filters do). The base implementation walks the events through the
     * virtual probe/onSnoopMiss/onFill/onEvict hooks through
     * replayBankEvents, so every family is batch-correct by
     * construction; ExcludeJetty (EJ and VEJ alike) overrides it with
     * a direct, inlinable kernel. Safety violations
     * are *counted* here (safetyViolations); the bank decides whether
     * to panic.
     */
    virtual void applyBatch(SnoopFilter *const *peers,
                            FilterStats *const *stats, std::size_t nPeers,
                            const BankEvent *evs, std::size_t n);
};

using SnoopFilterPtr = std::unique_ptr<SnoopFilter>;

} // namespace jetty::filter

#endif // JETTY_CORE_SNOOP_FILTER_HH
