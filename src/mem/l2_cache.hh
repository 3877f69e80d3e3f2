/**
 * @file
 * Subblocked, set-associative L2 cache with per-subblock MOESI state.
 *
 * This is the structure the JETTY protects: every snoop that is not
 * filtered probes this cache's tag array. The cache is purely functional
 * (tags + states, no data payloads) because the experiments only need
 * access/hit/miss/supply event streams for coverage and energy accounting.
 *
 * Every access is a fill() or one probeWay() whose way the calls that
 * follow reuse: touchAt(), setStateAt() or snoopAtWay(). probe() is
 * probeWay() for callers that only look.
 */

#ifndef JETTY_MEM_L2_CACHE_HH
#define JETTY_MEM_L2_CACHE_HH

#include <cstdint>
#include <vector>

#include "coherence/moesi.hh"
#include "mem/cache_config.hh"
#include "mem/cache_events.hh"
#include "util/arena.hh"
#include "util/types.hh"

namespace jetty::mem
{

/** Result of a local L2 lookup for one coherence unit. */
struct L2LookupResult
{
    bool tagMatch = false;    //!< the block's tag is present
    bool unitValid = false;   //!< the requested subblock is valid
    coherence::State state = coherence::State::Invalid;
};

/** A victim produced by a block-granularity L2 eviction. */
struct L2Victim
{
    Addr unitAddr = 0;                //!< coherence-unit address
    coherence::State state = coherence::State::Invalid;
};

/** One valid coherence unit as enumerated for state comparison. */
struct L2UnitInfo
{
    Addr unitAddr = 0;
    coherence::State state = coherence::State::Invalid;
};

/**
 * Tag/state store of the subblocked L2. Replacement within a set is LRU.
 * Inclusion bookkeeping (invalidating L1 copies) is the owner's job; the
 * cache reports everything it evicts or invalidates through both its
 * return values and the CacheEventListener chain.
 */
class L2Cache
{
  public:
    explicit L2Cache(const L2Config &cfg);

    /** Register an observer of fill/evict events (e.g., the filter bank). */
    void addListener(CacheEventListener *listener);

    /** Coherence-unit-align an address. */
    Addr unitAlign(Addr a) const { return a & ~unitMask_; }

    /**
     * Locate the unit containing @p addr without changing any state:
     * fills @p res and returns the way holding the block (-1 on a tag
     * miss), so the touchAt(), setStateAt() or snoopAtWay() calls that
     * follow reuse the lookup. Nothing else may mutate the cache in
     * between.
     */
    int probeWay(Addr addr, L2LookupResult &res) const;

    /** probeWay() for a caller that needs only the result (the
     *  invariant checkers and tests). */
    L2LookupResult
    probe(Addr addr) const
    {
        L2LookupResult res;
        probeWay(addr, res);
        return res;
    }

    /**
     * Apply a snoop to the unit containing @p addr, which probeWay()
     * located at @p way (-1 = tag miss, a no-op outcome), and return the
     * outcome. An invalidation is announced to listeners. The caller
     * decides whether to probe at all (JETTY filtering happens outside).
     */
    coherence::SnoopOutcome snoopAtWay(int way, Addr addr,
                                       coherence::BusOp op);

    /** Update LRU for a local access that hit the block probeWay()
     *  located at @p way (>= 0). */
    void
    touchAt(int way, Addr addr)
    {
        lastUse_[frameOf(setIndex(addr), way)] = ++useClock_;
    }

    /**
     * Set the state of the valid unit whose block probeWay() located at
     * @p way (>= 0): an upgrade or downgrade, never an invalidation
     * (that is a snoop's job).
     */
    void setStateAt(int way, Addr addr, coherence::State next);

    /**
     * Allocate (if needed) the block containing @p addr and fill its unit
     * with @p state. When a block must be evicted to make room, all of its
     * valid units are returned in @p victims (dirty ones must be written
     * back by the caller) and announced to listeners.
     *
     * @return true when a block-level eviction happened.
     */
    bool fill(Addr addr, coherence::State state,
              std::vector<L2Victim> &victims);

    /** Count of currently valid coherence units (for invariant checks). */
    std::uint64_t validUnits() const { return validUnits_; }

    /**
     * Every valid coherence unit with its state, sorted by unit address.
     * Differential verification compares this against the golden model's
     * view; not for hot paths.
     */
    std::vector<L2UnitInfo> validUnitInfo() const;

    /**
     * Block addresses of every resident tag, sorted — including blocks
     * whose units were all invalidated by snoops but that still hold a
     * way (their tag match is what a snoop probe reports, so they are
     * filter-visible state and must agree with the golden model).
     */
    std::vector<Addr> residentBlockAddrs() const;

    /** The configuration this cache was built with. */
    const L2Config &config() const { return cfg_; }

  private:
    std::uint64_t setIndex(Addr a) const;
    Addr tagOf(Addr a) const;
    unsigned unitIndex(Addr a) const;

    /** Flat frame index of (set, way). */
    std::size_t
    frameOf(std::uint64_t set, unsigned way) const
    {
        return static_cast<std::size_t>(set) * cfg_.assoc + way;
    }

    /** First unit-state slot of frame @p frame. */
    coherence::State *
    unitsOf(std::size_t frame)
    {
        return &units_[frame * cfg_.subblocks];
    }
    const coherence::State *
    unitsOf(std::size_t frame) const
    {
        return &units_[frame * cfg_.subblocks];
    }

    Addr unitAddrOf(Addr tag, std::uint64_t set, unsigned unit) const;

    /** Find the way holding the block of @p a, or -1. */
    int findWay(Addr a) const;

    void notifyFill(Addr unitAddr);
    void notifyEvict(Addr unitAddr);

    // Frame storage, split hot/cold in flat [set * assoc + way] arrays
    // (a set's ways adjacent). The tag scan of a probe or snoop reads
    // one word per way — (tag << 1) | valid, matched with a single
    // compare — and per-subblock states sit in a parallel array; the
    // LRU clocks are only touched by local accesses and fills, so the
    // snoop-heavy paths never pull them into the host's caches.
    L2Config cfg_;
    util::AlignedVec<std::uint64_t> tagValid_;  //!< [frame] (tag << 1) | valid
    util::AlignedVec<std::uint64_t> lastUse_;   //!< [frame] LRU clocks
    std::vector<coherence::State> units_;  //!< [frame * subblocks + unit]
    std::uint64_t unitMask_;
    unsigned offsetBits_;
    unsigned indexBits_;
    unsigned unitShift_;     //!< log2(unitBytes), precomputed
    unsigned subblockBits_;  //!< log2(subblocks), precomputed
    std::uint64_t useClock_ = 0;
    std::uint64_t validUnits_ = 0;
    std::vector<CacheEventListener *> listeners_;
};

} // namespace jetty::mem

#endif // JETTY_MEM_L2_CACHE_HH
