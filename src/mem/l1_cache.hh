/**
 * @file
 * L1 data cache: set-associative, write-back, write-allocate, with lines
 * equal to the L2 coherence unit (32 B in the base system). The L1 carries
 * no coherence state of its own; it mirrors presence plus a "writable"
 * permission bit derived from the L2's MOESI state, and the inclusion
 * property (L2 superset of L1) is enforced by the owning processor node.
 *
 * A reference enters the cache one way (DESIGN.md, "The run() walk"):
 * accessClassify() retires a hit, and a Blocked write or a miss ends in
 * grantWrite() or fill(). probe() is the one side-effect-free query,
 * for the invariant checkers and tests.
 *
 * Storage is packed for that lookup: each (set, way) frame is one
 * 64-bit word (tag << 2) | (writable << 1) | valid, so a way check is a
 * single masked compare and accessClassify() scans a set's tags without
 * touching anything else. LRU clocks and dirty flags sit in parallel
 * cold arrays, written only when a hit retires or a line fills.
 */

#ifndef JETTY_MEM_L1_CACHE_HH
#define JETTY_MEM_L1_CACHE_HH

#include <cstdint>
#include <vector>

#include "mem/cache_config.hh"
#include "util/arena.hh"
#include "util/bits.hh"
#include "util/types.hh"

namespace jetty::mem
{

/** Result of an L1 lookup. */
struct L1LookupResult
{
    bool hit = false;       //!< line present
    bool writable = false;  //!< line may be written without L2 help
    bool dirty = false;     //!< line holds unwritten-back data
};

/** A dirty line displaced by an L1 fill; must be written back to L2. */
struct L1Victim
{
    Addr lineAddr = 0;
    bool valid = false;
    bool dirty = false;
};

/** One valid line as enumerated for state comparison (verify/). */
struct L1LineInfo
{
    Addr lineAddr = 0;
    bool writable = false;
    bool dirty = false;
};

/** How the single-lookup fast path classified a reference. */
enum class L1FastOutcome : std::uint8_t
{
    Hit,      //!< retired: hit needing no L2 help (touched, dirtied)
    Blocked,  //!< write hit without write permission; cache untouched
    Miss,     //!< line absent; cache untouched
};

/** Tag/flag store of the L1 data cache (LRU replacement). */
class L1Cache
{
  public:
    explicit L1Cache(const L1Config &cfg);

    /** Probe without side effects (the invariant checkers and tests). */
    L1LookupResult probe(Addr addr) const;

    /**
     * The one per-reference lookup, made by SmpSystem::access() for the
     * run() walk and step() alike. A hit needing no L2 help — a read
     * hit, or a write hit on a writable line — is retired in place: the
     * line's LRU clock advances and a write marks it dirty. Otherwise
     * the cache is left completely untouched and the verdict says why:
     * Blocked (a write hit lacking permission; the caller upgrades the
     * L2 and then calls grantWrite()) or Miss (the line is absent, so
     * the caller enters the L1-miss route without re-probing).
     *
     * test_caches checks it against a reference LRU model at assoc 1,
     * 2, 4 and 8.
     */
    L1FastOutcome
    accessClassify(Addr addr, bool write)
    {
        const std::uint64_t set = bitField(addr, offsetBits_, indexBits_);
        const std::uint64_t key =
            ((addr >> (offsetBits_ + indexBits_)) << 2) | 1;
        const std::size_t base = static_cast<std::size_t>(set)
                                 << assocShift_;
        for (unsigned w = 0; w < cfg_.assoc; ++w) {
            const std::uint64_t word = tagw_[base + w];
            if ((word & ~std::uint64_t{2}) != key)
                continue;
            if (write && !(word & 2))
                return L1FastOutcome::Blocked;
            lastUse_[base + w] = ++useClock_;
            if (write)
                dirty_[base + w] = 1;
            return L1FastOutcome::Hit;
        }
        return L1FastOutcome::Miss;
    }

    /**
     * Retire a Blocked write once the L2 holds the unit writable: one
     * scan advances the (present) line's LRU clock and sets its
     * writable and dirty bits.
     */
    void grantWrite(Addr addr);

    /**
     * Allocate the line for @p addr, writable and dirty as given (a
     * write-allocate fill is dirty at once), returning the displaced
     * line (if any) through @p victim. The caller writes dirty victims
     * back to L2.
     */
    void fill(Addr addr, bool writable, bool dirty, L1Victim &victim);

    /**
     * Invalidate @p addr's line if present (inclusion enforcement).
     * @return true when the invalidated line was dirty (its data must be
     *         merged into the L2 before the unit leaves the hierarchy).
     */
    bool invalidate(Addr addr);

    /** Number of valid lines (for invariant checks). */
    std::uint64_t validLines() const { return validLines_; }

    /**
     * Every valid line with its permission/dirty flags, sorted by line
     * address. Differential verification compares this against the golden
     * model's view; not for hot paths.
     */
    std::vector<L1LineInfo> validLineInfo() const;

    /** The configuration this cache was built with. */
    const L1Config &config() const { return cfg_; }

  private:
    std::uint64_t setIndex(Addr a) const;
    Addr tagOf(Addr a) const;
    Addr lineAddrOf(Addr tag, std::uint64_t set) const;
    int findWay(Addr a) const;

    L1Config cfg_;
    /** Flat [set << assocShift | way] packed words,
     *  (tag << 2) | (writable << 1) | valid — the only array a
     *  lookup reads; one cache line covers 8 ways. */
    util::AlignedVec<std::uint64_t> tagw_;
    util::AlignedVec<std::uint64_t> lastUse_;  //!< [frame] LRU clocks
    std::vector<std::uint8_t> dirty_;          //!< [frame] dirty flags
    unsigned offsetBits_;
    unsigned indexBits_;
    unsigned assocShift_;  //!< log2(assoc), precomputed
    std::uint64_t useClock_ = 0;
    std::uint64_t validLines_ = 0;
};

} // namespace jetty::mem

#endif // JETTY_MEM_L1_CACHE_HH
