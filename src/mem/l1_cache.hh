/**
 * @file
 * L1 data cache: set-associative, write-back, write-allocate, with lines
 * equal to the L2 coherence unit (32 B in the base system). The L1 carries
 * no coherence state of its own; it mirrors presence plus a "writable"
 * permission bit derived from the L2's MOESI state, and the inclusion
 * property (L2 superset of L1) is enforced by the owning processor node.
 *
 * Storage is packed for the run() walk (DESIGN.md, "The run() walk"):
 * each (set, way) frame is one 64-bit word
 * (tag << 2) | (writable << 1) | valid, so a way check is a single
 * masked compare and accessClassify() scans a set's tags without
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

    /** Line-align an address. */
    Addr lineAlign(Addr a) const { return a & ~lineMask_; }

    /** Probe without side effects. */
    L1LookupResult probe(Addr addr) const;

    /**
     * Single-lookup fast path, one call per reference in the run() walk.
     * A hit needing no L2 help — a read hit, or a write hit on a
     * writable line — is retired in place with exactly the state changes
     * of probe() + touch() (+ markDirty() for writes): same LRU clock
     * advance, same dirty marking. Otherwise the cache is left
     * completely untouched and the verdict says why: Blocked (a write
     * hit lacking permission — the full processorAccess route applies)
     * or Miss (the line is absent, so the caller can enter the L1-miss
     * route without re-probing).
     *
     * test_caches asserts it against that probe/touch/markDirty slow
     * path at assoc 1, 2, 4 and 8.
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

    /** Update LRU for a hit on @p addr's line. */
    void touch(Addr addr);

    /** Mark the (present) line dirty after a permitted write. */
    void markDirty(Addr addr);

    /** Grant write permission to the (present) line. */
    void setWritable(Addr addr, bool writable);

    /**
     * Allocate the line for @p addr, returning the displaced line (if any)
     * through @p victim. The caller writes dirty victims back to L2.
     */
    void fill(Addr addr, bool writable, L1Victim &victim);

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
    std::uint64_t lineMask_;
    unsigned offsetBits_;
    unsigned indexBits_;
    unsigned assocShift_;  //!< log2(assoc), precomputed
    std::uint64_t useClock_ = 0;
    std::uint64_t validLines_ = 0;
};

} // namespace jetty::mem

#endif // JETTY_MEM_L1_CACHE_HH
