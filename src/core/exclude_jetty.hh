/**
 * @file
 * Exclude-JETTY (Section 3.1): a small set-associative array of
 * (TAG, present-bit) pairs recording recently snooped L2 *blocks* that
 * were entirely absent from the local L2 and have not been fetched since.
 * A tag match with the present bit set guarantees the snooped unit's whole
 * block is absent, filtering the snoop.
 *
 * Granularity matters: entries cover one L2 block (64 B in the base
 * system), not one coherence unit. This is what lets subblocking feed the
 * EJ -- a miss on one subblock allocates an entry that then filters the
 * (extremely likely) follow-up snoop to the sibling subblock, the effect
 * the paper identifies as the primary source of snoop locality. For
 * safety an entry is only allocated when the snooping tag probe saw no
 * matching tag at all (whole block absent), and it is cleared the moment
 * a local miss fills any unit of the block.
 *
 * The Vector-Exclude-JETTY (Section 3.1, Figure 3a) widens the present
 * bit to a vector over V consecutive blocks, exploiting spatial locality
 * in the snoop miss stream: the stored tag covers the chunk, the low
 * block-address bits select the vector bit, and a set bit means that
 * whole block is absent (the EJ's semantics). An entry dies when its
 * vector empties. This class is both: an EJ is the one-bit vector, so
 * the two share the flat storage, the replacement rule and the
 * event-major batch kernel, and every exclude filter of a bank replays
 * as one family.
 */

#ifndef JETTY_CORE_EXCLUDE_JETTY_HH
#define JETTY_CORE_EXCLUDE_JETTY_HH

#include <cstdint>

#include "core/snoop_filter.hh"
#include "util/arena.hh"

namespace jetty::filter
{

/** Configuration of an EJ-SxA or VEJ-SxA-V organization. */
struct ExcludeJettyConfig
{
    unsigned sets = 32;   //!< power of two
    unsigned assoc = 4;   //!< ways per set
    /** VEJ: consecutive blocks per entry (a power of two, at most 64).
     *  0 is the plain EJ, whose one present bit covers one block. */
    unsigned vectorBits = 0;
};

/** The exclude-JETTY and its vector variant. */
class ExcludeJetty : public SnoopFilter
{
  public:
    ExcludeJetty(const ExcludeJettyConfig &cfg, const AddressMap &amap);

    bool probe(Addr unitAddr) override;
    void onSnoopMiss(Addr unitAddr, bool blockPresent) override;
    void onFill(Addr unitAddr) override;
    void onEvict(Addr) override {}

    /** Devirtualized event-major replay for the bank's flush:
     *  direct (inlinable) probe/record/fill bodies on block addresses,
     *  and a miss reuses its probe's lookup instead of scanning again. */
    void applyBatch(SnoopFilter *const *peers, FilterStats *const *stats,
                    std::size_t nPeers, const BankEvent *evs,
                    std::size_t n) override;

    StorageBreakdown storage() const override;
    energy::FilterEnergyCosts
    energyCosts(const energy::Technology &tech) const override;
    std::string name() const override;

    /** Bits of tag stored per entry (block address above the set index). */
    unsigned storedTagBits() const { return tagBits_; }

  private:
    /** Where a block (unitAddr >> blockOffsetBits) lives: its set's
     *  first way, its entry key (tag << 1) | 1, its present-vector bit
     *  and the way holding the key (-1: none). Shared by the virtual
     *  hooks and the batch kernel. */
    struct Slot
    {
        std::size_t base;
        std::uint64_t key;
        std::uint64_t bit;
        int way;
    };

    Slot lookup(Addr blk) const;
    bool probeAt(const Slot &s);
    void recordAt(const Slot &s);
    void fillAt(const Slot &s);

    ExcludeJettyConfig cfg_;
    AddressMap amap_;
    unsigned vecBits_;  //!< log2(blocks per entry): 0 for the EJ
    unsigned setBits_;
    unsigned tagBits_;
    /**
     * Flat [set * assoc + way] arrays, cache-line aligned: packed
     * (tag << 1) | valid words, the present vectors (bit i set => block
     * i of the entry's chunk is absent; an entry dies when its vector
     * empties) and the LRU clocks. A lookup is one equality scan
     * (findEqU64, util/bits.hh) of a set's words for (tag << 1) | 1 (an
     * invalid way can never match — the key's low bit is set); the
     * other arrays sit beside the words so the scan stays dense.
     */
    util::AlignedVec<std::uint64_t> tagValid_;
    util::AlignedVec<std::uint64_t> vector_;
    util::AlignedVec<std::uint64_t> lastUse_;
    std::uint64_t useClock_ = 0;
};

} // namespace jetty::filter

#endif // JETTY_CORE_EXCLUDE_JETTY_HH
