/**
 * @file
 * Include-JETTY (Section 3.2, Figure 3b/c): N sub-arrays of 2^E entries.
 * Each sub-array is indexed by an E-bit slice of the block address; the
 * slices start at the low end (just above the block offset) and successive
 * slices are shifted up by S bits, so S < E yields partially overlapping
 * indices (which the paper found more accurate). Every entry carries a
 * presence bit (p) backed by an exact match counter (cnt): the p-bit of an
 * entry is set exactly when at least one cached coherence unit's address
 * matches the entry's slice value.
 *
 * A snoop probes only the N p-bits; if any is zero the unit cannot be
 * cached (the intersection of N supersets is a superset), so the snoop is
 * filtered. L2 fills increment and evictions decrement the N counters,
 * keeping the encoding coherent -- this is a counting-Bloom-filter
 * construction with structured (non-hashed) index functions.
 */

#ifndef JETTY_CORE_INCLUDE_JETTY_HH
#define JETTY_CORE_INCLUDE_JETTY_HH

#include <cstdint>

#include "core/snoop_filter.hh"
#include "util/arena.hh"

namespace jetty::filter
{

/** Which address bits feed the sub-array index generators. */
enum class IjIndexBase : std::uint8_t
{
    /** Start just above the L2 block offset (the paper's choice: the
     *  subblock-select bit does not participate in indexing). */
    Block,

    /** Start just above the coherence-unit offset (finer; distinguishes
     *  subblocks of one block). Exposed for the ablation study. */
    Unit,
};

/** Configuration of an IJ-ExNxS organization. */
struct IncludeJettyConfig
{
    unsigned entryBits = 10;  //!< E: log2 entries per sub-array
    unsigned arrays = 4;      //!< N: number of sub-arrays
    unsigned skipBits = 7;    //!< S: index-slice stride (S < E overlaps)
    IjIndexBase base = IjIndexBase::Block;
};

/** The include-JETTY. */
class IncludeJetty : public SnoopFilter
{
  public:
    IncludeJetty(const IncludeJettyConfig &cfg, const AddressMap &amap);

    bool probe(Addr unitAddr) override;
    void onSnoopMiss(Addr, bool) override {}
    void onFill(Addr unitAddr) override;
    void onEvict(Addr unitAddr) override;

    StorageBreakdown storage() const override;
    energy::FilterEnergyCosts
    energyCosts(const energy::Technology &tech) const override;
    std::string name() const override;

    /** Pessimistic counter width in bits (all units may match one entry). */
    unsigned counterBits() const { return counterBits_; }

    /** The index of sub-array @p i for @p unitAddr (exposed for tests). */
    std::uint64_t indexOf(Addr unitAddr, unsigned i) const;

    /** Shape of one p-bit array as rows x cols (Table 4's organization:
     *  a 2^E-bit array folded into a near-square register-file shape). */
    void pbitArrayShape(std::uint64_t &rows, std::uint64_t &cols) const;

  private:
    /** Flat slot of (array @p i, entry @p e). */
    std::size_t
    slotOf(unsigned i, std::uint64_t e) const
    {
        return (static_cast<std::size_t>(i) << cfg_.entryBits) | e;
    }

    IncludeJettyConfig cfg_;
    AddressMap amap_;
    unsigned baseOffsetBits_;
    unsigned counterBits_;
    /** Flat [array << entryBits | entry] layout: the N sub-arrays sit
     *  contiguously, so an update walks one allocation. */
    util::AlignedVec<std::uint32_t> counts_;
    /** The p-bits proper, packed 64 per word and kept exactly equal to
     *  (count != 0) — the tiny array a snoop actually reads (Figure
     *  3b/c separates p-bit and cnt arrays the same way), so a probe
     *  touches N bits instead of N counters. */
    util::AlignedVec<std::uint64_t> pbits_;
};

} // namespace jetty::filter

#endif // JETTY_CORE_INCLUDE_JETTY_HH
