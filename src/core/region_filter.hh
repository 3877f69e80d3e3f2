/**
 * @file
 * Coarse-grain region filter: an extension in the direction the paper's
 * conclusion sketches ("other applications of snoop-filtering structures
 * such as JETTY might be possible") and that later work (RegionScout,
 * Moshovos 2005) developed. It is an include-style filter at *region*
 * granularity: a small counting table, indexed by hashed region number,
 * whose zero entries guarantee that no coherence unit of any matching
 * region is cached. Coarse regions make a tiny table cover a huge address
 * range, trading per-block precision for reach -- strong on workloads
 * whose sharing is region-disjoint (private heaps), weak when hot and
 * cold data share regions.
 *
 * Spec string: "RF-<E>x<R>" = 2^E counting entries over 2^R-byte regions
 * (e.g. "RF-8x10" = 256 entries, 1 KiB regions).
 */

#ifndef JETTY_CORE_REGION_FILTER_HH
#define JETTY_CORE_REGION_FILTER_HH

#include <cstdint>
#include <vector>

#include "core/snoop_filter.hh"

namespace jetty::filter
{

/** Configuration of an RF-ExR organization. */
struct RegionFilterConfig
{
    unsigned entryBits = 8;    //!< log2 of counting entries
    unsigned regionBits = 10;  //!< log2 of region bytes
};

/** The coarse region filter. */
class RegionFilter : public SnoopFilter
{
  public:
    RegionFilter(const RegionFilterConfig &cfg, const AddressMap &amap);

    bool probe(Addr unitAddr) override;
    void onSnoopMiss(Addr, bool) override {}
    void onFill(Addr unitAddr) override;
    void onEvict(Addr unitAddr) override;

    StorageBreakdown storage() const override;
    energy::FilterEnergyCosts
    energyCosts(const energy::Technology &tech) const override;
    std::string name() const override;

    /** Table index of @p unitAddr's region (exposed for tests). */
    std::uint64_t indexOf(Addr unitAddr) const;

  private:
    RegionFilterConfig cfg_;
    AddressMap amap_;
    unsigned counterBits_;
    std::vector<std::uint32_t> counts_;
};

} // namespace jetty::filter

#endif // JETTY_CORE_REGION_FILTER_HH
