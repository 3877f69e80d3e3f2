/**
 * @file
 * Hybrid-JETTY (Section 3.3): an Include-JETTY and an Exclude-JETTY (or
 * Vector-Exclude-JETTY) probed in parallel; either component may filter a
 * snoop. Because the IJ acts as a first-line filter, EJ entries are only
 * allocated for snoop misses the IJ failed to catch, which is exactly the
 * stream delivered to onSnoopMiss().
 */

#ifndef JETTY_CORE_HYBRID_JETTY_HH
#define JETTY_CORE_HYBRID_JETTY_HH

#include "core/snoop_filter.hh"

namespace jetty::filter
{

/** The hybrid JETTY, composed of an include part and an exclude part. */
class HybridJetty : public SnoopFilter
{
  public:
    /**
     * @param includePart the IJ component (probed in parallel).
     * @param excludePart the EJ/VEJ component (allocates on IJ leaks).
     */
    HybridJetty(SnoopFilterPtr includePart, SnoopFilterPtr excludePart);

    bool probe(Addr unitAddr) override;
    void onSnoopMiss(Addr unitAddr, bool blockPresent) override;
    void onFill(Addr unitAddr) override;
    void onEvict(Addr unitAddr) override;

    StorageBreakdown storage() const override;
    energy::FilterEnergyCosts
    energyCosts(const energy::Technology &tech) const override;
    std::string name() const override;

    /** Access to the components (for tests and ablation benches). */
    SnoopFilter &includePart() { return *include_; }
    SnoopFilter &excludePart() { return *exclude_; }

  private:
    SnoopFilterPtr include_;
    SnoopFilterPtr exclude_;
};

} // namespace jetty::filter

#endif // JETTY_CORE_HYBRID_JETTY_HH
