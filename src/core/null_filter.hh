/**
 * @file
 * The no-op filter: never filters anything. Used as the baseline
 * configuration and as a placeholder in systems without a JETTY.
 */

#ifndef JETTY_CORE_NULL_FILTER_HH
#define JETTY_CORE_NULL_FILTER_HH

#include "core/snoop_filter.hh"

namespace jetty::filter
{

/** A filter that always answers "may be cached". */
class NullFilter : public SnoopFilter
{
  public:
    bool probe(Addr) override { return false; }
    void onSnoopMiss(Addr, bool) override {}
    void onFill(Addr) override {}
    void onEvict(Addr) override {}

    StorageBreakdown storage() const override { return StorageBreakdown{}; }

    energy::FilterEnergyCosts
    energyCosts(const energy::Technology &) const override
    {
        return energy::FilterEnergyCosts{};
    }

    std::string name() const override { return "NULL"; }
};

} // namespace jetty::filter

#endif // JETTY_CORE_NULL_FILTER_HH
