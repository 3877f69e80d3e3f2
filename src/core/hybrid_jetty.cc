#include "core/hybrid_jetty.hh"

#include "util/logging.hh"

namespace jetty::filter
{

HybridJetty::HybridJetty(SnoopFilterPtr includePart,
                         SnoopFilterPtr excludePart)
    : include_(std::move(includePart)), exclude_(std::move(excludePart))
{
    if (!include_ || !exclude_)
        fatal("HybridJetty: both components are required");
}

bool
HybridJetty::probe(Addr unitAddr)
{
    // Both components are probed in parallel in hardware (Section 3.3
    // keeps the latency at one probe); energyCosts() charges both, so we
    // must evaluate both here too rather than short-circuiting.
    const bool ij = include_->probe(unitAddr);
    const bool ej = exclude_->probe(unitAddr);
    return ij || ej;
}

void
HybridJetty::onSnoopMiss(Addr unitAddr, bool blockPresent)
{
    // This is only called for snoops the hybrid failed to filter, i.e.
    // exactly the misses the IJ leaked: allocate them in the EJ.
    exclude_->onSnoopMiss(unitAddr, blockPresent);
}

void
HybridJetty::onFill(Addr unitAddr)
{
    include_->onFill(unitAddr);
    exclude_->onFill(unitAddr);
}

void
HybridJetty::onEvict(Addr unitAddr)
{
    include_->onEvict(unitAddr);
    exclude_->onEvict(unitAddr);
}

StorageBreakdown
HybridJetty::storage() const
{
    StorageBreakdown s = include_->storage();
    const StorageBreakdown e = exclude_->storage();
    s.presenceBits += e.presenceBits;
    s.counterBits += e.counterBits;
    return s;
}

energy::FilterEnergyCosts
HybridJetty::energyCosts(const energy::Technology &tech) const
{
    const auto i = include_->energyCosts(tech);
    const auto e = exclude_->energyCosts(tech);
    energy::FilterEnergyCosts costs;
    costs.probe = i.probe + e.probe;
    costs.snoopAlloc = i.snoopAlloc + e.snoopAlloc;
    costs.fillUpdate = i.fillUpdate + e.fillUpdate;
    costs.evictUpdate = i.evictUpdate + e.evictUpdate;
    return costs;
}

std::string
HybridJetty::name() const
{
    return "HJ(" + include_->name() + "," + exclude_->name() + ")";
}

} // namespace jetty::filter
