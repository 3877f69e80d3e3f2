#include "core/snoop_filter.hh"

namespace jetty::filter
{

void
FilterStats::merge(const FilterStats &o)
{
    probes += o.probes;
    filtered += o.filtered;
    wouldMiss += o.wouldMiss;
    filteredWouldMiss += o.filteredWouldMiss;
    snoopAllocs += o.snoopAllocs;
    fillUpdates += o.fillUpdates;
    evictUpdates += o.evictUpdates;
    safetyViolations += o.safetyViolations;
}

void
SnoopFilter::applyBatch(SnoopFilter *const *peers, FilterStats *const *stats,
                        std::size_t nPeers, const BankEvent *evs,
                        std::size_t n)
{
    // Generic batch path: the shared protocol over the virtual hooks,
    // so a batched replay is bit-identical to calling the hooks one
    // event at a time, for any filter type.
    replayBankEvents(
        stats, nPeers, evs, n, 0,
        [peers](std::size_t j, Addr a) { return peers[j]->probe(a); },
        [peers](std::size_t j, Addr a, bool blockPresent) {
            peers[j]->onSnoopMiss(a, blockPresent);
        },
        [peers](std::size_t j, Addr a) { peers[j]->onFill(a); },
        [peers](std::size_t j, Addr a) { peers[j]->onEvict(a); });
}

} // namespace jetty::filter
