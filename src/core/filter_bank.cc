#include "core/filter_bank.hh"

#include "core/filter_spec.hh"
#include "util/logging.hh"

namespace jetty::filter
{

FilterBank::FilterBank(const std::vector<std::string> &specs,
                       const AddressMap &amap, bool checkSafety,
                       unsigned snoopBuses)
    : amap_(amap), checkSafety_(checkSafety),
      snoopBuses_(snoopBuses >= 1 ? snoopBuses : 1),
      busQueues_(snoopBuses_)
{
    filters_.reserve(specs.size());
    for (const auto &spec : specs)
        filters_.push_back(makeFilter(spec, amap));
    stats_.resize(filters_.size());
}

void
FilterBank::observeSnoop(Addr unitAddr, bool unitInL2, bool blockInL2)
{
    if (deferred_) {
        deferSnoop(homeBusOf(unitAddr), unitAddr, unitInL2, blockInL2);
        return;
    }

    // Hot path: one call per filter per snoop per remote node. The
    // ground truth is identical for every filter, so the branch on it is
    // hoisted out of the loop; the counters each arm bumps are exactly
    // those of the straightforward per-filter version. The observer is
    // likewise hoisted into one register-held pointer, so the unobserved
    // bank pays a single never-taken branch per filter.
    const std::size_t n = filters_.size();
    FilterProbeObserver *const obs = probeObserver_;
    if (unitInL2) {
        // Cached here: no filter may claim "not cached".
        for (std::size_t i = 0; i < n; ++i) {
            FilterStats &st = stats_[i];
            ++st.probes;
            const bool filtered = filters_[i]->probe(unitAddr);
            if (obs)
                obs->onFilterProbe(
                    {owner_, i, unitAddr, true, blockInL2, filtered});
            if (filtered) {
                ++st.filtered;
                ++st.safetyViolations;
                if (checkSafety_) {
                    panic("JETTY safety violation: " + filters_[i]->name() +
                          " filtered a snoop to a cached unit");
                }
            }
        }
        return;
    }
    // True miss everywhere: filtering is the win, and unfiltered misses
    // feed the exclude components' allocation streams.
    for (std::size_t i = 0; i < n; ++i) {
        FilterStats &st = stats_[i];
        ++st.probes;
        ++st.wouldMiss;
        const bool filtered = filters_[i]->probe(unitAddr);
        if (obs)
            obs->onFilterProbe(
                {owner_, i, unitAddr, false, blockInL2, filtered});
        if (filtered) {
            ++st.filtered;
            ++st.filteredWouldMiss;
        } else {
            filters_[i]->onSnoopMiss(unitAddr, blockInL2);
            ++st.snoopAllocs;
        }
    }
}

void
FilterBank::setProbeObserver(FilterProbeObserver *obs, ProcId owner)
{
    // Observed banks observe immediately and in stream order; entering
    // (or being in) deferred mode with an observer attached would starve
    // it. SmpSystem routes observed runs through the immediate path, so
    // both of these are caller bugs, caught loudly.
    if (obs && deferred_)
        panic("FilterBank: cannot attach a probe observer while deferred");
    probeObserver_ = obs;
    owner_ = owner;
}

void
FilterBank::beginDeferred()
{
    if (probeObserver_)
        panic("FilterBank: cannot defer while a probe observer is attached");
    deferred_ = true;
}

void
FilterBank::endDeferred()
{
    flushDeferred();
    deferred_ = false;
}

void
FilterBank::flushDeferred()
{
    // Bus-major replay: each filter sees bus 0's events first, then bus
    // 1's, each queue in capture order — the deterministic cross-bus
    // order the split-bus contract documents (DESIGN.md); with one bus
    // this is the original total order. The filter loop is outermost so
    // one filter's arrays stay hot across every bus queue of the flush
    // (filters are independent, so this ordering is result-identical to
    // flushing queue by queue).
    bool any = false;
    for (const auto &queue : busQueues_)
        any = any || !queue.empty();
    if (!any)
        return;
    for (std::size_t i = 0; i < filters_.size(); ++i) {
        FilterStats &st = stats_[i];
        SnoopFilter *const f = filters_[i].get();
        const std::uint64_t violations_before = st.safetyViolations;
        for (const auto &queue : busQueues_)
            f->applyBatch(queue.data(), queue.size(), st);
        if (checkSafety_ && st.safetyViolations != violations_before) {
            panic("JETTY safety violation: " + f->name() +
                  " filtered a snoop to a cached unit");
        }
    }
    for (auto &queue : busQueues_)
        queue.clear();
}

void
FilterBank::unitFilled(Addr unitAddr)
{
    if (deferred_) {
        busQueues_[homeBusOf(unitAddr)].push_back(
            {unitAddr, BankEvent::Kind::Fill, false, false});
        return;
    }
    for (std::size_t i = 0; i < filters_.size(); ++i) {
        filters_[i]->onFill(unitAddr);
        ++stats_[i].fillUpdates;
    }
}

void
FilterBank::unitEvicted(Addr unitAddr)
{
    if (deferred_) {
        busQueues_[homeBusOf(unitAddr)].push_back(
            {unitAddr, BankEvent::Kind::Evict, false, false});
        return;
    }
    for (std::size_t i = 0; i < filters_.size(); ++i) {
        filters_[i]->onEvict(unitAddr);
        ++stats_[i].evictUpdates;
    }
}

int
FilterBank::indexOf(const std::string &name) const
{
    for (std::size_t i = 0; i < filters_.size(); ++i) {
        if (filters_[i]->name() == name)
            return static_cast<int>(i);
    }
    return -1;
}

} // namespace jetty::filter
