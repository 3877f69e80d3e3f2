#include "core/filter_bank.hh"

#include <typeinfo>

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
    // Group by dynamic type, in order of first appearance; each group
    // keeps its members' bank order and stats slots.
    for (std::size_t i = 0; i < filters_.size(); ++i) {
        SnoopFilter &f = *filters_[i];
        ReplayGroup *group = nullptr;
        for (auto &g : groups_) {
            const SnoopFilter &first = *g.filters.front();
            if (typeid(first) == typeid(f)) {
                group = &g;
                break;
            }
        }
        if (!group)
            group = &groups_.emplace_back();
        group->filters.push_back(&f);
        group->stats.push_back(&stats_[i]);
    }
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
    // this is the original total order. Within a queue each family
    // walks the events once, event-major over its filters; filters are
    // independent, so this is result-identical to replaying every
    // filter alone.
    for (auto &queue : busQueues_) {
        if (queue.empty())
            continue;
        for (const auto &g : groups_) {
            g.filters.front()->applyBatch(g.filters.data(), g.stats.data(),
                                          g.filters.size(), queue.data(),
                                          queue.size());
        }
        queue.clear();
    }
    // A checking bank panics on its first violation, so any counted one
    // is new in this flush.
    if (!checkSafety_)
        return;
    for (std::size_t i = 0; i < filters_.size(); ++i) {
        if (stats_[i].safetyViolations != 0) {
            panic("JETTY safety violation: " + filters_[i]->name() +
                  " filtered a snoop to a cached unit");
        }
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
