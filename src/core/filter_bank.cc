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
      snoopBuses_(snoopBuses >= 1 ? snoopBuses : 1)
{
    queued_.busQueues.resize(snoopBuses_);
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

std::size_t
FilterBank::Pending::events() const
{
    std::size_t n = 0;
    for (const auto &q : busQueues)
        n += q.size();
    return n;
}

void
FilterBank::Pending::clear()
{
    for (auto &q : busQueues)
        q.clear();
    chunkEnds.clear();
}

void
FilterBank::endDeferred()
{
    flushDeferred();
    deferred_ = false;
}

void
FilterBank::sealChunk()
{
    if (snoopBuses_ == 1)
        return;
    // A chunk that queued nothing needs no mark, so a run that rarely
    // queues keeps few marks however long it is.
    auto &ends = queued_.chunkEnds;
    const std::size_t last = ends.size();
    bool grew = false;
    for (std::size_t b = 0; b < snoopBuses_; ++b) {
        const std::size_t prev = last ? ends[last - snoopBuses_ + b] : 0;
        grew = grew || queued_.busQueues[b].size() != prev;
    }
    if (!grew)
        return;
    for (const auto &q : queued_.busQueues)
        ends.push_back(static_cast<std::uint32_t>(q.size()));
}

void
FilterBank::take(Pending &out)
{
    out.clear();
    out.busQueues.resize(snoopBuses_);
    std::swap(out, queued_);
}

void
FilterBank::replay(Pending &batch)
{
    // Chunk-major, bus-major within a chunk: each filter sees chunk 0's
    // bus 0 events, then its bus 1 events, ..., then chunk 1's — the
    // deterministic cross-bus order the split-bus contract documents
    // (DESIGN.md); with one bus this is the capture order. The events
    // after the last mark form the final chunk. Within a range each
    // family walks the events once, event-major over its filters;
    // filters are independent, so this is result-identical to replaying
    // every filter alone.
    const std::size_t buses = batch.busQueues.size();
    const std::size_t marked = buses ? batch.chunkEnds.size() / buses : 0;
    for (std::size_t c = 0; c <= marked; ++c) {
        for (std::size_t b = 0; b < buses; ++b) {
            const auto &q = batch.busQueues[b];
            const std::size_t begin =
                c == 0 ? 0 : batch.chunkEnds[(c - 1) * buses + b];
            const std::size_t end =
                c < marked ? batch.chunkEnds[c * buses + b] : q.size();
            if (end == begin)
                continue;
            for (const auto &g : groups_) {
                g.filters.front()->applyBatch(g.filters.data(),
                                              g.stats.data(), g.filters.size(),
                                              q.data() + begin, end - begin);
            }
        }
    }
    batch.clear();
    // A checking bank panics on its first violation, so any counted one
    // is new in this replay.
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
