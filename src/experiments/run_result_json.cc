#include "experiments/run_result_json.hh"

#include <utility>

namespace jetty::experiments
{

namespace
{

// Field lists shared by the writer and the reader, keyed by member
// name, so the two directions cannot drift apart.
#define JETTY_PROC_STAT_FIELDS(X)                                            \
    X(accesses)                                                              \
    X(reads)                                                                 \
    X(writes)                                                                \
    X(l1Hits)                                                                \
    X(l1Misses)                                                              \
    X(l1Writebacks)                                                          \
    X(l1SnoopInvalidations)                                                  \
    X(l2LocalAccesses)                                                       \
    X(l2LocalHits)                                                           \
    X(l2Fills)                                                               \
    X(l2Evictions)                                                           \
    X(upgradesSilent)                                                        \
    X(busReads)                                                              \
    X(busReadXs)                                                             \
    X(busUpgrades)                                                           \
    X(busWritebacks)                                                         \
    X(snoopTagProbes)                                                        \
    X(snoopHits)                                                             \
    X(snoopMisses)                                                           \
    X(snoopSupplies)                                                         \
    X(wbInsertions)                                                          \
    X(wbSnoopsHit)                                                           \
    X(wbReclaims)                                                            \
    X(wbDrains)

#define JETTY_L2_TRAFFIC_FIELDS(X)                                           \
    X(localTagProbes)                                                        \
    X(localTagUpdates)                                                       \
    X(localDataReads)                                                        \
    X(localDataWrites)                                                       \
    X(snoopTagProbes)                                                        \
    X(snoopTagUpdates)                                                       \
    X(snoopDataReads)

#define JETTY_FILTER_STAT_FIELDS(X)                                          \
    X(probes)                                                                \
    X(filtered)                                                              \
    X(wouldMiss)                                                             \
    X(filteredWouldMiss)                                                     \
    X(snoopAllocs)                                                           \
    X(fillUpdates)                                                           \
    X(evictUpdates)                                                          \
    X(safetyViolations)

#define JETTY_FILTER_COST_FIELDS(X)                                          \
    X(probe)                                                                 \
    X(snoopAlloc)                                                            \
    X(fillUpdate)                                                            \
    X(evictUpdate)

#define JETTY_BUS_STAT_FIELDS(X)                                             \
    X(transactions)                                                          \
    X(reads)                                                                 \
    X(readXs)                                                                \
    X(upgrades)

json::Value
trafficToJson(const energy::L2Traffic &t)
{
    json::Value v = json::Value::object();
#define X(f) v.set(#f, t.f);
    JETTY_L2_TRAFFIC_FIELDS(X)
#undef X
    return v;
}

void
trafficFromJson(json::FieldReader &rd, const json::Value &v,
                energy::L2Traffic &t)
{
#define X(f) rd.u64(v, #f, t.f);
    JETTY_L2_TRAFFIC_FIELDS(X)
#undef X
}

json::Value
procToJson(const sim::ProcStats &p)
{
    json::Value v = json::Value::object();
#define X(f) v.set(#f, p.f);
    JETTY_PROC_STAT_FIELDS(X)
#undef X
    v.set("traffic", trafficToJson(p.traffic));
    return v;
}

void
procFromJson(json::FieldReader &rd, const json::Value &v,
             sim::ProcStats &p)
{
#define X(f) rd.u64(v, #f, p.f);
    JETTY_PROC_STAT_FIELDS(X)
#undef X
    rd.nested(v, "traffic", [&](const json::Value &t) {
        trafficFromJson(rd, t, p.traffic);
    });
}

json::Value
statsToJson(const sim::SimStats &s)
{
    json::Value v = json::Value::object();
    json::Value procs = json::Value::array();
    for (const auto &p : s.procs)
        procs.push(procToJson(p));
    v.set("procs", std::move(procs));

    json::Value remote = json::Value::object();
    json::Value counts = json::Value::array();
    for (std::size_t i = 0; i < s.remoteHits.buckets(); ++i)
        counts.push(s.remoteHits.count(i));
    remote.set("counts", std::move(counts));
    remote.set("total", s.remoteHits.total());
    v.set("remoteHits", std::move(remote));

    v.set("snoopTransactions", s.snoopTransactions);

    json::Value per_bus = json::Value::array();
    for (const auto &b : s.perBus) {
        json::Value bus = json::Value::object();
#define X(f) bus.set(#f, b.f);
        JETTY_BUS_STAT_FIELDS(X)
#undef X
        per_bus.push(std::move(bus));
    }
    v.set("perBus", std::move(per_bus));

    json::Value probes = json::Value::array();
    for (const auto p : s.busSnoopTagProbes)
        probes.push(p);
    v.set("busSnoopTagProbes", std::move(probes));
    return v;
}

void
statsFromJson(json::FieldReader &rd, const json::Value &v,
              sim::SimStats &out)
{
    // Every member below is read or the reader fails, so the sizes the
    // constructor picks are all replaced on success.
    sim::SimStats stats(0, 0);
    rd.items(v, "procs", [&](const json::Value &p) {
        procFromJson(rd, p, stats.procs.emplace_back());
    });

    rd.nested(v, "remoteHits", [&](const json::Value &remote) {
        std::vector<std::uint64_t> counts;
        std::uint64_t total = 0;
        rd.u64Vector(remote, "counts", counts);
        rd.u64(remote, "total", total);
        if (rd.ok())
            stats.remoteHits = Histogram::fromRaw(std::move(counts), total);
    });

    rd.u64(v, "snoopTransactions", stats.snoopTransactions);

    rd.items(v, "perBus", [&](const json::Value &item) {
        sim::BusStats &bus = stats.perBus.emplace_back();
#define X(f) rd.u64(item, #f, bus.f);
        JETTY_BUS_STAT_FIELDS(X)
#undef X
    });
    rd.u64Vector(v, "busSnoopTagProbes", stats.busSnoopTagProbes);
    if (rd.ok())
        out = std::move(stats);
}

} // namespace

json::Value
runResultToJson(const AppRunResult &result)
{
    json::Value v = json::Value::object();
    v.set("appName", result.appName);
    v.set("abbrev", result.abbrev);
    v.set("memoryAllocated", result.memoryAllocated);
    v.set("totalRefs", result.totalRefs);
    v.set("simSeconds", result.simSeconds);
    v.set("refsTooFewForRate", result.refsTooFewForRate);
    v.set("stats", statsToJson(result.stats));

    json::Value filters = json::Value::array();
    for (std::size_t i = 0; i < result.filterNames.size(); ++i) {
        json::Value f = json::Value::object();
        f.set("name", result.filterNames[i]);
        json::Value stats = json::Value::object();
#define X(fld) stats.set(#fld, result.filterStats[i].fld);
        JETTY_FILTER_STAT_FIELDS(X)
#undef X
        f.set("stats", std::move(stats));
        json::Value costs = json::Value::object();
#define X(fld) costs.set(#fld, result.filterCosts[i].fld);
        JETTY_FILTER_COST_FIELDS(X)
#undef X
        f.set("costs", std::move(costs));
        filters.push(std::move(f));
    }
    v.set("filters", std::move(filters));
    v.set("traffic", trafficToJson(result.traffic));
    return v;
}

void
runResultFromJson(json::FieldReader &rd, const json::Value &v,
                  AppRunResult &out)
{
    AppRunResult res;
    rd.str(v, "appName", res.appName);
    rd.str(v, "abbrev", res.abbrev);
    rd.u64(v, "memoryAllocated", res.memoryAllocated);
    rd.u64(v, "totalRefs", res.totalRefs);
    rd.dbl(v, "simSeconds", res.simSeconds);
    rd.boolean(v, "refsTooFewForRate", res.refsTooFewForRate);
    rd.nested(v, "stats", [&](const json::Value &stats) {
        statsFromJson(rd, stats, res.stats);
    });

    rd.items(v, "filters", [&](const json::Value &item) {
        rd.str(item, "name", res.filterNames.emplace_back());
        rd.nested(item, "stats", [&](const json::Value &stats) {
            filter::FilterStats &fs = res.filterStats.emplace_back();
#define X(fld) rd.u64(stats, #fld, fs.fld);
            JETTY_FILTER_STAT_FIELDS(X)
#undef X
        });
        rd.nested(item, "costs", [&](const json::Value &costs) {
            energy::FilterEnergyCosts &fc = res.filterCosts.emplace_back();
#define X(fld) rd.dbl(costs, #fld, fc.fld);
            JETTY_FILTER_COST_FIELDS(X)
#undef X
        });
    });
    rd.nested(v, "traffic", [&](const json::Value &traffic) {
        trafficFromJson(rd, traffic, res.traffic);
    });

    if (rd.ok())
        out = std::move(res);
}

} // namespace jetty::experiments
