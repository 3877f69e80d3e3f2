#include "api/report.hh"

#include <cstdio>

#include "sim/latency.hh"
#include "trace/trace_file.hh"

namespace jetty::api
{

namespace
{

/** The host's widest vector ISA and its width in 64-bit lanes. */
struct HostIsa
{
    const char *name;
    unsigned lanesU64;
};

HostIsa
hostIsa()
{
#if defined(__x86_64__) || defined(__SSE2__)
    return __builtin_cpu_supports("avx2") ? HostIsa{"avx2", 4}
                                          : HostIsa{"sse2", 2};
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
    return {"neon", 2};
#else
    return {"scalar", 1};
#endif
}

} // namespace

Report::Report(const std::string &kind)
{
    root_ = json::Value::object();
    root_.set("jetty_report", kVersion);
    root_.set("kind", kind);
    // Host provenance: the vector ISA of the machine that produced these
    // numbers. Simulated numbers never depend on it, but committed
    // BENCH_*.json timings do, and bench_compare notes when a fresh
    // report's host differs from the baseline's.
    static const HostIsa host = hostIsa();
    root_.set("simd_isa", host.name);
    root_.set("simd_width", host.lanesU64);
}

void
Report::echoSpec(const ExperimentSpec &spec)
{
    root_.set("spec", spec.toJson());
}

void
Report::writeFile(const std::string &path) const
{
    json::writeFile(path, root_);
}

json::Value
Report::archNode(const sim::SimStats &stats)
{
    const auto agg = stats.aggregate();
    json::Value arch = json::Value::object();
    arch.set("accesses", agg.accesses);
    arch.set("reads", agg.reads);
    arch.set("writes", agg.writes);
    arch.set("l1_hits", agg.l1Hits);
    arch.set("l1_misses", agg.l1Misses);
    arch.set("l2_local_accesses", agg.l2LocalAccesses);
    arch.set("l2_local_hits", agg.l2LocalHits);
    arch.set("l2_fills", agg.l2Fills);
    arch.set("bus_reads", agg.busReads);
    arch.set("bus_readxs", agg.busReadXs);
    arch.set("bus_upgrades", agg.busUpgrades);
    arch.set("snoop_transactions", stats.snoopTransactions);
    arch.set("snoop_tag_probes", agg.snoopTagProbes);
    arch.set("snoop_hits", agg.snoopHits);
    arch.set("snoop_misses", agg.snoopMisses);
    arch.set("wb_insertions", agg.wbInsertions);
    arch.set("wb_reclaims", agg.wbReclaims);
    return arch;
}

json::Value
Report::perBusNode(const sim::SimStats &stats)
{
    json::Value buses = json::Value::array();
    for (std::size_t b = 0; b < stats.perBus.size(); ++b) {
        const auto &bus = stats.perBus[b];
        json::Value row = json::Value::object();
        row.set("bus", static_cast<std::uint64_t>(b));
        row.set("transactions", bus.transactions);
        row.set("reads", bus.reads);
        row.set("readxs", bus.readXs);
        row.set("upgrades", bus.upgrades);
        if (b < stats.busSnoopTagProbes.size())
            row.set("snoop_tag_probes", stats.busSnoopTagProbes[b]);
        buses.push(std::move(row));
    }
    return buses;
}

json::Value
Report::timingNode(std::uint64_t refs, double seconds,
                   bool refsTooFewForRate)
{
    json::Value t = json::Value::object();
    t.set("refs", refs);
    t.set("sim_seconds", seconds);
    if (!refsTooFewForRate && seconds > 0)
        t.set("refs_per_sec", static_cast<double>(refs) / seconds);
    else
        t.set("refs_per_sec", json::Value());
    return t;
}

json::Value
Report::ratio(double num, double denom)
{
    return denom > 0 ? json::Value(num / denom) : json::Value();
}

json::Value
Report::runNode(const experiments::AppRunResult &run,
                const experiments::SystemVariant &variant,
                const std::vector<std::string> &specs)
{
    json::Value node = json::Value::object();
    node.set("app", run.appName);
    node.set("abbrev", run.abbrev);

    json::Value m = json::Value::object();
    m.set("procs", variant.nprocs);
    m.set("buses", variant.snoopBuses);
    m.set("subblocked", variant.subblocked);
    node.set("machine", std::move(m));

    node.set("timing", timingNode(run.totalRefs, run.simSeconds,
                                  run.refsTooFewForRate));
    node.set("arch", archNode(run.stats));
    node.set("per_bus", perBusNode(run.stats));

    json::Value filters = json::Value::array();
    for (const auto &spec : specs) {
        const auto &fs = run.statsFor(spec);
        const auto s = experiments::evaluateEnergy(
            run, variant, spec, energy::AccessMode::Serial);
        const auto p = experiments::evaluateEnergy(
            run, variant, spec, energy::AccessMode::Parallel);
        const auto lat = sim::evaluateLatency(fs);

        json::Value row = json::Value::object();
        row.set("spec", spec);
        row.set("coverage", fs.coverage());
        json::Value serial = json::Value::object();
        serial.set("snoop_reduction_pct", s.reductionOverSnoopsPct);
        serial.set("all_reduction_pct", s.reductionOverAllPct);
        json::Value parallel = json::Value::object();
        parallel.set("snoop_reduction_pct", p.reductionOverSnoopsPct);
        parallel.set("all_reduction_pct", p.reductionOverAllPct);
        json::Value energyNode = json::Value::object();
        energyNode.set("serial", std::move(serial));
        energyNode.set("parallel", std::move(parallel));
        row.set("energy", std::move(energyNode));
        row.set("mean_snoop_latency_cycles", lat.jettyMeanCycles);
        filters.push(std::move(row));
    }
    node.set("filters", std::move(filters));
    return node;
}

json::Value
Report::traceDigestsNode(const std::vector<std::string> &files)
{
    json::Value arr = json::Value::array();
    for (const auto &file : files) {
        json::Value row = json::Value::object();
        row.set("path", file);
        char digest[32];
        std::snprintf(digest, sizeof(digest), "0x%016llx",
                      static_cast<unsigned long long>(
                          trace::traceFileDigest(file)));
        row.set("digest", digest);
        arr.push(std::move(row));
    }
    return arr;
}

} // namespace jetty::api
