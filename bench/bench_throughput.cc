/**
 * @file
 * Throughput bench: sustained refs/sec of SmpSystem::run() against
 * step(), the per-reference oracle the tree maintains, at 1, 2 and 4
 * snoop buses.
 *
 * Both sides drive the same synthesized Workload::makeSource streams:
 *  - step(): `while (sys.step()) {}` — one reference per live processor
 *    per sweep through processorAccess(), each filter-bank event
 *    replayed as soon as it is queued;
 *  - run(): the batched walk (DESIGN.md "The run() walk") with the
 *    banks' sealed batches replayed on run()'s helper thread.
 * At each bus count the two alternate, so slow phases of a shared host
 * hit both sides alike, and `speedup_vs_step` divides step()'s median
 * time by run()'s: every ratio measures code the tree still runs. It
 * is two threads against one: run() overlaps the filter replay with
 * the walk, step() replays inline, so a ratio counts the overlap too
 * and shrinks when the helper gets no core of its own (a thread whose
 * affinity mask holds one CPU replays inline, per chunk).
 *
 * Workloads (all 4-processor, paper base system, default filter trio
 * unless noted):
 *  - delivery-bound: a cache-friendly synthetic profile whose references
 *    almost always hit the L1, isolating the delivery path itself;
 *  - fm / lu: the best- and mid-locality paper apps, lu snoop-bound;
 *  - em-fig4: em, the straggler of the Figure 4 campaign, under Figure
 *    4's ten EJ/VEJ filters, so the deferred replay runs families of
 *    many filters (the trio has one filter per family).
 *
 * Correctness gates, checked before any number is reported:
 *  - step() vs run() at each bus count: every architectural counter,
 *    snoopTransactions and the machine snapshot agree; at 1 bus every
 *    filter statistic is bit-identical too;
 *  - 2 and 4 buses: machine snapshot, architectural counters and
 *    snoopTransactions equal the 1-bus run;
 *  - no filter ever reports a safety violation.
 *
 * Writes BENCH_throughput.json (override with --out; field reference in
 * DESIGN.md). --smoke shrinks the run for CI and skips the file unless
 * --out is given explicitly.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/report.hh"
#include "core/filter_spec.hh"
#include "experiments/experiments.hh"
#include "service/executor.hh"
#include "sim/latency.hh"
#include "sim/smp_system.hh"
#include "trace/apps.hh"
#include "trace/synthetic.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/string_utils.hh"
#include "util/table.hh"
#include "verify/golden_smp.hh"

using namespace jetty;
using Clock = std::chrono::steady_clock;

namespace
{

const std::vector<unsigned> kBusCounts = {1, 2, 4};

/**
 * A profile built to be delivery-bound: a hot resident set far smaller
 * than the L1 plus heavy temporal reuse pushes the L1 hit rate past
 * 99.8%, so nearly every reference's cost *is* the delivery path.
 */
trace::AppProfile
deliveryBoundProfile(std::uint64_t accessesPerProc)
{
    trace::AppProfile p;
    p.name = "DeliveryBound";
    p.abbrev = "db";
    p.accessesPerProc = accessesPerProc;
    p.reuseProb = 0.97;
    p.wordBytes = 4;
    p.seed = 4242;
    trace::StreamSpec s;
    s.kind = trace::StreamKind::Private;
    s.weight = 1.0;
    s.bytes = 512 * 1024;
    s.residentBytes = 48 * 1024;
    s.residentFraction = 0.97;
    s.residentHotBias = 0.6;
    s.writeFraction = 0.3;
    p.streams = {s};
    return p;
}

/** Simulate @p workload on a fresh system, through step() when
 *  @p stepwise, else run(); only the drive loop is timed. */
std::unique_ptr<sim::SmpSystem>
simulate(const sim::SmpConfig &cfg, const trace::Workload &workload,
         bool stepwise, std::vector<double> &seconds)
{
    auto sys = std::make_unique<sim::SmpSystem>(cfg);
    std::vector<trace::TraceSourcePtr> sources;
    for (unsigned p = 0; p < cfg.nprocs; ++p)
        sources.push_back(workload.makeSource(p));
    sys->attachSources(std::move(sources));
    const auto t0 = Clock::now();
    if (stepwise) {
        while (sys->step()) {
        }
    } else {
        sys->run();
    }
    seconds.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    return sys;
}

/** Every architectural counter, snoopTransactions and the machine
 *  snapshot of two runs must agree exactly, and neither may see a safety
 *  violation; @p andFilters additionally requires bit-identical filter
 *  stats. */
void
requireIdentical(const sim::SmpSystem &a, const sim::SmpSystem &b,
                 const std::string &what, bool andFilters)
{
    const auto x = a.stats().aggregate();
    const auto y = b.stats().aggregate();
    if (x.accesses != y.accesses || x.l1Hits != y.l1Hits ||
        x.l1Misses != y.l1Misses || x.l2LocalHits != y.l2LocalHits ||
        x.l2Fills != y.l2Fills || x.snoopTagProbes != y.snoopTagProbes ||
        x.snoopHits != y.snoopHits || x.snoopMisses != y.snoopMisses ||
        x.busReads != y.busReads || x.busReadXs != y.busReadXs ||
        x.busUpgrades != y.busUpgrades ||
        x.wbInsertions != y.wbInsertions ||
        x.wbReclaims != y.wbReclaims ||
        a.stats().snoopTransactions != b.stats().snoopTransactions) {
        fatal("bench_throughput: " + what + " diverged architecturally");
    }
    const std::string state_diff =
        verify::diffSnapshots(verify::snapshotOf(a), verify::snapshotOf(b));
    if (!state_diff.empty())
        fatal("bench_throughput: " + what + " machine state diverged:\n" +
              state_diff);
    for (std::size_t f = 0; f < a.bank(0).size(); ++f) {
        const auto fa = a.mergedFilterStats(f);
        const auto fb = b.mergedFilterStats(f);
        if (fa.safetyViolations != 0 || fb.safetyViolations != 0)
            fatal("bench_throughput: " + what + " saw a safety violation");
        if (!andFilters)
            continue;
        if (fa.probes != fb.probes || fa.filtered != fb.filtered ||
            fa.wouldMiss != fb.wouldMiss ||
            fa.filteredWouldMiss != fb.filteredWouldMiss ||
            fa.snoopAllocs != fb.snoopAllocs ||
            fa.fillUpdates != fb.fillUpdates ||
            fa.evictUpdates != fb.evictUpdates) {
            fatal("bench_throughput: " + what +
                  " filter stats diverged on " +
                  a.bank(0).filterAt(f).name());
        }
    }
}

struct BusRow
{
    unsigned buses = 0;
    double stepSeconds = 0;
    double runSeconds = 0;
    double busiestUtilization = 0;
    double busiestWaitBusCycles = 0;
    std::vector<std::uint64_t> perBusTxns;
};

struct Measurement
{
    std::uint64_t refs = 0;
    std::vector<BusRow> rows;  //!< one per bus count, 1 bus first
};

/** Median-of-@p repeats measurement of one workload under @p filters
 *  at every bus count, step() and run() alternating. */
Measurement
measure(const trace::AppProfile &profile,
        const std::vector<std::string> &filters, unsigned repeats)
{
    experiments::SystemVariant variant;
    sim::SmpConfig cfg = variant.smpConfig();
    cfg.filterSpecs = filters;
    const trace::Workload workload(profile, cfg.nprocs, 1.0);

    Measurement m;
    std::unique_ptr<sim::SmpSystem> one_bus;
    for (const unsigned buses : kBusCounts) {
        cfg.snoopBuses = buses;
        const std::string at =
            profile.abbrev + " at " + std::to_string(buses) + " bus(es)";
        std::unique_ptr<sim::SmpSystem> stepped, batched;
        std::vector<double> step_times, run_times;
        for (unsigned r = 0; r < repeats; ++r) {
            stepped = simulate(cfg, workload, true, step_times);
            batched = simulate(cfg, workload, false, run_times);
        }
        requireIdentical(*stepped, *batched, at + ": step() vs run()",
                         /*andFilters=*/buses == 1);

        BusRow row;
        row.buses = buses;
        row.stepSeconds = medianInPlace(step_times);
        row.runSeconds = medianInPlace(run_times);
        const auto contention =
            sim::evaluateBusContention(batched->stats());
        row.busiestUtilization = contention.busiestUtilization;
        row.busiestWaitBusCycles = contention.busiestWaitBusCycles;
        for (const auto &bus : batched->stats().perBus)
            row.perBusTxns.push_back(bus.transactions);
        m.rows.push_back(std::move(row));

        if (buses == 1) {
            m.refs = batched->stats().aggregate().accesses;
            one_bus = std::move(batched);
        } else {
            requireIdentical(*one_bus, *batched, at + " vs 1 bus",
                             /*andFilters=*/false);
        }
    }
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out;
    unsigned repeats = 3;
    double scale = 1.0;
    const auto usage = [] {
        std::fprintf(stderr, "usage: bench_throughput [--smoke] [--out FILE] "
                             "[--repeat N] [--scale F]\n");
        return 1;
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out = argv[++i];
        } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
            if (!parseUnsigned(argv[++i], repeats))
                return usage();
        } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
            if (!parseDouble(argv[++i], scale))
                return usage();
        } else {
            return usage();
        }
    }
    if (repeats < 1)
        repeats = 1;
    if (scale <= 0.0 || scale > 1.0) {
        std::fprintf(stderr, "bench_throughput: --scale must be in (0, 1]\n");
        return 1;
    }
    if (out.empty() && !smoke)
        out = "BENCH_throughput.json";

    // --scale shrinks only the reference counts; the working-set
    // geometry stays full-size so a reduced run (e.g. CI's perf gate)
    // still exercises the same hit/miss mix as the committed baseline.
    const std::uint64_t refsPerProc = static_cast<std::uint64_t>(
        static_cast<double>(smoke ? 400'000 : 8'000'000) * scale);
    const double appScale = (smoke ? 0.05 : 1.0) * scale;

    const std::vector<std::string> trio = service::defaultFilterSpecs();
    std::vector<std::string> figure4 = filter::paperExcludeSpecs();
    for (const auto &spec : filter::paperVectorExcludeSpecs())
        figure4.push_back(spec);
    const auto scaledApp = [appScale](const char *app) {
        trace::AppProfile p = trace::appByName(app);
        p.accessesPerProc = static_cast<std::uint64_t>(
            static_cast<double>(p.accessesPerProc) * appScale);
        return p;
    };

    struct Row
    {
        std::string name;
        std::vector<std::string> filters;
        Measurement m;
    };
    std::vector<Row> rows;
    rows.push_back({"delivery-bound", trio,
                    measure(deliveryBoundProfile(refsPerProc), trio,
                            repeats)});
    for (const char *app : {"fm", "lu"})
        rows.push_back({app, trio, measure(scaledApp(app), trio, repeats)});
    rows.push_back(
        {"em-fig4", figure4, measure(scaledApp("em"), figure4, repeats)});

    TextTable table;
    table.header({"workload", "refs", "buses", "step Mrefs/s",
                  "run Mrefs/s", "run/step", "busiest util",
                  "wait (bus cyc)"});
    for (const auto &row : rows) {
        const double refs = static_cast<double>(row.m.refs);
        for (const auto &bus : row.m.rows) {
            table.row({row.name, TextTable::count(row.m.refs),
                       std::to_string(bus.buses),
                       TextTable::num(refs / bus.stepSeconds / 1e6, 1),
                       TextTable::num(refs / bus.runSeconds / 1e6, 1),
                       TextTable::num(bus.stepSeconds / bus.runSeconds,
                                      2) + "x",
                       TextTable::num(100.0 * bus.busiestUtilization, 1) +
                           "%",
                       TextTable::num(bus.busiestWaitBusCycles, 2)});
        }
    }
    table.print();

    if (!out.empty()) {
        // One api::Report (DESIGN.md schema) with the machine, filters
        // and bus axis echoed as an ExperimentSpec.
        api::ExperimentSpec spec;
        spec.filters = service::defaultFilterSpecs();
        spec.scale = scale;
        spec.benchRepeat = repeats;
        spec.sweepBuses = kBusCounts;

        api::Report report("throughput");
        report.echoSpec(spec);
        auto &root = report.root();
        root.set("bench", "throughput");
        root.set("smoke", smoke);
        root.set("procs", 4);
        root.set("filters",
                 static_cast<std::uint64_t>(spec.filters.size()));
        root.set("repeats", repeats);
        json::Value workloads = json::Value::array();
        for (const auto &row : rows) {
            const double refs = static_cast<double>(row.m.refs);
            json::Value w = json::Value::object();
            w.set("name", row.name);
            json::Value filters = json::Value::array();
            for (const auto &f : row.filters)
                filters.push(f);
            w.set("filters", std::move(filters));
            w.set("refs", row.m.refs);
            w.set("step_refs_per_sec",
                  api::Report::ratio(refs, row.m.rows.front().stepSeconds));
            json::Value bus_rows = json::Value::array();
            for (const auto &bus : row.m.rows) {
                json::Value r = json::Value::object();
                r.set("buses", bus.buses);
                r.set("run_refs_per_sec",
                      api::Report::ratio(refs, bus.runSeconds));
                r.set("speedup_vs_step",
                      api::Report::ratio(bus.stepSeconds, bus.runSeconds));
                r.set("busiest_utilization", bus.busiestUtilization);
                r.set("busiest_wait_bus_cycles",
                      bus.busiestWaitBusCycles);
                json::Value txns = json::Value::array();
                for (const std::uint64_t t : bus.perBusTxns)
                    txns.push(t);
                r.set("per_bus_transactions", std::move(txns));
                bus_rows.push(std::move(r));
            }
            w.set("bus_rows", std::move(bus_rows));
            workloads.push(std::move(w));
        }
        root.set("workloads", std::move(workloads));
        report.writeFile(out);
        std::printf("wrote %s\n", out.c_str());
    }
    return 0;
}
