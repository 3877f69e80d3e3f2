/**
 * @file
 * The simulator-bound workloads, fig4-cold and assoc4-split, and the
 * per-layer probes of the simulator their traced runs report.
 *
 * The two workloads sit on either side of the walk selection by L1
 * geometry: fig4-cold (direct-mapped L1, one bus, EJ/VEJ filters) runs
 * the fused walk; assoc4-split (4-way L1, four buses, the EJ/IJ/HJ trio)
 * runs the three-stage pipeline walk and the per-bus deferred queues.
 */

#include <map>
#include <memory>

#include "api/experiment_spec.hh"
#include "experiments/experiments.hh"
#include "service/executor.hh"
#include "sim/smp_system.hh"
#include "sim/sweep.hh"
#include "stats.hh"
#include "trace/apps.hh"
#include "trace/synthetic.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace jetty;

constexpr int kSetupReps = 5;

/** Worker threads of the fig4-cold sweep. */
constexpr unsigned kFig4Jobs = 2;

/** Reference scale of assoc4-split (lu/em/fm at 4 processors). */
constexpr double kAssocScale = 0.03;

/** Warm re-asks of the campaign per cold fig4-cold pass. */
constexpr int kWarmReps = 10;

/** Scale of the one-cell warm-up that ends every set-up. */
constexpr double kWarmupScale = 0.001;

/** The filter families the per-layer filter costs are split into. */
const char *const kFamilies[] = {"EJ", "VEJ", "IJ", "HJ"};

/** Family of a canonical filter name ("HJ(...)" -> "HJ"). */
std::string
familyOf(const std::string &name)
{
    const std::size_t cut = name.find_first_of("-(");
    return name.substr(0, cut);
}

double
nsPerRef(double seconds, std::uint64_t refs)
{
    return refs > 0 ? seconds * 1e9 / static_cast<double>(refs) : 0.0;
}

/** One simulated cell: a seeded profile and its full machine. */
struct Cell
{
    trace::AppProfile app;
    sim::SmpConfig cfg;
    double scale = 1.0;
};

/** Drain every processor's source of @p c through nextBatch() alone.
 *  @return host seconds of the drain; adds the references to @p refs. */
double
drainSources(const Cell &c, std::uint64_t &refs)
{
    const trace::Workload w(c.app, c.cfg.nprocs, c.scale);
    std::vector<trace::TraceRecord> buf(c.cfg.batchRefs);
    double seconds = 0;
    for (unsigned p = 0; p < c.cfg.nprocs; ++p) {
        trace::TraceSourcePtr src = w.makeSource(p);
        const auto t0 = Clock::now();
        for (;;) {
            const std::size_t got = src->nextBatch(buf.data(), buf.size());
            if (got == 0)
                break;
            refs += got;
        }
        seconds += secondsSince(t0);
    }
    return seconds;
}

/** Simulate every cell with its filters replaced by @p filters and its
 *  buses by @p buses (0 = keep), @p jobs at a time.
 *  @return host ns per reference of SmpSystem::run(). */
double
runNsPerRef(Context &ctx, const std::vector<Cell> &cells,
            const std::vector<std::string> &filters, unsigned buses,
            unsigned jobs, const char *what)
{
    std::vector<sim::SweepJob> sj;
    for (const auto &c : cells) {
        sim::SweepJob j;
        j.app = c.app;
        j.cfg = c.cfg;
        j.cfg.filterSpecs = filters;
        if (buses)
            j.cfg.snoopBuses = buses;
        j.accessScale = c.scale;
        sj.push_back(std::move(j));
    }
    Span span(ctx.tracer, "sim", what);
    sim::SweepRunner runner(jobs);
    const auto results = runner.run(sj);
    double seconds = 0;
    std::uint64_t refs = 0;
    for (const auto &r : results) {
        seconds += r.elapsedSeconds;
        refs += r.totalRefs;
    }
    return nsPerRef(seconds, refs);
}

/**
 * The simulator's per-layer costs on @p cells: synthesis alone, the run
 * with every filter, the walk with none, each filter family alone, and
 * (when the cells use more than one bus) the split-bus cost. Each
 * configuration runs @p reps times, round-robin so drift spreads evenly,
 * and reports its median.
 */
void
addSimProbes(Context &ctx, const std::vector<Cell> &cells, unsigned jobs,
             int reps)
{
    struct Config
    {
        std::string metric;
        std::vector<std::string> filters;
        unsigned buses = 0;  //!< 0 = the cells' own
        std::vector<double> ns;
    };
    const std::vector<std::string> &all = cells.front().cfg.filterSpecs;
    std::vector<Config> configs = {{"run", all, 0, {}}, {"none", {}, 0, {}}};
    for (const char *fam : kFamilies) {
        std::vector<std::string> only;
        for (const auto &f : all) {
            if (familyOf(f) == fam)
                only.push_back(f);
        }
        // A family the workload does not evaluate is not on its path.
        if (!only.empty())
            configs.push_back({fam, only, 0, {}});
    }
    if (cells.front().cfg.snoopBuses > 1)
        configs.push_back({"1bus", all, 1, {}});

    std::vector<double> synthNs;
    for (int rep = 0; rep < reps; ++rep) {
        std::uint64_t refs = 0;
        double seconds = 0;
        {
            Span span(ctx.tracer, "trace", "nextBatch drain");
            for (const auto &c : cells)
                seconds += drainSources(c, refs);
        }
        synthNs.push_back(nsPerRef(seconds, refs));
        for (auto &cfg : configs)
            cfg.ns.push_back(runNsPerRef(ctx, cells, cfg.filters, cfg.buses,
                                         jobs, cfg.metric.c_str()));
    }
    std::map<std::string, double> ns;
    for (const auto &cfg : configs)
        ns[cfg.metric] = median(cfg.ns);

    Outcome &out = ctx.out;
    const double synth = median(synthNs);
    const double walk = ns["none"] - synth;
    double familySum = 0;
    for (const char *fam : kFamilies) {
        if (!ns.count(fam))
            continue;
        const double cost = ns[fam] - ns["none"];
        out.add(std::string("core.filter_ns_per_ref.") + fam, cost, "ns");
        familySum += cost;
    }
    out.add("trace.synth_ns_per_ref", synth, "ns");
    out.add("sim.run_ns_per_ref", ns["run"], "ns");
    out.add("sim.walk_ns_per_ref", walk, "ns");
    out.add("sim.layer_sum_ns_per_ref", synth + walk + familySum, "ns");
    out.add("sim.residual_ns_per_ref", ns["run"] - (synth + walk + familySum),
            "ns");
    if (ns.count("1bus"))
        out.add("sim.split_bus_ns_per_ref", ns["run"] - ns["1bus"], "ns");
}

// ---------------------------------------------------------------------
// fig4-cold
// ---------------------------------------------------------------------

struct Fig4Plan
{
    api::ExperimentSpec spec;
    std::vector<std::string> names;
    std::vector<experiments::RunRequest> reqs;
};

/** Load, resolve and expand the Figure 4 grid; seeds mixed. */
Fig4Plan
planFig4(std::uint64_t seed)
{
    std::string err;
    const json::Value doc = json::parseFile(
        std::string(PERFBENCH_DIR) + "/specs/paper_figure4.spec.json", &err);
    if (!err.empty())
        throw std::runtime_error("fig4 spec: " + err);
    Fig4Plan p;
    p.spec = api::ExperimentSpec::fromJson(doc, &err);
    if (err.empty())
        err = service::resolveSpec(p.spec, "sweep");
    if (!err.empty())
        throw std::runtime_error("fig4 spec: " + err);
    p.names = service::canonicalFilterNames(p.spec);
    p.reqs = p.spec.expand();
    for (auto &r : p.reqs)
        r.app.seed = mixSeed(r.app.seed, seed);
    return p;
}

struct Fig4Pass
{
    double seconds = 0;
    std::uint64_t refs = 0;
    std::uint64_t simulated = 0;
    std::size_t bytes = 0;  //!< serialized report size
    std::string digest;
    json::Value normalized;
    std::vector<experiments::AppRunResult> runs;
};

/** One campaign pass: runMany + buildReport + the report's text, from
 *  an empty RunCache when @p cold, else from the warm memory tier. */
Fig4Pass
fig4Pass(Context &ctx, const Fig4Plan &p, bool cold)
{
    auto &cache = experiments::RunCache::instance();
    if (cold)
        cache.clear();
    const std::uint64_t sims0 = cache.simulations();
    Fig4Pass r;
    Span pass(ctx.tracer, "bench", cold ? "cold pass" : "warm pass");
    const auto t0 = Clock::now();
    {
        Span s(ctx.tracer, "experiments", "runMany");
        r.runs = experiments::runMany(p.reqs, kFig4Jobs);
    }
    json::Value report;
    {
        Span s(ctx.tracer, "api", "buildReport");
        report = service::buildReport(p.spec, "sweep", p.names, p.reqs,
                                      r.runs);
    }
    {
        // The report a user receives is its serialized text.
        Span s(ctx.tracer, "util", "dump");
        r.bytes = report.dump().size();
    }
    r.seconds = secondsSince(t0);
    r.simulated = cache.simulations() - sims0;
    for (const auto &run : r.runs)
        r.refs += run.totalRefs;
    r.normalized = normalizeReport(report);
    r.digest = digestHex(r.normalized.dump());
    return r;
}

/** One set-up of fig4-cold into @p plan: load and expand the grid, then
 *  run one tiny cell through the 2-job sweep, from an empty memory-only
 *  RunCache. @return its seconds. */
double
setUpFig4(std::uint64_t seed, Fig4Plan &plan)
{
    const auto t0 = Clock::now();
    plan = planFig4(seed);
    auto &cache = experiments::RunCache::instance();
    cache.setDiskRoot("off");
    cache.clear();
    std::vector<experiments::RunRequest> warmup = {plan.reqs.front()};
    warmup.front().accessScale = kWarmupScale;
    experiments::runMany(warmup, kFig4Jobs);
    cache.clear();
    return secondsSince(t0);
}

/** Cold passes, each on the grid under its own passSeed() and followed
 *  by kWarmReps warm ones and one more set-up, until @p budget seconds
 *  have gone by. @p pass counts the passes of the run; @p first keeps
 *  pass 0. */
void
loopFig4(Context &ctx, std::size_t &pass, double budget, EndToEnd &e,
         Fig4Pass &first)
{
    const auto start = Clock::now();
    do {
        const Fig4Plan p = planFig4(passSeed(ctx.opts.seed, pass++));
        Fig4Pass cold = fig4Pass(ctx, p, true);
        bool warmOk = true;
        for (int i = 0; i < kWarmReps; ++i) {
            const Fig4Pass warm = fig4Pass(ctx, p, false);
            warmOk &= warm.simulated == 0 && warm.digest == cold.digest;
            e.resumeS.push_back(warm.seconds);
        }
        const std::size_t cells = p.reqs.size();
        bool ok = ctx.out.check(cold.simulated == cells,
                                "fig4-cold: a cold pass simulated " +
                                    std::to_string(cold.simulated) + " of " +
                                    std::to_string(cells) + " cells");
        ok &= ctx.out.check(warmOk, "fig4-cold: a warm pass re-simulated "
                                    "or disagreed on the report");
        for (const auto &r : cold.runs) {
            for (std::size_t i = 0; i < r.filterStats.size(); ++i)
                ok &= ctx.out.check(r.filterStats[i].safetyViolations == 0,
                                    "fig4-cold: " + r.filterNames[i] +
                                        " filtered a snoop that hit");
        }
        ctx.out.attempted += cells;
        if (!ok) {
            ctx.out.failed += cells;
            e.failedRequests += 1;
        } else {
            e.requestMs.push_back(cold.seconds * 1e3);
        }
        e.windowS += cold.seconds;
        e.mrefsPerS.push_back(static_cast<double>(cold.refs) / cold.seconds /
                              1e6);
        if (first.digest.empty())
            first = std::move(cold);
        // Set-ups spread over the run, like the passes, so their median
        // spans the same changes of host speed.
        Fig4Plan again;
        e.setupS.push_back(setUpFig4(ctx.opts.seed, again));
    } while (secondsSince(start) < budget);
}

/** Run `jetty_cli sweep` on the repository's example spec and compare
 *  its report with the benchmark's, host-time fields blanked. */
void
checkAgainstCli(Context &ctx, const json::Value &normalized)
{
    const std::string out = ctx.tmpRoot + "/cli-fig4.json";
    const int rc = runProcess({ctx.cli, "sweep", "--spec",
                               "examples/paper_figure4.spec.json", "--jobs",
                               "2", "--cache-dir", "off", "--json", out});
    std::string err;
    const json::Value cli = json::parseFile(out, &err);
    ctx.out.check(rc == 0 && err.empty() &&
                      normalizeReport(cli).dump() == normalized.dump(),
                  "fig4-cold: report differs from jetty_cli sweep --spec "
                  "examples/paper_figure4.spec.json --json");
}

// ---------------------------------------------------------------------
// assoc4-split
// ---------------------------------------------------------------------

std::vector<Cell>
planAssoc4(std::uint64_t seed)
{
    experiments::SystemVariant v;
    v.nprocs = 4;
    v.snoopBuses = 4;
    sim::SmpConfig cfg = v.smpConfig();
    cfg.l1.assoc = 4;
    cfg.filterSpecs = service::defaultFilterSpecs();
    std::vector<Cell> cells;
    for (const char *app : {"lu", "em", "fm"}) {
        Cell c;
        c.app = trace::appByName(app);
        c.app.seed = mixSeed(c.app.seed, seed);
        c.cfg = cfg;
        c.scale = kAssocScale;
        cells.push_back(std::move(c));
    }
    return cells;
}

/** Everything one SmpSystem::run() of a cell produced, as JSON. */
json::Value
cellJson(const sim::SmpSystem &sys)
{
    json::Value v = json::Value::object();
    v.set("stats", statsJson(sys.stats()));
    json::Value fs = json::Value::array();
    for (std::size_t i = 0; i < sys.bank(0).size(); ++i) {
        const filter::FilterStats s = sys.mergedFilterStats(i);
        json::Value row = json::Value::object();
        row.set("name", sys.bank(0).filterAt(i).name());
        row.set("probes", s.probes);
        row.set("filtered", s.filtered);
        row.set("would_miss", s.wouldMiss);
        row.set("filtered_would_miss", s.filteredWouldMiss);
        row.set("snoop_allocs", s.snoopAllocs);
        row.set("fill_updates", s.fillUpdates);
        row.set("evict_updates", s.evictUpdates);
        row.set("safety_violations", s.safetyViolations);
        fs.push(std::move(row));
    }
    v.set("filters", std::move(fs));
    return v;
}

struct CellRun
{
    double seconds = 0;
    std::uint64_t refs = 0;
    json::Value result;
    sim::SimStats stats{0};
    std::map<std::string, filter::FilterStats> filters;
};

/** One SmpSystem::run() of @p c over the sources of @p w. */
CellRun
runCell(Context &ctx, const Cell &c, const trace::Workload &w)
{
    CellRun r;
    sim::SmpSystem sys(c.cfg);
    std::vector<trace::TraceSourcePtr> sources;
    for (unsigned p = 0; p < c.cfg.nprocs; ++p)
        sources.push_back(w.makeSource(p));
    sys.attachSources(std::move(sources));
    {
        Span s(ctx.tracer, "sim", "SmpSystem::run");
        sys.run();
    }
    r.stats = sys.stats();
    r.refs = r.stats.aggregate().accesses;
    r.result = cellJson(sys);
    for (std::size_t i = 0; i < sys.bank(0).size(); ++i)
        mergeFilter(r.filters, sys.bank(0).filterAt(i).name(),
                    sys.mergedFilterStats(i));
    return r;
}

/** Passes over lu/em/fm until @p budget seconds have gone by; every
 *  fourth pass is followed by a second pass over the kept Workloads. */
void
loopAssoc4(Context &ctx, const std::vector<Cell> &cells, double budget,
           EndToEnd &e, std::string &digest, std::vector<CellRun> &first)
{
    const auto start = Clock::now();
    for (std::size_t pass = 0; pass == 0 || secondsSince(start) < budget;
         ++pass) {
        Span span(ctx.tracer, "bench", "pass");
        std::vector<std::unique_ptr<trace::Workload>> kept;
        json::Value all = json::Value::array();
        std::uint64_t refs = 0;
        double passS = 0;
        std::vector<CellRun> runs;
        for (const auto &c : cells) {
            const auto t0 = Clock::now();
            std::unique_ptr<trace::Workload> w;
            {
                Span s(ctx.tracer, "trace", "Workload");
                w = std::make_unique<trace::Workload>(c.app, c.cfg.nprocs,
                                                      c.scale);
            }
            CellRun r = runCell(ctx, c, *w);
            r.seconds = secondsSince(t0);
            passS += r.seconds;
            refs += r.refs;
            e.requestMs.push_back(r.seconds * 1e3);
            all.push(r.result);
            kept.push_back(std::move(w));
            runs.push_back(std::move(r));
        }
        const std::string d = digestHex(all.dump());
        if (digest.empty()) {
            digest = d;
            first = runs;
        }
        ctx.out.attempted += cells.size();
        bool ok = ctx.out.check(d == digest,
                                "assoc4-split: passes disagree on SimStats");
        for (const auto &r : runs) {
            for (const auto &[name, fs] : r.filters)
                ok &= ctx.out.check(fs.safetyViolations == 0,
                                    "assoc4-split: " + name +
                                        " filtered a snoop that hit");
        }
        if (!ok)
            ctx.out.failed += cells.size();
        e.windowS += passS;
        e.mrefsPerS.push_back(static_cast<double>(refs) / passS / 1e6);

        if (pass % 4 != 0)
            continue;
        Span second(ctx.tracer, "bench", "second pass");
        json::Value again = json::Value::array();
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < cells.size(); ++i)
            again.push(runCell(ctx, cells[i], *kept[i]).result);
        e.resumeS.push_back(secondsSince(t0));
        ctx.out.check(digestHex(again.dump()) == digest,
                      "assoc4-split: the second pass disagrees");
    }
}

/** Exact counters of the first pass of assoc4-split. */
void
addAssocCounters(Outcome &out, const std::vector<CellRun> &runs)
{
    std::vector<sim::SimStats> stats;
    std::map<std::string, filter::FilterStats> filters;
    for (const auto &r : runs) {
        stats.push_back(r.stats);
        for (const auto &[name, fs] : r.filters)
            mergeFilter(filters, name, fs);
    }
    addWorkCounters(out, stats, filters);
}

} // namespace

void
runFig4Cold(Context &ctx)
{
    EndToEnd e;
    e.limitMs = 60e3;
    Fig4Plan plan;
    for (int i = 0; i < kSetupReps; ++i)
        e.setupS.push_back(setUpFig4(ctx.opts.seed, plan));

    Fig4Pass first;
    std::size_t pass = 0;
    if (!ctx.opts.trace) {
        loopFig4(ctx, pass, ctx.opts.seconds, e, first);
        // A warm re-ask is a few ms of pointer-heavy work, and the host
        // runs it in 5 ms or in 8-10 ms depending on what other tenants
        // do to the shared memory system, for stretches of one to many
        // bursts. A median or mean over the run follows the share of
        // slow stretches; the 10th percentile is the time of the warm
        // path itself, on a host not slowing it.
        e.resumePct = 10;
        emitEndToEnd(ctx, e);
    } else {
        EndToEnd traced;
        loopFig4(ctx, pass, ctx.opts.seconds * 0.2, e, first);
        ctx.tracer.setEnabled(true);
        {
            Span root(ctx.tracer, "bench", "fig4-cold traced loop");
            loopFig4(ctx, pass, ctx.opts.seconds * 0.2, traced, first);
        }
        addTraceOverhead(ctx, e, traced);

        // Sweep accounting of the first cold pass.
        double busy = 0;
        double slowest = 0;
        for (const auto &r : first.runs) {
            busy += r.simSeconds;
            slowest = std::max(slowest, r.simSeconds);
        }
        ctx.out.add("sim.sweep_busy_frac", busy / (kFig4Jobs * first.seconds),
                    "ratio");
        ctx.out.add("sim.slowest_cell_s", slowest, "s");

        addRunCounters(ctx.out, first.runs);

        std::vector<Cell> cells;
        for (const auto &r : plan.reqs) {
            Cell c;
            c.app = r.app;
            c.cfg = r.variant.smpConfig();
            c.cfg.filterSpecs = plan.names;
            c.scale = r.accessScale;
            cells.push_back(std::move(c));
        }
        addSimProbes(ctx, cells, kFig4Jobs, 1);
    }

    // Every pass ran a grid of its own, so determinism is checked apart
    // from the timing: pass 0's grid once more, cold.
    ctx.out.check(fig4Pass(ctx, plan, true).digest == first.digest,
                  "fig4-cold: a second cold pass of the run's grid disagrees "
                  "on the report");
    checkExpectedDigest(ctx, first.digest);
    if (ctx.opts.seed == kDefaultSeed)
        checkAgainstCli(ctx, first.normalized);
}

void
addPipelineWalkProbes(Context &ctx)
{
    addSimProbes(ctx, planAssoc4(ctx.opts.seed), 1, 5);
}

void
runAssoc4Split(Context &ctx)
{
    EndToEnd e;
    e.limitMs = 60e3;
    std::vector<Cell> cells;
    for (int i = 0; i < kSetupReps; ++i) {
        const auto t0 = Clock::now();
        cells = planAssoc4(ctx.opts.seed);
        Cell warmup = cells.front();
        warmup.scale = kWarmupScale;
        runCell(ctx, warmup,
                trace::Workload(warmup.app, warmup.cfg.nprocs, warmup.scale));
        e.setupS.push_back(secondsSince(t0));
    }

    std::string digest;
    std::vector<CellRun> first;
    if (!ctx.opts.trace) {
        loopAssoc4(ctx, cells, ctx.opts.seconds, e, digest, first);
        emitEndToEnd(ctx, e);
    } else {
        EndToEnd traced;
        loopAssoc4(ctx, cells, ctx.opts.seconds * 0.2, e, digest, first);
        ctx.tracer.setEnabled(true);
        {
            Span root(ctx.tracer, "bench", "assoc4-split traced loop");
            loopAssoc4(ctx, cells, ctx.opts.seconds * 0.2, traced, digest,
                       first);
        }
        addTraceOverhead(ctx, e, traced);
        addAssocCounters(ctx.out, first);
        addSimProbes(ctx, cells, 1, 5);
    }
    checkExpectedDigest(ctx, digest);
}

} // namespace perfbench
