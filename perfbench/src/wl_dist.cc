/**
 * @file
 * dist-grid: the 90-cell grid (10 apps x procs {2,4,8} x buses {1,2,4},
 * scale 0.02, the paper trio) run by the dist coordinator across two
 * forked `jetty_cli worker` processes (one sweep job each) with a fresh
 * cache root and ledger, then a second pass on the same ledger with
 * fresh workers. The seed permutes the app order, which moves shard
 * dispatch order and report row order; each cold pass draws its own
 * permutation (passSeed()), so a run's medians cover many orders.
 */

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <map>

#include "api/experiment_spec.hh"
#include "dist/coordinator.hh"
#include "dist/ledger.hh"
#include "dist/shard.hh"
#include "experiments/experiments.hh"
#include "experiments/run_result_json.hh"
#include "service/executor.hh"
#include "stats.hh"
#include "trace/apps.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace jetty;

constexpr unsigned kWorkers = 2;
constexpr int kSetupReps = 5;
constexpr int kSpawnReps = 10;
constexpr double kGridScale = 0.02;
constexpr double kWarmupScale = 0.001;

api::ExperimentSpec
planGrid(std::uint64_t seed)
{
    api::ExperimentSpec spec;
    for (const auto &app : trace::paperApps())
        spec.apps.push_back(app.abbrev);
    shuffleWithSeed(spec.apps, seed);
    spec.sweepProcs = {2, 4, 8};
    spec.sweepBuses = {1, 2, 4};
    spec.scale = kGridScale;
    spec.filters = service::defaultFilterSpecs();
    const std::string err = service::resolveSpec(spec, "sweep");
    if (!err.empty())
        throw std::runtime_error("dist-grid spec: " + err);
    return spec;
}

/** A worker factory forking `jetty_cli worker` on @p cacheRoot. */
std::function<bool(dist::WorkerEndpoint &, std::string *)>
workerFactory(const std::string &cli, const std::string &cacheRoot)
{
    return [cli, cacheRoot](dist::WorkerEndpoint &ep,
                            std::string *err) -> bool {
        int req[2];
        int resp[2];
        if (::pipe2(req, O_CLOEXEC) != 0)
            return (*err = "pipe failed", false);
        if (::pipe2(resp, O_CLOEXEC) != 0) {
            ::close(req[0]);
            ::close(req[1]);
            return (*err = "pipe failed", false);
        }
        const long pid = spawnProcess(
            {cli, "worker", "--cache-dir", cacheRoot, "--jobs", "1"},
            req[0], resp[1]);
        ::close(req[0]);
        ::close(resp[1]);
        if (pid < 0) {
            ::close(req[1]);
            ::close(resp[0]);
            return (*err = "spawn of " + cli + " failed", false);
        }
        ep.readFd = resp[0];
        ep.writeFd = req[1];
        ep.pid = pid;
        return true;
    };
}

struct GridPass
{
    std::string err;
    dist::CampaignResult result;
    double seconds = 0;
};

/** One coordinator campaign over @p spec on @p cacheRoot / @p ledger. */
GridPass
gridPass(Context &ctx, const api::ExperimentSpec &spec,
         const std::string &cacheRoot, const std::string &ledger,
         const char *name)
{
    dist::CoordinatorConfig cfg;
    cfg.spawnWorkers = kWorkers;
    cfg.ledgerDir = ledger;
    cfg.factory = workerFactory(ctx.cli, cacheRoot);
    GridPass p;
    Span span(ctx.tracer, "dist", name);
    const auto t0 = Clock::now();
    dist::Coordinator coordinator(cfg);
    p.err = coordinator.run(spec, p.result);
    p.seconds = secondsSince(t0);
    return p;
}

/** One set-up of dist-grid into @p spec: a fresh temp root, the grid
 *  planned, and one tiny cell through two freshly spawned workers, so
 *  the worker binary is loaded before a timed pass. @return its seconds
 *  (the root's removal is not timed). */
double
setUpDist(Context &ctx, api::ExperimentSpec &spec)
{
    const auto t0 = Clock::now();
    const TempDir root(ctx.tmpRoot, "setup");
    spec = planGrid(ctx.opts.seed);
    api::ExperimentSpec one;
    one.apps = {"lu"};
    one.sweepProcs = {2};
    one.sweepBuses = {1};
    one.scale = kWarmupScale;
    std::string err = service::resolveSpec(one, "sweep");
    if (err.empty()) {
        err = gridPass(ctx, one, root.sub("warmup-cache"),
                       root.sub("warmup-ledger"), "warm-up")
                  .err;
    }
    if (!err.empty())
        throw std::runtime_error("dist-grid warm-up: " + err);
    return secondsSince(t0);
}

/** Each cell's result with its host time zeroed, by cell cache key:
 *  what every pass must agree on, in whatever order its grid lists the
 *  cells. */
std::map<std::string, std::string>
cellTable(const dist::CampaignResult &c)
{
    std::map<std::string, std::string> table;
    for (std::size_t i = 0; i < c.runs.size() && i < c.requests.size();
         ++i) {
        experiments::AppRunResult r = c.runs[i];
        r.simSeconds = 0;
        table[dist::cellCacheKey(c.requests[i])] =
            experiments::runResultToJson(r).dumpCompact();
    }
    return table;
}

struct DistTotals
{
    std::string digest;  //!< pass 0's merged report
    json::Value normalized;
    dist::CampaignResult first;
    std::map<std::string, std::string> cells;  //!< pass 0's cellTable()
    std::uint64_t retried = 0;
    std::uint64_t stolen = 0;
    std::vector<double> busy;  //!< per cold pass
    std::string lastLedger;    //!< kept for the ledger probe
};

/** Cold + resume passes, each on the grid under its own passSeed() and
 *  followed by one more set-up, until @p budget seconds have gone by.
 *  @p pass counts the passes of the run. */
void
loopDist(Context &ctx, std::size_t &pass, const TempDir &root,
         double budget, EndToEnd &e, DistTotals &t)
{
    const auto start = Clock::now();
    do {
        const std::size_t n = pass++;
        const api::ExperimentSpec spec =
            planGrid(passSeed(ctx.opts.seed, n));
        const std::size_t cells = spec.expand().size();
        const std::string dir = root.sub("pass" + std::to_string(n));
        const std::string cache = dir + "/cache";
        const std::string ledger = dir + "/ledger";
        GridPass cold = gridPass(ctx, spec, cache, ledger, "cold pass");
        GridPass warm = gridPass(ctx, spec, cache, ledger, "resume pass");

        const auto &c = cold.result;
        const auto &w = warm.result;
        const json::Value normalized = normalizeReport(c.report);
        const auto table = cellTable(c);
        if (n == 0 && cold.err.empty()) {
            t.digest = digestHex(normalized.dump());
            t.normalized = normalized;
            t.first = c;
            t.cells = table;
        }
        bool ok = ctx.out.check(cold.err.empty() && warm.err.empty(),
                                "dist-grid: " + cold.err + warm.err);
        ok &= ctx.out.check(c.simulated == cells && c.resumed == 0,
                            "dist-grid: the cold pass simulated " +
                                std::to_string(c.simulated) + " of " +
                                std::to_string(cells) + " cells");
        ok &= ctx.out.check(w.resumed == cells && w.simulated == 0,
                            "dist-grid: the resume pass resumed " +
                                std::to_string(w.resumed) + " of " +
                                std::to_string(cells) + " cells");
        ok &= ctx.out.check(
            normalizeReport(w.report).dump() == normalized.dump(),
            "dist-grid: the resume pass disagrees with the cold pass on "
            "the merged report");
        ok &= ctx.out.check(table == t.cells,
                            "dist-grid: passes disagree on a cell's result");
        ctx.out.attempted += 2 * cells;
        if (!ok) {
            ctx.out.failed += 2 * cells;
            ++e.failedRequests;
        } else {
            e.requestMs.push_back(cold.seconds * 1e3);
        }
        std::uint64_t refs = 0;
        for (const auto &r : c.runs)
            refs += r.totalRefs;
        double busy = 0;
        for (const auto &ev : c.events) {
            if (ev.type == "completed")
                busy += ev.wallSeconds;
        }
        t.busy.push_back(busy / (kWorkers * cold.seconds));
        t.retried += c.retried + w.retried;
        t.stolen += c.stolen + w.stolen;
        t.lastLedger = ledger;
        e.windowS += cold.seconds;
        e.mrefsPerS.push_back(static_cast<double>(refs) / cold.seconds / 1e6);
        e.resumeS.push_back(warm.seconds);
        // Set-ups spread over the run, like the passes, so their median
        // spans the same changes of host speed.
        api::ExperimentSpec again;
        e.setupS.push_back(setUpDist(ctx, again));
    } while (secondsSince(start) < budget);
}

/** The merged report against an in-process sweep of the same grid from
 *  an empty, memory-only RunCache. */
void
checkAgainstInProcess(Context &ctx, const api::ExperimentSpec &spec,
                      const json::Value &normalized)
{
    auto &cache = experiments::RunCache::instance();
    cache.setDiskRoot("off");
    cache.clear();
    service::ExecuteResult res;
    const std::string err =
        service::executeResolved(spec, "sweep", kWorkers, res);
    ctx.out.check(err.empty() &&
                      normalizeReport(res.report).dump() == normalized.dump(),
                  "dist-grid: merged report differs from the in-process "
                  "sweep " + err);
}

/** Spawn a worker on @p cacheRoot, have it answer one (cached) shard,
 *  and reap it. @return milliseconds, or -1 on failure. */
double
spawnOnce(Context &ctx, const std::string &cacheRoot,
          const dist::ShardRequest &req)
{
    const auto t0 = Clock::now();
    dist::WorkerEndpoint ep;
    std::string err;
    if (!workerFactory(ctx.cli, cacheRoot)(ep, &err))
        return -1;
    bool ok = service::sendValue(ep.writeFd,
                                 dist::shardRequestToJson(req), &err);
    service::LineReader reader(ep.readFd);
    std::string line;
    while (ok && reader.readLineTimeout(line, 60000, &err) == 1) {
        const json::Value v = json::parse(line, &err);
        if (dist::shardMessageType(v) == "shard_response")
            break;
    }
    const double ms = secondsSince(t0) * 1e3;
    ::close(ep.writeFd);
    ::close(ep.readFd);
    int status = 0;
    ::waitpid(static_cast<pid_t>(ep.pid), &status, 0);
    return ok ? ms : -1;
}

/** The dist layers, each timed alone. */
void
addDistProbes(Context &ctx, const api::ExperimentSpec &spec,
              const TempDir &root, const DistTotals &t)
{
    Outcome &out = ctx.out;
    const auto reqs = spec.expand();
    const auto names = service::canonicalFilterNames(spec);

    dist::ShardRequest req;
    req.shardId = 0;
    req.attempt = 1;
    req.cacheKey = dist::cellCacheKey(reqs.front());
    req.spec = dist::shardSpec(spec, names, reqs.front()).toJson();
    dist::ShardResponse resp;
    resp.shardId = 0;
    resp.attempt = 1;
    resp.ok = true;
    resp.results.push_back({req.cacheKey, t.first.runs.front()});
    {
        Span span(ctx.tracer, "dist", "envelope");
        std::string err;
        out.add("dist.envelope_us", medianUs(200, [&]() {
                    dist::ShardRequest rq;
                    dist::ShardResponse rs;
                    dist::shardRequestFromJson(
                        json::parse(dist::shardRequestToJson(req)
                                        .dumpCompact(),
                                    &err),
                        rq);
                    dist::shardResponseFromJson(
                        json::parse(dist::shardResponseToJson(resp)
                                        .dumpCompact(),
                                    &err),
                        rs);
                }),
                "us");
    }
    {
        Span span(ctx.tracer, "dist", "worker spawn");
        const std::string cache = root.sub("spawn-cache");
        std::vector<double> ms;
        for (int i = 0; i < kSpawnReps; ++i)
            ms.push_back(spawnOnce(ctx, cache, req));
        out.check(*std::min_element(ms.begin(), ms.end()) >= 0,
                  "dist-grid: a probe worker did not answer");
        // The first spawn simulates the cell into the probe cache; the
        // rest answer it from disk, which is what is reported.
        ms.erase(ms.begin());
        out.add("dist.worker_spawn_ms", median(ms), "ms");
    }
    {
        Span span(ctx.tracer, "dist", "ledger lookups");
        dist::Ledger ledger;
        ledger.open(t.lastLedger);
        std::vector<std::string> keys;
        for (const auto &r : reqs)
            keys.push_back(dist::cellCacheKey(r));
        std::size_t hits = 0;
        std::size_t i = 0;
        dist::ShardResponse got;
        const double us = medianUs(static_cast<int>(keys.size()), [&]() {
            hits += ledger.lookup(keys[i++], got) ? 1 : 0;
        });
        out.check(hits == keys.size(), "dist-grid: ledger probe missed");
        out.add("dist.ledger_lookup_us", us, "us");
    }
    out.add("dist.busy_frac", median(t.busy), "ratio");
    out.add("dist.retried", static_cast<double>(t.retried), "count");
    out.add("dist.stolen", static_cast<double>(t.stolen), "count");
    double slowest = 0;
    for (const auto &r : t.first.runs)
        slowest = std::max(slowest, r.simSeconds);
    out.add("sim.slowest_cell_s", slowest, "s");
}

} // namespace

void
runDistGrid(Context &ctx)
{
    // Worker pipes: a worker dying mid-write must surface as EPIPE.
    std::signal(SIGPIPE, SIG_IGN);
    EndToEnd e;
    e.limitMs = 60e3;
    e.childRss = true;
    api::ExperimentSpec spec;
    for (int i = 0; i < kSetupReps; ++i)
        e.setupS.push_back(setUpDist(ctx, spec));
    const TempDir root(ctx.tmpRoot, "dist");

    DistTotals t;
    std::size_t pass = 0;
    if (!ctx.opts.trace) {
        loopDist(ctx, pass, root, ctx.opts.seconds, e, t);
        emitEndToEnd(ctx, e);
    } else {
        EndToEnd traced;
        loopDist(ctx, pass, root, ctx.opts.seconds * 0.25, e, t);
        ctx.tracer.setEnabled(true);
        loopDist(ctx, pass, root, ctx.opts.seconds * 0.25, traced, t);
        addTraceOverhead(ctx, e, traced);
        if (!t.first.runs.empty())
            addDistProbes(ctx, spec, root, t);
        addRunCounters(ctx.out, t.first.runs);
        addServiceProbes(ctx);
        addPipelineWalkProbes(ctx);
    }
    checkExpectedDigest(ctx, t.digest);
    checkAgainstInProcess(ctx, spec, t.normalized);
}

} // namespace perfbench
