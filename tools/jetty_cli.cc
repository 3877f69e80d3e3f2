/**
 * @file
 * Command-line driver for the jetty library: run any workload on any
 * system variant with any set of filter configurations, print coverage
 * and energy tables, or capture/replay binary traces.
 *
 * Every simulating subcommand (run, sweep, replay, bench, fuzz) is a
 * thin adapter over the declarative api::ExperimentSpec: `--spec FILE`
 * loads a spec, the command's flags overlay it (flags win), the
 * command's defaults fill whatever is still unset, and `--dump-spec`
 * prints the fully resolved spec instead of running — so any
 * invocation can be captured as one reproducible file and re-run
 * bit-identically with `--spec`. `--json FILE` writes the results as a
 * structured api::Report (schema in DESIGN.md), which echoes the spec.
 *
 * Usage:
 *   jetty_cli run     [--spec FILE] [--app NAME] [--procs N] [--buses N]
 *                     [--no-subblock] [--scale F]
 *                     [--filters SPEC[,SPEC...]] [--json FILE]
 *                     [--dump-spec]
 *   jetty_cli sweep   [--spec FILE] [--apps NAME[,NAME...]|all]
 *                     [--procs N[,M...]] [--buses N[,M...]]
 *                     [--no-subblock] [--scale F] [--jobs N]
 *                     [--filters SPEC[,SPEC...]] [--json FILE]
 *                     [--dump-spec]
 *                     [--workers N] [--ledger DIR] [--retries N]
 *                     [--respawns N] [--steal-after S] [--events FILE]
 *                     [--kill-worker-after N]
 *                     (--procs/--buses are sweep axes: every
 *                     (app, procs, buses) cell of the cross-product;
 *                     --workers N shards the campaign across N local
 *                     worker processes via the dist coordinator —
 *                     same Report bytes, plus work stealing, bounded
 *                     retry, and --ledger crash resume. The ledger is
 *                     a disk-cache root: a cell resumes only if it
 *                     covers every --filters name, and DIR may also be
 *                     the --cache-dir.
 *                     --kill-worker-after K is fault injection: the
 *                     first worker dies mid-shard after K requests)
 *   jetty_cli apps
 *   jetty_cli filters
 *   jetty_cli capture --app NAME --out FILE [--procs N] [--scale F]
 *                     [--limit N]
 *                     (records every processor's stream into one
 *                     JTTRACE2 file, one section per processor,
 *                     streamed — the capture never lives in memory)
 *   jetty_cli trace   --app NAME --proc P --out FILE [--limit N]
 *                     (single-processor capture, one-section JTTRACE2)
 *   jetty_cli replay  [--spec FILE] --in FILE[,FILE...]
 *                     [--filters SPEC[,...]] [--procs N] [--json FILE]
 *                     [--dump-spec]
 *                     (per-processor files, one multi-section capture,
 *                     or one single-section file cloned everywhere;
 *                     streamed and cached by content digest)
 *   jetty_cli serve   [--socket PATH] [--jobs N] [--cache-dir DIR]
 *                     [--cache-bytes N]
 *                     (experiment service daemon: accepts ExperimentSpec
 *                     jobs over a unix socket, answers them through the
 *                     shared two-tier RunCache and SweepRunner pool,
 *                     streams structured Reports back; many concurrent
 *                     clients share one cache)
 *   jetty_cli submit  SPEC.json [--socket PATH] [--json FILE]
 *                     [--timeout S] [--retries N]
 *   jetty_cli submit  --shutdown [--socket PATH]
 *                     (send one spec to a serve daemon and print its
 *                     cache counters; --json writes the streamed Report
 *                     — bit-identical to what the direct subcommand
 *                     would have written. --timeout/--retries bound the
 *                     connect backoff and the response wait)
 *   jetty_cli worker  [--jobs N] [--cache-dir DIR]
 *                     (a serve session on stdin/stdout: the same verbs
 *                     as a serve socket, the distributed sweep's
 *                     `shard` included; spawned by `sweep --workers N`,
 *                     or attach one over any stream transport — ssh
 *                     included)
 *   jetty_cli bench   [--spec FILE] [--app NAME | --in FILE[,FILE...]]
 *                     [--procs N] [--buses N] [--scale F]
 *                     [--filters SPEC[,...]] [--batch N] [--repeat K]
 *                     [--json FILE] [--dump-spec]
 *                     (sustained refs/sec of the batched delivery
 *                     pipeline; best of K cold runs, optional JSON)
 *   jetty_cli fuzz    [--spec FILE] [--seed N] [--rounds N] [--refs N]
 *                     [--procs N] [--buses N] [--filters SPEC[,...]]
 *                     [--seconds S] [--smoke] [--audit-every N]
 *                     [--out FILE] [--json FILE] [--repro FILE]
 *                     [--dump-spec]
 *                     (--buses pins the split interconnect; without it
 *                     rounds cycle snoopBuses through 1/2/4)
 *                     (coverage-guided differential fuzzing: online
 *                     invariant checkers + golden-model and batched
 *                     state equivalence; failures are shrunk and
 *                     written as a JTTRACE2 repro + .json sidecar whose
 *                     embedded ExperimentSpec pins the machine.
 *                     --repro replays a previously written repro
 *                     on the machine its .json sidecar records.
 *                     Exit 0 clean, 2 on a caught violation)
 */

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <chrono>

#include "api/experiment_spec.hh"
#include "api/report.hh"
#include "core/filter_registry.hh"
#include "core/filter_spec.hh"
#include "dist/coordinator.hh"
#include "experiments/experiments.hh"
#include "service/client.hh"
#include "service/executor.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "sim/latency.hh"
#include "sim/sweep.hh"
#include "trace/apps.hh"
#include "trace/file_stream_source.hh"
#include "trace/trace_file.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"
#include "util/table.hh"
#include "verify/fuzzer.hh"

using namespace jetty;

namespace
{

/** Parse "--key value" style options into a map. */
std::map<std::string, std::string>
parseOptions(int argc, char **argv, int first)
{
    std::map<std::string, std::string> opts;
    for (int i = first; i < argc; ++i) {
        std::string key = argv[i];
        if (!startsWith(key, "--"))
            fatal("expected an option, got '" + key + "'");
        key = key.substr(2);
        if (key == "no-subblock" || key == "smoke" || key == "dump-spec" ||
            key == "shutdown") {
            opts[key] = "1";
        } else {
            if (i + 1 >= argc)
                fatal("option --" + key + " needs a value");
            opts[key] = argv[++i];
        }
    }
    return opts;
}

/** Split a filter list on commas, but not inside HJ(...) parentheses. */
std::vector<std::string>
splitSpecs(const std::string &s)
{
    std::vector<std::string> out;
    std::string cur;
    int depth = 0;
    for (char c : s) {
        if (c == '(')
            ++depth;
        else if (c == ')')
            --depth;
        if (c == ',' && depth == 0) {
            out.push_back(trim(cur));
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    out.push_back(trim(cur));
    return out;
}

/** Validate @p specs; exits through the registry's describeFailure()
 *  (naming the offending token and its family's grammar) on any bad
 *  spec — no path prints a bare message or falls through with exit 0
 *  (cli negative-path test). */
void
requireValidFilters(const std::vector<std::string> &specs)
{
    for (const auto &s : specs) {
        if (!filter::isValidFilterSpec(s))
            fatal(filter::FilterRegistry::instance().describeFailure(s));
    }
}

/** Parse a single --buses option (>= 1); @p fallback when absent. */
unsigned
busCount(const std::map<std::string, std::string> &opts, unsigned fallback)
{
    const auto it = opts.find("buses");
    if (it == opts.end())
        return fallback;
    unsigned v = 0;
    if (!parseUnsigned(it->second, v) || v < 1)
        fatal("--buses needs a count >= 1, got '" + it->second + "'");
    return v;
}

/** Load --spec FILE when given, else a default-constructed spec. */
api::ExperimentSpec
specFromOpts(const std::map<std::string, std::string> &opts)
{
    if (opts.count("spec"))
        return api::ExperimentSpec::load(opts.at("spec"));
    return api::ExperimentSpec();
}

/** Overlay --filters onto @p filters (validated; flag wins). */
void
overlayFilterFlag(const std::map<std::string, std::string> &opts,
                  std::vector<std::string> &filters)
{
    if (!opts.count("filters"))
        return;
    auto specs = splitSpecs(opts.at("filters"));
    requireValidFilters(specs);
    filters = specs;
}

/** Overlay --scale onto @p scale (finite, > 0; flag wins). A NaN
 *  would silently fall back to the default and an infinity would
 *  abort in the JSON emitter, so both are rejected here. */
void
overlayScaleFlag(const std::map<std::string, std::string> &opts,
                 double &scale)
{
    if (!opts.count("scale"))
        return;
    const double v = std::atof(opts.at("scale").c_str());
    if (!std::isfinite(v) || v <= 0)
        fatal("--scale needs a finite value > 0, got '" +
              opts.at("scale") + "'");
    scale = v;
}

/**
 * Overlay the machine/workload/filter flags every simulating command
 * shares onto @p spec. Flags win over the spec file; whatever neither
 * sets is resolved by the command's own defaults afterwards.
 */
void
overlayCommonFlags(const std::map<std::string, std::string> &opts,
                   api::ExperimentSpec &spec)
{
    if (opts.count("procs")) {
        unsigned v = 0;
        if (!parseUnsigned(opts.at("procs"), v) || v < 2)
            fatal("--procs needs a count >= 2, got '" + opts.at("procs") +
                  "'");
        spec.machine.procs = v;
    }
    spec.machine.buses = busCount(opts, spec.machine.buses);
    if (opts.count("no-subblock"))
        spec.machine.subblocked = false;
    overlayScaleFlag(opts, spec.scale);
    if (opts.count("app")) {
        spec.apps = {opts.at("app")};
        // Flags win over the spec's workload wholesale: an explicit
        // --app must not be silently outvoted by the spec's
        // trace_files (the --in overlay clears apps symmetrically).
        spec.traceFiles.clear();
    }
    overlayFilterFlag(opts, spec.filters);
}

/** Print the fully resolved spec and report whether the command should
 *  exit (--dump-spec runs nothing). */
bool
dumpSpecRequested(const std::map<std::string, std::string> &opts,
                  const api::ExperimentSpec &spec)
{
    if (!opts.count("dump-spec"))
        return false;
    std::fputs(spec.emit().c_str(), stdout);
    return true;
}

/**
 * Attach the persistent RunCache tier for the caching subcommands
 * (run/sweep/replay/serve — never bench or fuzz, whose timings and
 * campaigns must be fresh). Precedence: --cache-dir flag, then the
 * JETTY_CACHE_DIR environment variable (already honoured by the
 * RunCache constructor), then the default user cache directory. A value
 * of "off" (flag or env) disables the tier.
 */
void
enableDiskCache(const std::map<std::string, std::string> &opts)
{
    auto &cache = experiments::RunCache::instance();
    if (opts.count("cache-bytes")) {
        char *end = nullptr;
        const unsigned long long v =
            std::strtoull(opts.at("cache-bytes").c_str(), &end, 10);
        if (end == opts.at("cache-bytes").c_str() || *end != '\0' ||
            v == 0)
            fatal("--cache-bytes needs a positive byte count, got '" +
                  opts.at("cache-bytes") + "'");
        cache.setDiskBudget(v);
    }
    if (opts.count("cache-dir")) {
        cache.setDiskRoot(opts.at("cache-dir"));
        return;
    }
    if (std::getenv("JETTY_CACHE_DIR"))
        return;
    std::string root;
    if (const char *xdg = std::getenv("XDG_CACHE_HOME"); xdg && *xdg)
        root = std::string(xdg) + "/jetty";
    else if (const char *home = std::getenv("HOME"); home && *home)
        root = std::string(home) + "/.cache/jetty";
    if (!root.empty())
        cache.setDiskRoot(root);
}

void
printRunReport(const experiments::AppRunResult &run,
               const experiments::SystemVariant &variant,
               const std::vector<std::string> &specs)
{
    const auto agg = run.stats.aggregate();
    std::printf("%s: %.1fM refs, L1 %.1f%%, L2 %.1f%%, snoops miss "
                "%.1f%% of %.2fM probes\n\n",
                run.appName.c_str(), agg.accesses / 1e6,
                percent(agg.l1Hits, agg.accesses),
                percent(agg.l2LocalHits, agg.l2LocalAccesses),
                percent(agg.snoopMisses, agg.snoopTagProbes),
                agg.snoopTagProbes / 1e6);

    TextTable table;
    table.header({"filter", "coverage", "snoopE saved(S)", "allE saved(S)",
                  "snoopE saved(P)", "allE saved(P)", "mean snoop lat"});
    for (const auto &spec : specs) {
        const auto &fs = run.statsFor(spec);
        const auto s = experiments::evaluateEnergy(
            run, variant, spec, energy::AccessMode::Serial);
        const auto p = experiments::evaluateEnergy(
            run, variant, spec, energy::AccessMode::Parallel);
        const auto lat = sim::evaluateLatency(fs);
        table.row({
            spec,
            TextTable::pct(100.0 * fs.coverage()),
            TextTable::pct(s.reductionOverSnoopsPct),
            TextTable::pct(s.reductionOverAllPct),
            TextTable::pct(p.reductionOverSnoopsPct),
            TextTable::pct(p.reductionOverAllPct),
            TextTable::num(lat.jettyMeanCycles, 1) + " cyc",
        });
    }
    table.print();
}

int
cmdRun(const std::map<std::string, std::string> &opts)
{
    api::ExperimentSpec spec = specFromOpts(opts);
    overlayCommonFlags(opts, spec);
    // Resolution and execution are the service executor's (shared with
    // `serve`, so a served spec resolves and reports exactly as the
    // direct subcommand would); the CLI turns its diagnostics back into
    // the usual fatal() exits.
    std::string err = service::resolveSpec(spec, "run");
    if (!err.empty())
        fatal(err);
    if (dumpSpecRequested(opts, spec))
        return 0;

    enableDiskCache(opts);
    service::ExecuteResult result;
    err = service::executeResolved(spec, "run", 0, result);
    if (!err.empty())
        fatal(err);

    const experiments::SystemVariant variant = spec.machine.toVariant();
    const std::vector<std::string> &specs = result.filterNames;
    const experiments::AppRunResult &run = result.runs[0];
    printRunReport(run, variant, specs);

    if (variant.snoopBuses > 1) {
        // The split-interconnect view: per-bus occupancy, the latency
        // model's contention term, and the accountant's exact per-bus
        // snoop-energy decomposition.
        const auto contention = sim::evaluateBusContention(run.stats);
        const energy::CacheEnergyModel model(variant.l2EnergyGeometry());
        const energy::EnergyAccountant accountant(model);
        const auto bus_energy = accountant.perBusSnoopEnergy(
            run.stats.busSnoopTagProbes, energy::AccessMode::Serial);
        double total_energy = 0;
        for (const double e : bus_energy)
            total_energy += e;

        std::printf("\ninterconnect: %u buses, busiest %.1f%% utilized "
                    "(mean %.1f%%), M/D/1 wait %.2f bus cycles%s\n",
                    variant.snoopBuses,
                    100.0 * contention.busiestUtilization,
                    100.0 * contention.meanUtilization,
                    contention.busiestWaitBusCycles,
                    contention.saturated ? " [saturated]" : "");
        for (std::size_t b = 0; b < run.stats.perBus.size(); ++b) {
            const auto &bus = run.stats.perBus[b];
            std::printf("  bus %zu: %llu txns (%llu rd, %llu rdX, "
                        "%llu upg), %.1f%% of snoop probe energy\n",
                        b,
                        static_cast<unsigned long long>(bus.transactions),
                        static_cast<unsigned long long>(bus.reads),
                        static_cast<unsigned long long>(bus.readXs),
                        static_cast<unsigned long long>(bus.upgrades),
                        total_energy > 0
                            ? 100.0 * bus_energy[b] / total_energy
                            : 0.0);
        }
    }

    if (opts.count("json")) {
        json::writeFile(opts.at("json"), result.report);
        std::printf("wrote %s\n", opts.at("json").c_str());
    }
    return 0;
}

/** The sweep results table — one row per (app, variant) cell, one
 *  coverage column per filter. Shared by the single-process and the
 *  distributed (--workers) paths so their human output matches too. */
void
printSweepTable(const std::vector<std::string> &specs,
                const std::vector<experiments::RunRequest> &requests,
                const std::vector<experiments::AppRunResult> &runs)
{
    TextTable table;
    std::vector<std::string> head{"app", "procs", "buses", "snoopMiss%",
                                  "Mrefs/s"};
    for (const auto &s : specs)
        head.push_back(s);
    table.header(head);

    for (std::size_t i = 0; i < runs.size(); ++i) {
        const auto &run = runs[i];
        const auto agg = run.stats.aggregate();
        std::vector<std::string> row{
            run.abbrev,
            std::to_string(requests[i].variant.nprocs),
            std::to_string(requests[i].variant.snoopBuses),
            TextTable::pct(percent(agg.snoopMisses, agg.snoopTagProbes)),
            !run.refsTooFewForRate && run.simSeconds > 0
                ? TextTable::num(run.totalRefs / 1e6 / run.simSeconds, 1)
                : std::string("-"),
        };
        for (const auto &s : specs)
            row.push_back(TextTable::pct(100.0 * run.statsFor(s).coverage()));
        table.row(std::move(row));
    }
    table.print();
}

/** One human-readable progress line per ShardEvent, flushed eagerly so
 *  a scripted caller tailing the coordinator sees shard lifecycle
 *  transitions (assigned/started/completed/stolen/retried/resumed/
 *  duplicate/worker_died) as they happen. */
void
printShardEvent(const dist::ShardEvent &ev)
{
    if (ev.type == "worker_died") {
        std::printf("worker %d died%s%s\n", ev.worker,
                    ev.detail.empty() ? "" : ": ", ev.detail.c_str());
        std::fflush(stdout);
        return;
    }
    std::string line = "shard " + std::to_string(ev.shardId) + " " + ev.type;
    if (ev.worker >= 0)
        line += " worker=" + std::to_string(ev.worker);
    if (ev.attempt > 0)
        line += " attempt=" + std::to_string(ev.attempt);
    if (ev.type == "completed") {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      " (%.2fs, %llu simulated, %llu disk, %llu mem)",
                      ev.wallSeconds,
                      static_cast<unsigned long long>(ev.simulated),
                      static_cast<unsigned long long>(ev.diskHits),
                      static_cast<unsigned long long>(ev.memHits));
        line += buf;
    }
    if (!ev.detail.empty() && ev.type != "completed")
        line += ": " + ev.detail;
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

/**
 * The `sweep --workers N` path: shard the resolved campaign across N
 * locally forked `jetty_cli worker` processes through the dist
 * coordinator. The merged Report is byte-identical to the
 * single-process path (same service::buildReport, cells keyed by the
 * canonical runCacheKey); what changes is the execution fabric — work
 * stealing for stragglers, bounded retry on worker death, and an
 * optional on-disk resume ledger (a disk-cache root; see dist/ledger.hh).
 */
int
runDistributedSweep(const api::ExperimentSpec &spec,
                    const std::map<std::string, std::string> &opts,
                    unsigned jobs)
{
    unsigned workers = 0;
    if (!parseUnsigned(opts.at("workers"), workers) || workers < 1)
        fatal("--workers needs a count >= 1, got '" + opts.at("workers") +
              "'");

    // Worker pipes: a worker dying mid-write must surface as EPIPE on
    // the coordinator's send, not kill the coordinator with SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);

    dist::CoordinatorConfig cfg;
    cfg.spawnWorkers = workers;
    if (opts.count("retries")) {
        unsigned v = 0;
        if (!parseUnsigned(opts.at("retries"), v))
            fatal("--retries needs a non-negative count, got '" +
                  opts.at("retries") + "'");
        cfg.maxRetries = v;
    }
    if (opts.count("respawns")) {
        unsigned v = 0;
        if (!parseUnsigned(opts.at("respawns"), v))
            fatal("--respawns needs a non-negative count, got '" +
                  opts.at("respawns") + "'");
        cfg.maxRespawns = v;
    }
    if (opts.count("steal-after")) {
        const double v = std::atof(opts.at("steal-after").c_str());
        if (!std::isfinite(v))
            fatal("--steal-after needs a finite number of seconds, got '" +
                  opts.at("steal-after") + "'");
        cfg.stealAfterSeconds = v;
    }
    if (opts.count("ledger"))
        cfg.ledgerDir = opts.at("ledger");
    cfg.eventSink = printShardEvent;

    unsigned long long killAfter = 0;
    if (opts.count("kill-worker-after")) {
        char *end = nullptr;
        killAfter = std::strtoull(opts.at("kill-worker-after").c_str(),
                                  &end, 10);
        if (end == opts.at("kill-worker-after").c_str() || *end != '\0' ||
            killAfter == 0)
            fatal("--kill-worker-after needs a positive request count, "
                  "got '" + opts.at("kill-worker-after") + "'");
    }

    // Children must attach the exact cache tier the parent resolved
    // (flag > env > default): pass it explicitly so a respawned worker
    // under a stripped environment still lands on the same directory.
    const std::string cacheRoot =
        experiments::RunCache::instance().diskRoot();

    auto spawned = std::make_shared<unsigned>(0);
    cfg.factory = [&opts, &cacheRoot, jobs, killAfter,
                   spawned](dist::WorkerEndpoint &ep,
                            std::string *err) -> bool {
        (void)opts;
        int req[2];
        int resp[2];
        // O_CLOEXEC everywhere: a later-forked worker must NOT inherit
        // an earlier worker's pipe ends across its execv — a leaked
        // request-pipe write end would keep that worker's stdin open
        // after the coordinator hangs up, so it never sees EOF and the
        // wind-down reap deadlocks. The child's dup2 onto fds 0/1
        // clears the flag on exactly the two ends it needs.
        if (::pipe2(req, O_CLOEXEC) != 0) {
            if (err)
                *err = std::string("pipe: ") + std::strerror(errno);
            return false;
        }
        if (::pipe2(resp, O_CLOEXEC) != 0) {
            if (err)
                *err = std::string("pipe: ") + std::strerror(errno);
            ::close(req[0]);
            ::close(req[1]);
            return false;
        }
        const unsigned index = (*spawned)++;
        const pid_t pid = ::fork();
        if (pid < 0) {
            if (err)
                *err = std::string("fork: ") + std::strerror(errno);
            ::close(req[0]);
            ::close(req[1]);
            ::close(resp[0]);
            ::close(resp[1]);
            return false;
        }
        if (pid == 0) {
            // Child: shard requests on stdin, responses on stdout,
            // stderr inherited so worker diagnostics stay visible.
            ::dup2(req[0], 0);
            ::dup2(resp[1], 1);
            ::close(req[0]);
            ::close(req[1]);
            ::close(resp[0]);
            ::close(resp[1]);
            if (killAfter > 0 && index == 0) {
                // Fault injection: only the FIRST spawn dies, so a
                // respawned replacement finishes the campaign.
                ::setenv("JETTY_WORKER_DIE_AFTER",
                         std::to_string(killAfter).c_str(), 1);
            }
            std::vector<std::string> args = {
                "jetty_cli", "worker", "--cache-dir",
                cacheRoot.empty() ? std::string("off") : cacheRoot};
            if (jobs) {
                args.push_back("--jobs");
                args.push_back(std::to_string(jobs));
            }
            std::vector<char *> argvp;
            argvp.reserve(args.size() + 1);
            for (auto &a : args)
                argvp.push_back(const_cast<char *>(a.c_str()));
            argvp.push_back(nullptr);
            ::execv("/proc/self/exe", argvp.data());
            _exit(127);
        }
        ::close(req[0]);
        ::close(resp[1]);
        ep.readFd = resp[0];
        ep.writeFd = req[1];
        ep.pid = pid;
        return true;
    };

    dist::Coordinator coordinator(cfg);
    dist::CampaignResult result;
    const std::string err = coordinator.run(spec, result);
    if (!err.empty())
        fatal(err);

    printSweepTable(result.filterNames, result.requests, result.runs);

    std::printf("\n%llu shards (%llu simulated, %llu disk hits, "
                "%llu mem hits), %u workers, resumed %llu, stolen %llu, "
                "retried %llu, duplicates %llu, %.1fs\n",
                static_cast<unsigned long long>(result.shards),
                static_cast<unsigned long long>(result.simulated),
                static_cast<unsigned long long>(result.diskHits),
                static_cast<unsigned long long>(result.memHits), workers,
                static_cast<unsigned long long>(result.resumed),
                static_cast<unsigned long long>(result.stolen),
                static_cast<unsigned long long>(result.retried),
                static_cast<unsigned long long>(result.duplicates),
                result.wallSeconds);

    if (opts.count("events")) {
        json::Value doc = json::Value::object();
        doc.set("jetty_dist_events", 1);
        json::Value arr = json::Value::array();
        for (const auto &ev : result.events)
            arr.push(ev.toJson());
        doc.set("events", std::move(arr));
        json::writeFile(opts.at("events"), doc);
        std::printf("wrote %s\n", opts.at("events").c_str());
    }
    if (opts.count("json")) {
        json::writeFile(opts.at("json"), result.report);
        std::printf("wrote %s\n", opts.at("json").c_str());
    }
    return 0;
}

/**
 * The parallel cross-product: applications × system variants, one table
 * row per (app, variant), one column per filter. The spec's expand() is
 * the cross-product expander; the sweep engine simulates every distinct
 * cell concurrently (--jobs) and exactly once.
 */
int
cmdSweep(const std::map<std::string, std::string> &opts)
{
    api::ExperimentSpec spec = specFromOpts(opts);

    // Axis flags (list-valued, so not part of overlayCommonFlags).
    if (opts.count("apps")) {
        const std::string app_list = opts.at("apps");
        spec.apps.clear();
        // Flags win over the spec's workload wholesale: expand()
        // prefers trace_files, so an explicit --apps must clear them.
        spec.traceFiles.clear();
        if (toUpper(app_list) == "ALL") {
            for (const auto &app : trace::paperApps())
                spec.apps.push_back(app.abbrev);
        } else {
            for (const auto &name : split(app_list, ','))
                spec.apps.push_back(trim(name));
        }
    }
    if (opts.count("procs")) {
        spec.sweepProcs.clear();
        for (const auto &n : split(opts.at("procs"), ',')) {
            unsigned v = 0;
            if (!parseUnsigned(trim(n), v) || v < 2)
                fatal("--procs needs counts >= 2, got '" + trim(n) + "'");
            spec.sweepProcs.push_back(v);
        }
    }
    if (opts.count("buses")) {
        spec.sweepBuses.clear();
        for (const auto &n : split(opts.at("buses"), ',')) {
            unsigned v = 0;
            if (!parseUnsigned(trim(n), v) || v < 1)
                fatal("--buses needs counts >= 1, got '" + trim(n) + "'");
            spec.sweepBuses.push_back(v);
        }
    }
    if (opts.count("no-subblock"))
        spec.machine.subblocked = false;
    overlayScaleFlag(opts, spec.scale);
    overlayFilterFlag(opts, spec.filters);

    // Sweep resolution (all-paper-apps default, axis inference) lives
    // in the shared service executor.
    std::string err = service::resolveSpec(spec, "sweep");
    if (!err.empty())
        fatal(err);
    if (dumpSpecRequested(opts, spec))
        return 0;

    unsigned jobs = 0;  // 0 = SweepRunner default (worker knob, not
                        // experiment identity — deliberately not in the
                        // spec: results are jobs-independent)
    if (opts.count("jobs")) {
        const int v = std::atoi(opts.at("jobs").c_str());
        if (v < 0)
            fatal("--jobs must be >= 0 (0 = auto)");
        jobs = static_cast<unsigned>(v);
    }

    enableDiskCache(opts);

    // The distributed fabric: shard the campaign across local worker
    // processes instead of in-process SweepRunner threads. Same Report
    // bytes either way — the branch only changes who simulates.
    if (opts.count("workers"))
        return runDistributedSweep(spec, opts, jobs);

    service::ExecuteResult result;
    err = service::executeResolved(spec, "sweep", jobs, result);
    if (!err.empty())
        fatal(err);
    const std::vector<std::string> &specs = result.filterNames;
    const std::vector<experiments::RunRequest> &requests = result.requests;
    const std::vector<experiments::AppRunResult> &runs = result.runs;
    const double sweep_seconds = result.sweepSeconds;
    const std::uint64_t simulated = result.simulated;

    printSweepTable(specs, requests, runs);

    // Report the concurrency actually available to this sweep: the
    // requested (or default) worker count never exceeds the number of
    // simulations there were to run.
    const std::uint64_t want = jobs ? jobs : sim::SweepRunner::defaultJobs();
    // Aggregate delivery rate of the whole sweep: references behind every
    // answered run (cache hits included) over the sweep's wall clock.
    std::uint64_t sim_refs = 0;
    for (const auto &run : runs)
        sim_refs += run.totalRefs;
    std::printf("\n%zu runs (%llu simulated, %llu cache hits), "
                "%llu workers, %.1f Mrefs/s served\n",
                runs.size(),
                static_cast<unsigned long long>(simulated),
                static_cast<unsigned long long>(
                    experiments::RunCache::instance().hits()),
                static_cast<unsigned long long>(std::min(want, simulated)),
                sweep_seconds > 0 ? sim_refs / 1e6 / sweep_seconds : 0.0);

    if (opts.count("json")) {
        json::writeFile(opts.at("json"), result.report);
        std::printf("wrote %s\n", opts.at("json").c_str());
    }
    return 0;
}

/** Enumerate the registered filter families and the paper's specs. */
int
cmdFilters()
{
    const auto &registry = filter::FilterRegistry::instance();

    TextTable table;
    table.header({"family", "grammar", "example", "description"});
    for (const auto &key : registry.listFamilies()) {
        const auto *family = registry.family(key);
        table.row({family->key, family->grammar, family->example,
                   family->summary});
    }
    table.print();

    std::printf("\nPaper configurations:\n");
    auto print_list = [](const char *label,
                         const std::vector<std::string> &specs) {
        std::printf("  %-12s", label);
        for (const auto &s : specs)
            std::printf(" %s", s.c_str());
        std::printf("\n");
    };
    print_list("Figure 4(a):", filter::paperExcludeSpecs());
    print_list("Figure 4(b):", filter::paperVectorExcludeSpecs());
    print_list("Figure 5(a):", filter::paperIncludeSpecs());
    print_list("Figure 5(b):", filter::paperHybridSpecs());
    return 0;
}

int
cmdApps()
{
    TextTable table;
    table.header({"tag", "name", "streams", "refs/proc"});
    for (const auto &app : trace::paperApps()) {
        table.row({app.abbrev, app.name,
                   TextTable::count(app.streams.size()),
                   TextTable::count(app.accessesPerProc)});
    }
    table.row({"ts", "ThroughputServer (extra)", "1", "-"});
    table.row({"ws", "WidelyShared (extra)", "2", "-"});
    table.print();
    return 0;
}

int
cmdTrace(const std::map<std::string, std::string> &opts)
{
    if (!opts.count("app") || !opts.count("out"))
        fatal("trace needs --app and --out");
    const unsigned proc = opts.count("proc")
                              ? static_cast<unsigned>(
                                    std::atoi(opts.at("proc").c_str()))
                              : 0;
    const std::uint64_t limit =
        opts.count("limit")
            ? static_cast<std::uint64_t>(std::atoll(opts.at("limit").c_str()))
            : 1'000'000;

    trace::Workload workload(trace::appByName(opts.at("app")), 4);
    auto src = workload.makeSource(proc);
    const auto recs = trace::collect(*src, limit);
    trace::writeTraceFile(opts.at("out"), recs);
    std::printf("wrote %zu references to %s\n", recs.size(),
                opts.at("out").c_str());
    return 0;
}

/** Capture every processor's stream into one multi-section JTTRACE2
 *  file. Streams are written in bounded chunks, so a capture of any
 *  length (beyond 4 Gi records, beyond memory) works. */
int
cmdCapture(const std::map<std::string, std::string> &opts)
{
    if (!opts.count("app") || !opts.count("out"))
        fatal("capture needs --app and --out");
    unsigned nprocs = 4;
    if (opts.count("procs")) {
        if (!parseUnsigned(opts.at("procs"), nprocs) || nprocs < 1)
            fatal("capture --procs needs a count >= 1");
    }
    const double scale =
        opts.count("scale") ? std::atof(opts.at("scale").c_str()) : 1.0;
    const std::uint64_t limit =
        opts.count("limit")
            ? static_cast<std::uint64_t>(
                  std::atoll(opts.at("limit").c_str()))
            : 0;  // 0 = the profile's full stream

    const trace::Workload workload(trace::appByName(opts.at("app")),
                                   nprocs, scale);
    trace::TraceFileWriter writer(opts.at("out"), nprocs);
    std::vector<trace::TraceRecord> buf(64 * 1024);
    for (unsigned p = 0; p < nprocs; ++p) {
        auto src = workload.makeSource(p);
        std::uint64_t left =
            limit ? limit : std::numeric_limits<std::uint64_t>::max();
        while (left > 0) {
            const std::size_t want = static_cast<std::size_t>(
                std::min<std::uint64_t>(left, buf.size()));
            const std::size_t got = src->nextBatch(buf.data(), want);
            writer.append(buf.data(), got);
            left -= got;
            if (got < want)
                break;
        }
        writer.endStream();
    }
    writer.close();
    std::printf("captured %llu references (%u per-processor streams) "
                "to %s\n",
                static_cast<unsigned long long>(writer.recordsWritten()),
                nprocs, opts.at("out").c_str());
    return 0;
}

int
cmdReplay(const std::map<std::string, std::string> &opts)
{
    api::ExperimentSpec spec = specFromOpts(opts);
    if (opts.count("in")) {
        // Flags win over the spec's workload wholesale (apps and
        // trace_files are mutually exclusive in the schema).
        spec.apps.clear();
        spec.traceFiles.clear();
        for (const auto &f : split(opts.at("in"), ','))
            spec.traceFiles.push_back(trim(f));
    }
    overlayFilterFlag(opts, spec.filters);
    if (opts.count("procs")) {
        unsigned v = 0;
        if (!parseUnsigned(opts.at("procs"), v) || v < 2)
            fatal("replay --procs needs a count >= 2");
        spec.machine.procs = v;
    }
    // Resolution (default filters, processor inference from the
    // capture, section rejection) is the shared service executor's.
    std::string err = service::resolveSpec(spec, "replay");
    if (!err.empty())
        fatal(err);
    if (dumpSpecRequested(opts, spec))
        return 0;

    // Replays go through the experiment layer: the sources stream from
    // disk (nothing is materialized) and the run cache keys the workload
    // by the files' content digests, so repeated replays of one capture
    // simulate once per process — and, with the disk tier, once per
    // machine.
    enableDiskCache(opts);
    service::ExecuteResult result;
    err = service::executeResolved(spec, "replay", 0, result);
    if (!err.empty())
        fatal(err);
    const experiments::AppRunResult &run = result.runs[0];

    const auto agg = run.stats.aggregate();
    std::printf("replayed %.2fM refs on %u processors; snoops miss "
                "%.1f%%\n\n",
                agg.accesses / 1e6, spec.machine.procs,
                percent(agg.snoopMisses, agg.snoopTagProbes));
    TextTable table;
    table.header({"filter", "coverage"});
    for (std::size_t i = 0; i < run.filterNames.size(); ++i) {
        table.row({run.filterNames[i],
                   TextTable::pct(100.0 * run.filterStats[i].coverage())});
    }
    table.print();

    if (opts.count("json")) {
        json::writeFile(opts.at("json"), result.report);
        std::printf("wrote %s\n", opts.at("json").c_str());
    }
    return 0;
}

/**
 * Sustained throughput of the batched delivery pipeline: best of K cold
 * runs (fresh system and sources each time, only run() timed), reported
 * per run and as a structured api::Report for trend tracking.
 */
int
cmdBench(const std::map<std::string, std::string> &opts)
{
    using Clock = std::chrono::steady_clock;

    api::ExperimentSpec spec = specFromOpts(opts);
    overlayCommonFlags(opts, spec);
    if (opts.count("in")) {
        spec.traceFiles.clear();
        for (const auto &f : split(opts.at("in"), ','))
            spec.traceFiles.push_back(trim(f));
        spec.apps.clear();
    }
    if (opts.count("batch")) {
        unsigned batch = 0;
        if (!parseUnsigned(opts.at("batch"), batch) || batch < 1)
            fatal("bench --batch needs a count >= 1");
        spec.machine.batchRefs = batch;
    }
    if (opts.count("repeat")) {
        unsigned repeat = 0;
        if (!parseUnsigned(opts.at("repeat"), repeat) || repeat < 1)
            fatal("bench --repeat needs a count >= 1");
        spec.benchRepeat = repeat;
    }
    // Resolution (defaults, processor inference from trace files,
    // section rejection) is the shared service executor's.
    const std::string err = service::resolveSpec(spec, "bench");
    if (!err.empty())
        fatal(err);
    if (dumpSpecRequested(opts, spec))
        return 0;

    sim::SmpConfig cfg = spec.smpConfig();
    const unsigned repeat = spec.benchRepeat;

    std::unique_ptr<trace::Workload> workload;
    std::string name;
    if (!spec.traceFiles.empty()) {
        name = spec.traceFiles.front();
        for (std::size_t i = 1; i < spec.traceFiles.size(); ++i)
            name += "," + spec.traceFiles[i];
    } else {
        workload = std::make_unique<trace::Workload>(
            trace::appByName(spec.apps[0]), cfg.nprocs, spec.scale);
        name = spec.apps[0];
    }

    std::uint64_t refs = 0;
    std::vector<double> seconds;
    for (unsigned r = 0; r < repeat; ++r) {
        sim::SmpSystem sys(cfg);
        std::vector<trace::TraceSourcePtr> sources;
        if (workload) {
            for (unsigned p = 0; p < cfg.nprocs; ++p)
                sources.push_back(workload->makeSource(p));
        } else {
            sources = trace::makeFileSources(spec.traceFiles, cfg.nprocs);
        }
        sys.attachSources(std::move(sources));
        const auto t0 = Clock::now();
        sys.run();
        const auto t1 = Clock::now();
        seconds.push_back(std::chrono::duration<double>(t1 - t0).count());
        refs = sys.stats().aggregate().accesses;
    }
    const double best = *std::min_element(seconds.begin(), seconds.end());

    std::printf("bench %s: %u procs, %u bus%s, %zu filters, batch %u, "
                "%.2fM refs\n",
                name.c_str(), cfg.nprocs, cfg.snoopBuses,
                cfg.snoopBuses == 1 ? "" : "es", spec.filters.size(),
                cfg.batchRefs, refs / 1e6);
    for (unsigned r = 0; r < repeat; ++r) {
        std::printf("  run %u: %.3f s  (%.1f Mrefs/s)\n", r + 1,
                    seconds[r], refs / 1e6 / seconds[r]);
    }
    std::printf("sustained: %.1f Mrefs/s (best of %u)\n", refs / 1e6 / best,
                repeat);

    if (opts.count("json")) {
        api::Report report("bench");
        report.echoSpec(spec);
        auto &root = report.root();
        // The pre-Report emitter's fields, preserved for trend tooling.
        root.set("bench", "jetty_cli");
        root.set("workload", name);
        root.set("procs", cfg.nprocs);
        root.set("snoop_buses", cfg.snoopBuses);
        root.set("batch_refs", cfg.batchRefs);
        root.set("filters",
                 static_cast<std::uint64_t>(spec.filters.size()));
        root.set("refs", refs);
        root.set("repeats", repeat);
        root.set("best_seconds", best);
        root.set("refs_per_sec",
                 api::Report::ratio(static_cast<double>(refs), best));
        if (!spec.traceFiles.empty()) {
            root.set("trace_digests",
                     api::Report::traceDigestsNode(spec.traceFiles));
        }
        report.writeFile(opts.at("json"));
        std::printf("wrote %s\n", opts.at("json").c_str());
    }
    return 0;
}

/** The effective spec of a fuzz campaign (verify::specOfFuzz with the
 *  configured bus count — the shared construction the repro sidecar
 *  also uses). */
api::ExperimentSpec
specOfFuzz(const verify::FuzzConfig &cfg)
{
    return verify::specOfFuzz(cfg, cfg.system.snoopBuses);
}

/** Apply a loaded spec onto the fuzz defaults. A present machine
 *  section is authoritative (explicit geometry honoured); an absent
 *  one keeps the fuzzer's deliberately tiny thrash machine rather than
 *  silently swapping in the paper variant. Filters fall back to the
 *  fuzzer's every-family default when the spec names none. Sections
 *  fuzz cannot honour (workload, sweep, bench) are rejected, matching
 *  the other subcommands. */
void
applySpecToFuzz(const api::ExperimentSpec &spec, verify::FuzzConfig &cfg)
{
    if (!spec.apps.empty() || !spec.traceFiles.empty())
        fatal("fuzz: the spec has a workload section — fuzz synthesizes "
              "its own adversarial traces (use run/replay/bench)");
    if (!spec.sweepProcs.empty() || !spec.sweepBuses.empty())
        fatal("fuzz: the spec has a sweep section — use sweep");
    if (spec.benchRepeat > 0)
        fatal("fuzz: the spec has a bench section — use bench");

    if (spec.hasMachine) {
        const std::vector<std::string> default_filters =
            cfg.system.filterSpecs;
        cfg.system = spec.smpConfig();
        if (spec.filters.empty())
            cfg.system.filterSpecs = default_filters;
    } else if (!spec.filters.empty()) {
        cfg.system.filterSpecs = spec.filters;
    }
    cfg.system.checkSafety = false;
    if (spec.hasFuzz) {
        cfg.seed = spec.fuzz.seed;
        cfg.rounds = spec.fuzz.rounds;
        cfg.refsPerProc = spec.fuzz.refsPerProc;
        cfg.auditEvery = spec.fuzz.auditEvery;
        cfg.randomizeBuses = spec.fuzz.randomizeBuses;
        cfg.timeBudgetSeconds = spec.fuzz.seconds;
    }
}

/**
 * Coverage-guided differential fuzzing (verify/fuzzer.hh): generate
 * adversarial traces, check every online invariant plus golden-model and
 * batched-path state equivalence, shrink and persist any failure.
 */
int
cmdFuzz(const std::map<std::string, std::string> &opts)
{
    verify::FuzzConfig cfg;

    if (opts.count("spec"))
        applySpecToFuzz(api::ExperimentSpec::load(opts.at("spec")), cfg);

    // --smoke next: it sets CI-sized defaults that any explicit option
    // below still overrides.
    if (opts.count("smoke")) {
        cfg.rounds = 64;
        cfg.refsPerProc = 2048;
        cfg.timeBudgetSeconds = 20.0;
    }

    if (opts.count("seed")) {
        char *end = nullptr;
        cfg.seed = static_cast<std::uint64_t>(
            std::strtoull(opts.at("seed").c_str(), &end, 0));
        if (end == opts.at("seed").c_str() || *end != '\0')
            fatal("fuzz --seed needs a number, got '" + opts.at("seed") +
                  "'");
    }
    if (opts.count("rounds")) {
        unsigned v = 0;
        if (!parseUnsigned(opts.at("rounds"), v) || v < 1)
            fatal("fuzz --rounds needs a count >= 1");
        cfg.rounds = v;
    }
    if (opts.count("refs")) {
        unsigned v = 0;
        if (!parseUnsigned(opts.at("refs"), v) || v < 1)
            fatal("fuzz --refs needs a count >= 1");
        cfg.refsPerProc = v;
    }
    if (opts.count("procs")) {
        unsigned v = 0;
        if (!parseUnsigned(opts.at("procs"), v) || v < 2)
            fatal("fuzz --procs needs a count >= 2");
        cfg.system.nprocs = v;
    }
    if (opts.count("buses")) {
        // Pin the interconnect instead of cycling through 1/2/4.
        cfg.system.snoopBuses = busCount(opts, 1);
        cfg.randomizeBuses = false;
    }
    overlayFilterFlag(opts, cfg.system.filterSpecs);
    if (opts.count("seconds")) {
        char *end = nullptr;
        const double v = std::strtod(opts.at("seconds").c_str(), &end);
        if (end == opts.at("seconds").c_str() || *end != '\0' || v < 0)
            fatal("fuzz --seconds needs a non-negative number, got '" +
                  opts.at("seconds") + "'");
        cfg.timeBudgetSeconds = v;
    }
    if (opts.count("audit-every")) {
        unsigned v = 0;
        if (!parseUnsigned(opts.at("audit-every"), v))
            fatal("fuzz --audit-every needs a count");
        cfg.auditEvery = v;
    }

    // The effective campaign must itself be expressible as a valid
    // spec (the --dump-spec/--spec contract), so flag values the
    // schema would reject fail here with the schema's diagnostic.
    {
        std::string err;
        api::ExperimentSpec::parse(specOfFuzz(cfg).emit(), &err);
        if (!err.empty())
            fatal(err);
    }

    if (!opts.count("repro") && dumpSpecRequested(opts, specOfFuzz(cfg)))
        return 0;

    if (opts.count("repro")) {
        // Replay a persisted repro through the full differential check,
        // on the machine its sidecar recorded — not the default one —
        // so a failure caught under custom filters or geometry cannot
        // falsely replay "clean". Explicit --filters overrides.
        const auto traces = verify::readReproTraces(opts.at("repro"));
        if (traces.size() < 2) {
            fatal("fuzz --repro: '" + opts.at("repro") + "' holds " +
                  std::to_string(traces.size()) +
                  " stream(s); a repro needs one per processor (>= 2)");
        }
        if (opts.count("procs") &&
            cfg.system.nprocs != traces.size()) {
            fatal("fuzz --repro: --procs " +
                  std::to_string(cfg.system.nprocs) +
                  " conflicts with the repro's " +
                  std::to_string(traces.size()) + " streams");
        }
        if (!verify::readReproConfig(opts.at("repro"), cfg.system)) {
            warn("no complete sidecar " + opts.at("repro") +
                 ".json; replaying under the default configuration");
        }
        // Restore the recorded campaign's fuzz section too (seed and
        // budgets), so the --dump-spec/--json echo records the
        // campaign that caught the failure rather than the defaults.
        // Flags given explicitly on this invocation still win.
        {
            std::string err;
            const json::Value doc =
                json::parseFile(opts.at("repro") + ".json", &err);
            const json::Value *sn =
                err.empty() ? doc.find("spec") : nullptr;
            if (sn) {
                const api::ExperimentSpec sidecar =
                    api::ExperimentSpec::fromJson(*sn, &err);
                if (err.empty() && sidecar.hasFuzz) {
                    if (!opts.count("seed"))
                        cfg.seed = sidecar.fuzz.seed;
                    if (!opts.count("rounds"))
                        cfg.rounds = sidecar.fuzz.rounds;
                    if (!opts.count("refs"))
                        cfg.refsPerProc = sidecar.fuzz.refsPerProc;
                    if (!opts.count("audit-every"))
                        cfg.auditEvery = sidecar.fuzz.auditEvery;
                    if (!opts.count("seconds"))
                        cfg.timeBudgetSeconds = sidecar.fuzz.seconds;
                    cfg.randomizeBuses = sidecar.fuzz.randomizeBuses;
                }
            }
        }
        // Explicit options override what the sidecar restored.
        overlayFilterFlag(opts, cfg.system.filterSpecs);
        if (opts.count("buses"))
            cfg.system.snoopBuses = busCount(opts, 1);
        cfg.system.nprocs = static_cast<unsigned>(traces.size());
        if (dumpSpecRequested(opts, specOfFuzz(cfg)))
            return 0;
        const std::string failure = verify::TraceFuzzer::checkOnce(
            cfg.system, traces, cfg.auditEvery, true, true, nullptr);
        const bool reproduced = !failure.empty();
        if (reproduced) {
            std::printf("repro %s reproduces:\n  %s\n",
                        opts.at("repro").c_str(), failure.c_str());
        } else {
            std::printf("repro %s: clean (%zu streams)\n",
                        opts.at("repro").c_str(), traces.size());
        }
        if (opts.count("json")) {
            api::Report report("fuzz");
            report.echoSpec(specOfFuzz(cfg));
            auto &root = report.root();
            root.set("repro", opts.at("repro"));
            root.set("reproduced", reproduced);
            if (reproduced)
                root.set("failure", failure);
            report.writeFile(opts.at("json"));
            std::printf("wrote %s\n", opts.at("json").c_str());
        }
        return reproduced ? 2 : 0;
    }

    verify::TraceFuzzer fuzzer(cfg);
    const auto result = fuzzer.run();

    std::printf("fuzz: %u rounds, %.2fM refs, coverage %zu/%zu cells "
                "(seed %llu, %u procs, %zu filters)\n",
                result.roundsRun, result.totalRefs / 1e6,
                result.coverage.cellsCovered(),
                result.coverage.cellsTracked(),
                static_cast<unsigned long long>(result.seed),
                cfg.system.nprocs, cfg.system.filterSpecs.size());

    std::string repro_path;
    if (result.failed) {
        std::printf("fuzz: FAILURE in round %u (round seed %llu)\n"
                    "  %s: %s\n"
                    "  shrunk to %llu records\n",
                    result.failingRound,
                    static_cast<unsigned long long>(result.roundSeed),
                    result.invariant.c_str(), result.detail.c_str(),
                    static_cast<unsigned long long>(result.records()));
        repro_path =
            opts.count("out") ? opts.at("out") : std::string("fuzz-repro.jtt");
        // (writeRepro records the failing round's bus count from the
        // result, and embeds the machine + campaign budgets as an
        // ExperimentSpec.)
        verify::writeRepro(repro_path, result, cfg);
        std::printf("  repro written to %s (+ %s.json)\n",
                    repro_path.c_str(), repro_path.c_str());
    } else {
        std::printf("fuzz: no invariant violations, golden and batched "
                    "states bit-exact\n");
    }

    if (opts.count("json")) {
        api::Report report("fuzz");
        report.echoSpec(specOfFuzz(cfg));
        auto &root = report.root();
        root.set("rounds_run", result.roundsRun);
        root.set("total_refs", result.totalRefs);
        json::Value cov = json::Value::object();
        cov.set("cells_covered",
                static_cast<std::uint64_t>(result.coverage.cellsCovered()));
        cov.set("cells_tracked",
                static_cast<std::uint64_t>(result.coverage.cellsTracked()));
        root.set("coverage", std::move(cov));
        root.set("failed", result.failed);
        if (result.failed) {
            root.set("invariant", result.invariant);
            root.set("detail", result.detail);
            root.set("failing_round", result.failingRound);
            root.set("round_seed", result.roundSeed);
            root.set("snoop_buses", result.snoopBuses);
            root.set("records", result.records());
            root.set("repro", repro_path);
        }
        report.writeFile(opts.at("json"));
        std::printf("wrote %s\n", opts.at("json").c_str());
    }
    return result.failed ? 2 : 0;
}

/** The running daemon, for the signal handler (an atomic pointer store/
 *  load and ExperimentServer::requestStop() are both async-signal-safe). */
std::atomic<service::ExperimentServer *> gServer{nullptr};

extern "C" void
serveSignalHandler(int)
{
    if (auto *server = gServer.load())
        server->requestStop();
}

int
cmdServe(const std::map<std::string, std::string> &opts)
{
    service::ServerConfig cfg;
    if (opts.count("socket"))
        cfg.socketPath = opts.at("socket");
    if (opts.count("jobs")) {
        unsigned v = 0;
        if (!parseUnsigned(opts.at("jobs"), v))
            fatal("--jobs needs a non-negative count, got '" +
                  opts.at("jobs") + "'");
        cfg.jobs = v;
    }
    enableDiskCache(opts);

    service::ExperimentServer server(cfg);
    std::string err = server.start();
    if (!err.empty())
        fatal(err);

    gServer.store(&server);
    std::signal(SIGINT, serveSignalHandler);
    std::signal(SIGTERM, serveSignalHandler);

    // Flushed eagerly so a scripted caller (CI smoke) that backgrounds
    // the daemon and greps its log sees the ready line immediately.
    std::printf("serving experiments on %s\n", cfg.socketPath.c_str());
    std::fflush(stdout);

    server.run();
    gServer.store(nullptr);
    std::printf("serve: stopped\n");
    return 0;
}

/** A service session (the `serve` verbs, `shard` included) over
 *  stdin/stdout. Spawned by `sweep --workers N` (pipes dup2'd onto fds
 *  0/1), but any stream a caller can land on those fds works — the
 *  protocol is transport-agnostic. JETTY_WORKER_DIE_AFTER=K (fault
 *  injection for the kill tests and the CI smoke) makes the process die
 *  mid-shard — after shard_started, before the response — on the Kth
 *  request. */
int
cmdWorker(const std::map<std::string, std::string> &opts)
{
    // The coordinator may vanish while a response is in flight; EPIPE
    // on the write is the recoverable signal, SIGPIPE is not.
    std::signal(SIGPIPE, SIG_IGN);

    unsigned jobs = 0;
    if (opts.count("jobs") && !parseUnsigned(opts.at("jobs"), jobs))
        fatal("--jobs needs a non-negative count, got '" + opts.at("jobs") +
              "'");
    enableDiskCache(opts);

    service::SessionFault fault;
    if (const char *die = std::getenv("JETTY_WORKER_DIE_AFTER");
        die && *die) {
        char *end = nullptr;
        const unsigned long long after = std::strtoull(die, &end, 10);
        if (end == die || *end != '\0' || after == 0)
            fatal(std::string("JETTY_WORKER_DIE_AFTER needs a positive "
                              "request count, got '") + die + "'");
        fault = [after](std::uint64_t received) -> bool {
            if (received >= after) {
                // A hard mid-shard crash as the coordinator sees one:
                // shard_started is on the wire, the response never
                // comes, both pipe ends drop.
                _exit(17);
            }
            return false;
        };
    }

    std::atomic<bool> stop{false};
    return service::serveSession(0, 1, jobs, stop, fault);
}

int
cmdSubmit(const std::string &specPath,
          const std::map<std::string, std::string> &opts)
{
    const std::string socket =
        opts.count("socket") ? opts.at("socket") : std::string("jetty.sock");

    service::ClientOptions copts;
    if (opts.count("timeout")) {
        const double v = std::atof(opts.at("timeout").c_str());
        if (!std::isfinite(v) || v <= 0)
            fatal("--timeout needs a finite number of seconds > 0, "
                  "got '" + opts.at("timeout") + "'");
        copts.timeoutSeconds = v;
    }
    if (opts.count("retries")) {
        unsigned v = 0;
        if (!parseUnsigned(opts.at("retries"), v))
            fatal("--retries needs a non-negative count, got '" +
                  opts.at("retries") + "'");
        copts.retries = v;
    }

    if (opts.count("shutdown")) {
        json::Value resp;
        std::string err = service::requestResponse(
            socket, service::makeRequest("shutdown"), resp, copts);
        if (!err.empty())
            fatal(err);
        std::printf("submit: server stopping\n");
        return 0;
    }

    if (specPath.empty())
        fatal("submit needs a spec file: jetty_cli submit SPEC.json "
              "[--socket PATH] [--json FILE] [--timeout S] [--retries N]");
    api::ExperimentSpec spec = api::ExperimentSpec::load(specPath);

    json::Value resp;
    std::string err = service::requestResponse(
        socket, service::makeRunRequest(spec.toJson()), resp, copts);
    if (!err.empty())
        fatal(err);

    const json::Value *ok = resp.find("ok");
    if (!ok || !ok->isBool() || !ok->asBool()) {
        const json::Value *msg = resp.find("error");
        fatal("server error: " + (msg && msg->isString()
                                      ? msg->asString()
                                      : std::string("(malformed response)")));
    }

    const json::Value *kind = resp.find("kind");
    const json::Value *simulated = resp.find("simulated");
    const json::Value *diskHits = resp.find("disk_hits");
    const json::Value *memHits = resp.find("mem_hits");
    std::printf("%s: simulated=%llu disk_hits=%llu mem_hits=%llu\n",
                kind && kind->isString() ? kind->asString().c_str()
                                         : "(unknown)",
                static_cast<unsigned long long>(
                    simulated && simulated->isNumber() ? simulated->asU64()
                                                       : 0),
                static_cast<unsigned long long>(
                    diskHits && diskHits->isNumber() ? diskHits->asU64()
                                                     : 0),
                static_cast<unsigned long long>(
                    memHits && memHits->isNumber() ? memHits->asU64() : 0));

    if (opts.count("json")) {
        const json::Value *report = resp.find("report");
        if (!report)
            fatal("server response carries no report");
        json::writeFile(opts.at("json"), *report);
        std::printf("wrote %s\n", opts.at("json").c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: jetty_cli run|sweep|apps|filters|"
                             "capture|trace|replay|serve|submit|worker|"
                             "bench|fuzz [options]\n"
                             "       (run/sweep/replay/bench/fuzz accept "
                             "--spec FILE / --dump-spec / --json FILE;\n"
                             "        submit takes a positional SPEC.json)\n");
        return 1;
    }
    const std::string cmd = argv[1];
    if (cmd == "submit") {
        // submit's spec file is positional: jetty_cli submit SPEC.json
        const bool hasPath = argc >= 3 && argv[2][0] != '-';
        const auto opts = parseOptions(argc, argv, hasPath ? 3 : 2);
        return cmdSubmit(hasPath ? argv[2] : "", opts);
    }
    const auto opts = parseOptions(argc, argv, 2);
    if (cmd == "run")
        return cmdRun(opts);
    if (cmd == "sweep")
        return cmdSweep(opts);
    if (cmd == "apps")
        return cmdApps();
    if (cmd == "filters")
        return cmdFilters();
    if (cmd == "capture")
        return cmdCapture(opts);
    if (cmd == "trace")
        return cmdTrace(opts);
    if (cmd == "replay")
        return cmdReplay(opts);
    if (cmd == "serve")
        return cmdServe(opts);
    if (cmd == "worker")
        return cmdWorker(opts);
    if (cmd == "bench")
        return cmdBench(opts);
    if (cmd == "fuzz")
        return cmdFuzz(opts);
    fatal("unknown command '" + cmd + "'");
}
