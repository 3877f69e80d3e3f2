/**
 * @file
 * Command-line driver for the jetty library: run any workload on any
 * system variant with any set of filter configurations, print coverage
 * and energy tables, or capture/replay binary traces.
 *
 * Each verb declares one table of the flags it accepts (kVerbs, at the
 * bottom; `jetty_cli` with no arguments prints them), and a flag outside
 * the table is rejected. A flag is one of three kinds:
 *
 *  - a spec field, named by its JSON path in api::ExperimentSpec. The
 *    simulating verbs (run, sweep, replay, bench, fuzz) write these as
 *    a JSON overlay onto the `--spec FILE` document — or onto
 *    `{"jetty_spec": 1}` — and the merged document is parsed once by
 *    the spec schema. The schema's ranges and the filter registry are
 *    thus the only validators of experiment fields, and a bad value is
 *    reported with the flag and the schema's reason;
 *  - a typed local value (a count, seconds, a path), which is not part
 *    of experiment identity and is checked when the command line is
 *    read;
 *  - a switch.
 *
 * Whatever neither the spec nor a flag sets is resolved by the verb's
 * defaults (service::resolveSpec, shared with `serve`), and
 * `--dump-spec` prints the fully resolved spec instead of running — so
 * any invocation can be captured as one reproducible file and re-run
 * bit-identically with `--spec`. `--json FILE` writes the results as a
 * structured api::Report (schema in DESIGN.md), which echoes the spec.
 */

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
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
#include "service/paper.hh"
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

/** How a flag's value is read. */
enum class Kind
{
    // Spec fields, written at the row's JSON path for the schema.
    Field,         //!< one number
    FieldList,     //!< a comma list of numbers (a sweep axis)
    Names,         //!< a comma list of names
    // Typed local values.
    Count,         //!< an unsigned integer
    Positive,      //!< an unsigned integer >= 1
    Real,          //!< a finite number
    PositiveReal,  //!< a finite number > 0
    Text,          //!< any string: a path, a socket, an application
    // No value; sets the row's spec field, when it names one, to false.
    Switch,
};

/** One row of a verb's flag table. */
struct Flag
{
    const char *name;  //!< without the leading "--"
    Kind kind;
    const char *path;  //!< the spec field it sets; "" for local values
    const char *help;  //!< one usage line, value placeholder first
};

struct Options;

struct Verb
{
    const char *name;
    int (*run)(const Options &);
    const char *summary;
    const char *positional;  //!< its one positional argument, or nullptr
    std::vector<Flag> flags;
};

/** A verb's parsed command line; every value already passed its kind. */
struct Options
{
    const Verb *verb = nullptr;
    std::string positional;
    std::map<std::string, std::string> given;  //!< flag -> its text

    bool has(const char *flag) const { return given.count(flag) != 0; }

    std::string
    text(const char *flag, const std::string &fallback = "") const
    {
        return has(flag) ? given.at(flag) : fallback;
    }

    std::uint64_t
    count(const char *flag, std::uint64_t fallback) const
    {
        std::uint64_t v = fallback;
        if (has(flag))
            parseUnsigned(given.at(flag), v);
        return v;
    }

    double
    number(const char *flag, double fallback) const
    {
        double v = fallback;
        if (has(flag))
            parseDouble(given.at(flag), v);
        return v;
    }
};

/** The typed reader: what a local value of @p kind should have been, or
 *  nullptr when @p text is one. */
const char *
expected(Kind kind, const std::string &text)
{
    std::uint64_t n = 0;
    double d = 0;
    switch (kind) {
      case Kind::Count:
        return parseUnsigned(text, n) ? nullptr : "a count";
      case Kind::Positive:
        return parseUnsigned(text, n) && n >= 1 ? nullptr : "a count >= 1";
      case Kind::Real:
        return parseDouble(text, d) ? nullptr : "a finite number";
      case Kind::PositiveReal:
        return parseDouble(text, d) && d > 0 ? nullptr
                                             : "a finite number > 0";
      default:
        return nullptr;
    }
}

std::string
flagList(const Verb &verb)
{
    std::string out;
    for (const Flag &f : verb.flags)
        out += (out.empty() ? "--" : ", --") + std::string(f.name);
    return out.empty() ? "none" : out;
}

/** Read argv[2...] against @p verb's table: an unknown flag, a missing
 *  value or a local value of the wrong type exits naming the flag. */
Options
parseOptions(const Verb &verb, int argc, char **argv)
{
    Options o;
    o.verb = &verb;
    int i = 2;
    if (verb.positional && i < argc && argv[i][0] != '-')
        o.positional = argv[i++];
    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto row = std::find_if(
            verb.flags.begin(), verb.flags.end(), [&arg](const Flag &f) {
                return arg == "--" + std::string(f.name);
            });
        if (row == verb.flags.end()) {
            fatal(std::string(verb.name) + ": unknown flag '" + arg +
                  "' (valid: " + flagList(verb) + ")");
        }
        std::string value;
        if (row->kind != Kind::Switch) {
            if (i + 1 >= argc)
                fatal(arg + " needs a value");
            value = argv[++i];
            if (const char *want = expected(row->kind, value))
                fatal(arg + " " + value + ": expected " + want);
        }
        o.given[row->name] = value;
    }
    return o;
}

/** Split a list on commas, but not inside HJ(...) parentheses. */
std::vector<std::string>
splitList(const std::string &s)
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

/** A number's JSON value, or the text itself for the schema to reject. */
json::Value
scalar(const std::string &text)
{
    std::uint64_t n = 0;
    double d = 0;
    if (parseUnsigned(text, n))
        return json::Value(n);
    if (parseDouble(text, d))
        return json::Value(d);
    return json::Value(text);
}

/** The JSON a spec-field flag writes. */
json::Value
fieldValue(const Flag &f, const std::string &text)
{
    if (f.kind == Kind::Switch)
        return json::Value(false);
    if (f.kind == Kind::Field)
        return scalar(text);
    json::Value arr = json::Value::array();
    if (std::strcmp(f.name, "apps") == 0 && toUpper(text) == "ALL") {
        for (const auto &app : trace::paperApps())
            arr.push(app.abbrev);
        return arr;
    }
    for (const auto &item : splitList(text))
        arr.push(f.kind == Kind::FieldList ? scalar(item) : json::Value(item));
    return arr;
}

/** Write @p v at the dotted @p path of @p doc, creating objects on the
 *  way; a non-object on the way is left for the schema to reject. */
void
setPath(json::Value &doc, const std::string &path, json::Value v)
{
    if (!doc.isObject())
        return;
    const std::size_t dot = path.find('.');
    if (dot == std::string::npos) {
        doc.set(path, std::move(v));
        return;
    }
    const std::string head = path.substr(0, dot);
    json::Value sub = doc.find(head) ? *doc.find(head) : json::Value::object();
    setPath(sub, path.substr(dot + 1), std::move(v));
    doc.set(head, std::move(sub));
}

/** The spec document at @p path; an empty version-1 spec when "". */
json::Value
specDoc(const std::string &path)
{
    if (path.empty())
        return json::Value::object().set("jetty_spec",
                                         api::ExperimentSpec::kVersion);
    std::string err;
    json::Value doc = json::parseFile(path, &err);
    if (!err.empty())
        fatal("spec: " + path + ": " + err);
    return doc;
}

/**
 * Parse @p doc with every spec-field flag of @p o written over it (flags
 * win). A schema error is reported after the flags that wrote at or
 * under the field it names — or after @p origin, the document's file,
 * when no flag did.
 */
api::ExperimentSpec
specOf(const Options &o, json::Value doc, const std::string &origin)
{
    // --app/--apps/--in replace the workload wholesale: an explicit
    // --app must not be outvoted by the spec's trace_files (which
    // expand() prefers), nor --in by its apps.
    const json::Value *w = doc.isObject() ? doc.find("workload") : nullptr;
    if ((o.has("app") || o.has("apps") || o.has("in")) && w &&
        w->isObject()) {
        json::Value kept = json::Value::object();
        for (const auto &m : w->members()) {
            if (m.first != "apps" && m.first != "trace_files")
                kept.set(m.first, m.second);
        }
        doc.set("workload", std::move(kept));
    }
    for (const Flag &f : o.verb->flags) {
        if (*f.path && o.has(f.name))
            setPath(doc, f.path, fieldValue(f, o.text(f.name)));
    }

    std::string err;
    api::ExperimentSpec spec = api::ExperimentSpec::fromJson(doc, &err);
    if (err.empty())
        return spec;
    // The schema's errors read "spec: <field>: <reason>".
    const std::string field = err.substr(6, err.find(": ", 6) - 6);
    std::string blame;
    for (const Flag &f : o.verb->flags) {
        const std::string path = f.path;
        if (path.empty() || !o.has(f.name) ||
            (path != field && !startsWith(path, field + ".")))
            continue;
        blame += (blame.empty() ? "--" : " --") + std::string(f.name);
        if (f.kind != Kind::Switch)
            blame += " " + o.text(f.name);
    }
    if (blame.empty())
        blame = origin;
    fatal(blame.empty() ? err : blame + ": " + err);
}

/** The verb's spec: its flags over --spec, resolved by the service
 *  executor (shared with `serve`, so a served spec resolves exactly as
 *  the direct verb would). */
api::ExperimentSpec
resolvedSpec(const Options &o, const char *kind)
{
    api::ExperimentSpec spec = specOf(o, specDoc(o.text("spec")),
                                      o.text("spec"));
    const std::string err = service::resolveSpec(spec, kind);
    if (!err.empty())
        fatal(err);
    return spec;
}

/** Print the fully resolved spec and report whether the command should
 *  exit (--dump-spec runs nothing). */
bool
dumpSpecRequested(const Options &o, const api::ExperimentSpec &spec)
{
    if (!o.has("dump-spec"))
        return false;
    std::fputs(spec.emit().c_str(), stdout);
    return true;
}

/**
 * Attach the persistent RunCache tier for the caching subcommands
 * (run/sweep/replay/serve/worker — never bench or fuzz, whose timings
 * and campaigns must be fresh). Precedence: --cache-dir flag, then the
 * JETTY_CACHE_DIR environment variable (already honoured by the
 * RunCache constructor), then the default user cache directory. A value
 * of "off" (flag or env) disables the tier.
 */
void
enableDiskCache(const Options &o)
{
    auto &cache = experiments::RunCache::instance();
    if (o.has("cache-bytes"))
        cache.setDiskBudget(o.count("cache-bytes", 0));
    if (o.has("cache-dir")) {
        cache.setDiskRoot(o.text("cache-dir"));
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

/** Write @p report to --json FILE when given. */
void
writeJson(const Options &o, const json::Value &report)
{
    if (!o.has("json"))
        return;
    json::writeFile(o.text("json"), report);
    std::printf("wrote %s\n", o.text("json").c_str());
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
cmdRun(const Options &o)
{
    const api::ExperimentSpec spec = resolvedSpec(o, "run");
    if (dumpSpecRequested(o, spec))
        return 0;

    enableDiskCache(o);
    service::ExecuteResult result;
    const std::string err = service::executeResolved(spec, "run", 0, result);
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

    writeJson(o, result.report);
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
runDistributedSweep(const api::ExperimentSpec &spec, const Options &o,
                    unsigned jobs)
{
    const auto workers = static_cast<unsigned>(o.count("workers", 1));

    // Worker pipes: a worker dying mid-write must surface as EPIPE on
    // the coordinator's send, not kill the coordinator with SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);

    dist::CoordinatorConfig cfg;
    cfg.spawnWorkers = workers;
    cfg.maxRetries = static_cast<unsigned>(o.count("retries", cfg.maxRetries));
    cfg.maxRespawns =
        static_cast<unsigned>(o.count("respawns", cfg.maxRespawns));
    cfg.stealAfterSeconds = o.number("steal-after", cfg.stealAfterSeconds);
    cfg.ledgerDir = o.text("ledger", cfg.ledgerDir);
    cfg.eventSink = printShardEvent;
    // Fault injection: the first worker dies mid-shard after K requests.
    const std::uint64_t killAfter = o.count("kill-worker-after", 0);

    // Children must attach the exact cache tier the parent resolved
    // (flag > env > default): pass it explicitly so a respawned worker
    // under a stripped environment still lands on the same directory.
    const std::string cacheRoot =
        experiments::RunCache::instance().diskRoot();

    auto spawned = std::make_shared<unsigned>(0);
    cfg.factory = [&cacheRoot, jobs, killAfter,
                   spawned](dist::WorkerEndpoint &ep,
                            std::string *err) -> bool {
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

    if (o.has("events")) {
        json::Value doc = json::Value::object();
        doc.set("jetty_dist_events", 1);
        json::Value arr = json::Value::array();
        for (const auto &ev : result.events)
            arr.push(ev.toJson());
        doc.set("events", std::move(arr));
        json::writeFile(o.text("events"), doc);
        std::printf("wrote %s\n", o.text("events").c_str());
    }
    writeJson(o, result.report);
    return 0;
}

/**
 * The parallel cross-product: applications × system variants, one table
 * row per (app, variant), one column per filter. The spec's expand() is
 * the cross-product expander; the sweep engine simulates every distinct
 * cell concurrently (--jobs) and exactly once.
 */
int
cmdSweep(const Options &o)
{
    const api::ExperimentSpec spec = resolvedSpec(o, "sweep");
    if (dumpSpecRequested(o, spec))
        return 0;

    // 0 = SweepRunner default. A worker knob, not experiment identity,
    // so deliberately not in the spec: results are jobs-independent.
    const auto jobs = static_cast<unsigned>(o.count("jobs", 0));
    enableDiskCache(o);

    // The distributed fabric: shard the campaign across local worker
    // processes instead of in-process SweepRunner threads. Same Report
    // bytes either way — the branch only changes who simulates.
    if (o.has("workers"))
        return runDistributedSweep(spec, o, jobs);

    service::ExecuteResult result;
    const std::string err =
        service::executeResolved(spec, "sweep", jobs, result);
    if (!err.empty())
        fatal(err);
    const std::vector<experiments::AppRunResult> &runs = result.runs;
    printSweepTable(result.filterNames, result.requests, runs);

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
                static_cast<unsigned long long>(result.simulated),
                static_cast<unsigned long long>(
                    experiments::RunCache::instance().hits()),
                static_cast<unsigned long long>(
                    std::min(want, result.simulated)),
                result.sweepSeconds > 0
                    ? sim_refs / 1e6 / result.sweepSeconds
                    : 0.0);

    writeJson(o, result.report);
    return 0;
}

/**
 * The paper's evaluation: each table's sweep specs come from the
 * catalogue (service/paper.hh) and execute exactly as `sweep` would,
 * and its panels print as the paper's tables. `--dump-spec` prints the
 * specs instead, one document each, so any table can be handed to
 * `sweep --spec`, `--workers N` or `submit`.
 */
int
cmdPaper(const Options &o)
{
    // --scale is the verb's one spec field: the schema validates it.
    const double given = specOf(o, specDoc(""), "").scale;
    const double scale = given > 0 ? given : 1.0;
    const std::vector<std::string> names =
        o.positional == "all" ? service::paper::tableNames()
                              : std::vector<std::string>{o.positional};
    const auto jobs = static_cast<unsigned>(o.count("jobs", 0));
    if (!o.has("dump-spec"))
        enableDiskCache(o);
    for (std::size_t i = 0; i < names.size(); ++i) {
        std::vector<api::ExperimentSpec> specs;
        std::vector<service::paper::Panel> panels;
        const std::string err =
            o.has("dump-spec")
                ? service::paper::tableSpecs(names[i], scale, specs)
                : service::paper::runTable(names[i], scale, jobs, panels);
        if (!err.empty())
            fatal(err);
        for (const auto &spec : specs)
            std::fputs(spec.emit().c_str(), stdout);
        std::printf("%s", i && !panels.empty() ? "\n" : "");
        service::paper::print(panels);
    }
    return 0;
}

/** Enumerate the registered filter families and the paper's specs. */
int
cmdFilters(const Options &)
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
cmdApps(const Options &)
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

/** Capture processor streams into one JTTRACE2 file: every processor's,
 *  one section each, or only --proc P's as a one-section file. Streams
 *  are written in bounded chunks, so a capture of any length (beyond
 *  4 Gi records, beyond memory) works. */
int
cmdCapture(const Options &o)
{
    if (!o.has("app") || !o.has("out"))
        fatal("capture needs --app and --out");
    const auto nprocs = static_cast<unsigned>(o.count("procs", 4));
    const std::uint64_t proc = o.count("proc", 0);
    if (proc >= nprocs)
        fatal("--proc " + o.text("proc") + ": the workload has processors "
              "0.." + std::to_string(nprocs - 1));
    const unsigned first = o.has("proc") ? static_cast<unsigned>(proc) : 0;
    const unsigned last = o.has("proc") ? first + 1 : nprocs;
    const std::uint64_t limit = o.count("limit", 0);  // 0 = full stream

    const trace::Workload workload(trace::appByName(o.text("app")), nprocs,
                                   o.number("scale", 1.0));
    trace::TraceFileWriter writer(o.text("out"), last - first);
    std::vector<trace::TraceRecord> buf(64 * 1024);
    for (unsigned p = first; p < last; ++p) {
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
    const auto records =
        static_cast<unsigned long long>(writer.recordsWritten());
    if (o.has("proc")) {
        std::printf("captured %llu references (processor %u of %u) to %s\n",
                    records, first, nprocs, o.text("out").c_str());
    } else {
        std::printf("captured %llu references (%u per-processor streams) "
                    "to %s\n",
                    records, nprocs, o.text("out").c_str());
    }
    return 0;
}

int
cmdReplay(const Options &o)
{
    // Resolution (default filters, processor inference from the
    // capture, section rejection) is the shared service executor's.
    const api::ExperimentSpec spec = resolvedSpec(o, "replay");
    if (dumpSpecRequested(o, spec))
        return 0;

    // Replays go through the experiment layer: the sources stream from
    // disk (nothing is materialized) and the run cache keys the workload
    // by the files' content digests, so repeated replays of one capture
    // simulate once per process — and, with the disk tier, once per
    // machine.
    enableDiskCache(o);
    service::ExecuteResult result;
    const std::string err =
        service::executeResolved(spec, "replay", 0, result);
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

    writeJson(o, result.report);
    return 0;
}

/**
 * Sustained throughput of the batched delivery pipeline: best of K cold
 * runs (fresh system and sources each time, only run() timed), reported
 * per run and as a structured api::Report for trend tracking.
 */
int
cmdBench(const Options &o)
{
    using Clock = std::chrono::steady_clock;

    // Resolution (defaults, processor inference from trace files,
    // section rejection) is the shared service executor's.
    const api::ExperimentSpec spec = resolvedSpec(o, "bench");
    if (dumpSpecRequested(o, spec))
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

    if (o.has("json")) {
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
        writeJson(o, report.root());
    }
    return 0;
}

/**
 * Coverage-guided differential fuzzing (verify/fuzzer.hh): generate
 * adversarial traces, check every online invariant plus golden-model and
 * batched-path state equivalence, shrink and persist any failure.
 *
 * The campaign is a spec like any other verb's, built over one base
 * document: a --repro's sidecar spec (the machine the failure was caught
 * on), else --spec, else nothing — and a base that names no machine gets
 * the fuzzer's deliberately tiny thrash machine rather than the paper
 * variant. --smoke's CI-sized budgets, then the flags, overlay the base.
 */
int
cmdFuzz(const Options &o)
{
    const std::string repro = o.text("repro");
    json::Value doc = specDoc(o.text("spec"));
    std::string origin = o.text("spec");
    bool pinned = false;  // the sidecar names the machine and its filters
    verify::TraceSet traces;
    if (!repro.empty()) {
        traces = verify::readReproTraces(repro);
        if (traces.size() < 2) {
            fatal("fuzz --repro: '" + repro + "' holds " +
                  std::to_string(traces.size()) +
                  " stream(s); a repro needs one per processor (>= 2)");
        }
        if (verify::readReproSpec(repro, doc)) {
            origin = repro + ".json";
            pinned = true;
        } else {
            warn("no complete sidecar " + repro +
                 ".json; replaying under the default configuration");
        }
    }
    verify::FuzzConfig cfg;
    if (!doc.isObject() || !doc.find("machine"))
        setPath(doc, "machine",
                *verify::specOfFuzz(cfg, 1).toJson().find("machine"));
    if (!repro.empty())
        setPath(doc, "machine.procs", json::Value(traces.size()));
    if (o.has("smoke")) {
        setPath(doc, "fuzz.rounds", 64);
        setPath(doc, "fuzz.refs_per_proc", 2048);
        setPath(doc, "fuzz.seconds", 20.0);
    }
    // A pinned interconnect: every round runs --buses, not 1/2/4.
    if (o.has("buses"))
        setPath(doc, "fuzz.randomize_buses", false);
    const api::ExperimentSpec spec = specOf(o, std::move(doc), origin);

    if (!spec.apps.empty() || !spec.traceFiles.empty())
        fatal("fuzz: the spec has a workload section — fuzz synthesizes "
              "its own adversarial traces (use run/replay/bench)");
    if (!spec.sweepProcs.empty() || !spec.sweepBuses.empty())
        fatal("fuzz: the spec has a sweep section — use sweep");
    if (spec.benchRepeat > 0)
        fatal("fuzz: the spec has a bench section — use bench");
    if (!repro.empty() && spec.machine.procs != traces.size()) {
        fatal("fuzz --repro: --procs " + o.text("procs") +
              " conflicts with the repro's " +
              std::to_string(traces.size()) + " streams");
    }

    // Filters fall back to every family unless the sidecar pinned them
    // (a filterless repro replays filterless).
    const std::vector<std::string> every_family = cfg.system.filterSpecs;
    cfg.system = spec.smpConfig();
    if (spec.filters.empty() && !pinned)
        cfg.system.filterSpecs = every_family;
    cfg.system.checkSafety = false;
    cfg.seed = spec.fuzz.seed;
    cfg.rounds = spec.fuzz.rounds;
    cfg.refsPerProc = spec.fuzz.refsPerProc;
    cfg.auditEvery = spec.fuzz.auditEvery;
    cfg.randomizeBuses = spec.fuzz.randomizeBuses;
    cfg.timeBudgetSeconds = spec.fuzz.seconds;
    // The effective campaign, as the repro sidecar records it too.
    const api::ExperimentSpec effective =
        verify::specOfFuzz(cfg, cfg.system.snoopBuses);
    if (dumpSpecRequested(o, effective))
        return 0;

    api::Report report("fuzz");
    report.echoSpec(effective);
    auto &root = report.root();
    if (!repro.empty()) {
        // Replay the persisted repro through the full differential
        // check, on the machine its sidecar recorded.
        const std::string failure = verify::TraceFuzzer::checkOnce(
            cfg.system, traces, cfg.auditEvery, true, true, nullptr);
        const bool reproduced = !failure.empty();
        if (reproduced) {
            std::printf("repro %s reproduces:\n  %s\n", repro.c_str(),
                        failure.c_str());
        } else {
            std::printf("repro %s: clean (%zu streams)\n", repro.c_str(),
                        traces.size());
        }
        root.set("repro", repro);
        root.set("reproduced", reproduced);
        if (reproduced)
            root.set("failure", failure);
        writeJson(o, root);
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
        repro_path = o.text("out", "fuzz-repro.jtt");
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
    writeJson(o, root);
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
cmdServe(const Options &o)
{
    service::ServerConfig cfg;
    cfg.socketPath = o.text("socket", cfg.socketPath);
    cfg.jobs = static_cast<unsigned>(o.count("jobs", cfg.jobs));
    enableDiskCache(o);

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
cmdWorker(const Options &o)
{
    // The coordinator may vanish while a response is in flight; EPIPE
    // on the write is the recoverable signal, SIGPIPE is not.
    std::signal(SIGPIPE, SIG_IGN);

    const auto jobs = static_cast<unsigned>(o.count("jobs", 0));
    enableDiskCache(o);

    service::SessionFault fault;
    if (const char *die = std::getenv("JETTY_WORKER_DIE_AFTER");
        die && *die) {
        std::uint64_t after = 0;
        if (!parseUnsigned(die, after) || after == 0)
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
cmdSubmit(const Options &o)
{
    const std::string socket = o.text("socket", "jetty.sock");
    service::ClientOptions copts;
    copts.timeoutSeconds = o.number("timeout", copts.timeoutSeconds);
    copts.retries = static_cast<unsigned>(o.count("retries", copts.retries));

    if (o.has("shutdown")) {
        json::Value resp;
        std::string err = service::requestResponse(
            socket, service::makeRequest("shutdown"), resp, copts);
        if (!err.empty())
            fatal(err);
        std::printf("submit: server stopping\n");
        return 0;
    }

    if (o.positional.empty())
        fatal("submit needs a spec file: jetty_cli submit SPEC.json "
              "[flags]");
    const api::ExperimentSpec spec =
        specOf(o, specDoc(o.positional), o.positional);

    json::Value resp;
    service::RunResponse run;
    std::string err = service::requestResponse(
        socket, service::makeRunRequest(spec.toJson()), resp, copts);
    if (err.empty())
        err = service::readRunResponse(resp, run);
    if (!err.empty())
        fatal(err);

    std::printf("%s: simulated=%llu disk_hits=%llu mem_hits=%llu\n",
                run.kind.c_str(),
                static_cast<unsigned long long>(run.simulated),
                static_cast<unsigned long long>(run.diskHits),
                static_cast<unsigned long long>(run.memHits));
    if (o.has("json"))
        writeJson(o, *run.report);
    return 0;
}

// ---- the flag tables ---------------------------------------------------

const Flag kSpec{"spec", Kind::Text, "",
                 "FILE  the ExperimentSpec the flags overlay"};
const Flag kJson{"json", Kind::Text, "", "FILE  write the structured Report"};
const Flag kDumpSpec{"dump-spec", Kind::Switch, "",
                     "print the resolved spec instead of running"};
const Flag kApp{"app", Kind::Names, "workload.apps", "NAME  the application"};
const Flag kIn{"in", Kind::Names, "workload.trace_files",
               "FILE[,FILE...]  per-processor or multi-section captures"};
const Flag kProcs{"procs", Kind::Field, "machine.procs", "N  processors"};
const Flag kBuses{"buses", Kind::Field, "machine.buses",
                  "N  split snoop buses"};
const Flag kNoSubblock{"no-subblock", Kind::Switch, "machine.subblocked",
                       "whole-block coherence (the paper's NSB system)"};
const Flag kScale{"scale", Kind::Field, "workload.scale",
                  "F  reference-count scale"};
const Flag kFilters{"filters", Kind::Names, "filters",
                    "SPEC[,SPEC...]  filter configurations (see filters)"};
const Flag kJobs{"jobs", Kind::Count, "",
                 "N  simulation threads (0 = JETTY_JOBS or every core)"};
const Flag kCacheDir{"cache-dir", Kind::Text, "",
                     "DIR  the on-disk run cache (off disables)"};
const Flag kCacheBytes{"cache-bytes", Kind::Positive, "",
                       "N  the on-disk run cache's byte budget"};

const std::vector<Verb> kVerbs = {
    {"run", cmdRun, "simulate one application, print coverage and energy",
     nullptr,
     {kSpec, kApp, kProcs, kBuses, kNoSubblock, kScale, kFilters, kJson,
      kDumpSpec, kCacheDir, kCacheBytes}},
    {"sweep", cmdSweep,
     "every (app, procs, buses) cell of the cross-product, in parallel",
     nullptr,
     {kSpec,
      {"apps", Kind::Names, "workload.apps", "NAME[,NAME...]|all  apps"},
      {"procs", Kind::FieldList, "sweep.procs", "N[,M...]  processor axis"},
      {"buses", Kind::FieldList, "sweep.buses", "N[,M...]  snoop-bus axis"},
      kNoSubblock, kScale, kFilters, kJobs, kJson, kDumpSpec, kCacheDir,
      kCacheBytes,
      {"workers", Kind::Positive, "",
       "N  shard the campaign across N local worker processes"},
      {"ledger", Kind::Text, "",
       "DIR  resume ledger (a disk-cache root; may be --cache-dir)"},
      {"retries", Kind::Count, "", "N  retries of a shard whose worker died"},
      {"respawns", Kind::Count, "", "N  replacement workers"},
      {"steal-after", Kind::Real, "",
       "S  steal a shard in flight this long (<= 0: never)"},
      {"events", Kind::Text, "", "FILE  write the shard event log"},
      {"kill-worker-after", Kind::Positive, "",
       "N  fault injection: the first worker dies on its Nth request"}}},
    {"paper", cmdPaper,
     "the paper's figures and tables, run as sweeps",
     "NAME|all", {kScale, kJobs, kCacheDir, kDumpSpec}},
    {"apps", cmdApps, "list the application profiles", nullptr, {}},
    {"filters", cmdFilters, "list the filter families and paper configs",
     nullptr, {}},
    {"capture", cmdCapture,
     "write processor streams to a JTTRACE2 file, one section each",
     nullptr,
     {{"app", Kind::Text, "", "NAME  the application"},
      {"out", Kind::Text, "", "FILE  the capture"},
      {"procs", Kind::Positive, "", "N  processors of the workload (4)"},
      {"scale", Kind::PositiveReal, "", "F  reference-count scale (1)"},
      {"limit", Kind::Count, "", "N  references per stream (0 = all)"},
      {"proc", Kind::Count, "", "P  only processor P's stream"}}},
    {"replay", cmdReplay, "simulate captured traces", nullptr,
     {kSpec, kIn, kFilters, kProcs, kJson, kDumpSpec, kCacheDir,
      kCacheBytes}},
    {"serve", cmdServe,
     "experiment service: answer specs on a unix socket from one cache",
     nullptr,
     {{"socket", Kind::Text, "", "PATH  the socket (jetty.sock)"}, kJobs,
      kCacheDir, kCacheBytes}},
    {"submit", cmdSubmit, "send a spec to a serve daemon", "SPEC.json",
     {{"socket", Kind::Text, "", "PATH  the daemon's socket (jetty.sock)"},
      kJson,
      {"timeout", Kind::PositiveReal, "",
       "S  bound on the connect backoff and the response wait"},
      {"retries", Kind::Count, "", "N  extra connect attempts"},
      {"shutdown", Kind::Switch, "", "stop the daemon instead"}}},
    {"worker", cmdWorker,
     "a serve session on stdin/stdout (spawned by sweep --workers)",
     nullptr, {kJobs, kCacheDir, kCacheBytes}},
    {"bench", cmdBench, "sustained refs/sec of the delivery pipeline",
     nullptr,
     {kSpec, kApp, kIn, kProcs, kBuses, kNoSubblock, kScale, kFilters,
      {"batch", Kind::Field, "machine.batch_refs", "N  delivery batch size"},
      {"repeat", Kind::Field, "bench.repeat", "K  cold runs; best is kept"},
      kJson, kDumpSpec}},
    {"fuzz", cmdFuzz,
     "differential fuzzing; exit 2 on a caught violation", nullptr,
     {kSpec,
      {"seed", Kind::Field, "fuzz.seed", "N  campaign seed"},
      {"rounds", Kind::Field, "fuzz.rounds", "N  rounds"},
      {"refs", Kind::Field, "fuzz.refs_per_proc", "N  references per proc"},
      kProcs,
      {"buses", Kind::Field, "machine.buses",
       "N  pin the snoop buses (else rounds cycle 1/2/4)"},
      kFilters,
      {"seconds", Kind::Field, "fuzz.seconds", "S  time budget (0 = none)"},
      {"audit-every", Kind::Field, "fuzz.audit_every",
       "N  global audit cadence in references"},
      {"smoke", Kind::Switch, "", "CI-sized budgets (flags still win)"},
      {"out", Kind::Text, "", "FILE  where a failure's repro goes"},
      {"repro", Kind::Text, "",
       "FILE  replay a repro on the machine its sidecar records"},
      kJson, kDumpSpec}},
};

void
printUsage()
{
    std::fprintf(stderr, "usage: jetty_cli VERB [flags]\n");
    for (const Verb &v : kVerbs) {
        std::fprintf(stderr, "\n  %s%s%s  %s\n", v.name,
                     v.positional ? " " : "",
                     v.positional ? v.positional : "", v.summary);
        for (const Flag &f : v.flags) {
            std::fprintf(stderr, "      --%-18s %s%s%s%s\n", f.name, f.help,
                         *f.path ? " [" : "", f.path, *f.path ? "]" : "");
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        printUsage();
        return 1;
    }
    const std::string cmd = argv[1];
    for (const Verb &v : kVerbs) {
        if (cmd == v.name)
            return v.run(parseOptions(v, argc, argv));
    }
    printUsage();
    fatal("unknown command '" + cmd + "'");
}
