#include "common.hh"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <stdexcept>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <system_error>

#include "experiments/experiments.hh"
#include "experiments/run_result_json.hh"
#include "stats.hh"
#include "util/random.hh"

#ifndef PERFBENCH_DIR
#error "PERFBENCH_DIR must name the benchmark's source directory"
#endif

namespace perfbench
{

namespace fs = std::filesystem;

TempDir::TempDir(const std::string &parent, const std::string &prefix)
{
    std::error_code ec;
    fs::create_directories(parent, ec);
    std::string tmpl = parent + "/" + prefix + "-XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr)
        throw std::runtime_error("mkdtemp failed under " + parent);
    path_ = tmpl;
}

TempDir::~TempDir()
{
    std::error_code ec;
    fs::remove_all(path_, ec);
}

std::string
TempDir::sub(const std::string &name) const
{
    const std::string p = path_ + "/" + name;
    std::error_code ec;
    fs::create_directories(p, ec);
    return p;
}

std::uint64_t
mixSeed(std::uint64_t profileSeed, std::uint64_t seed)
{
    if (seed == kDefaultSeed)
        return profileSeed;
    jetty::Rng rng(seed);
    return profileSeed ^ rng.next();
}

std::uint64_t
passSeed(std::uint64_t seed, std::size_t pass)
{
    if (pass == 0)
        return seed;
    jetty::Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * pass));
    const std::uint64_t s = rng.next();
    return s == kDefaultSeed ? 1 : s;
}

void
shuffleWithSeed(std::vector<std::string> &v, std::uint64_t seed)
{
    if (seed == kDefaultSeed)
        return;
    jetty::Rng rng(seed);
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

jetty::json::Value
normalizeReport(const jetty::json::Value &report)
{
    using jetty::json::Value;
    if (report.isArray()) {
        Value out = Value::array();
        for (const auto &item : report.items())
            out.push(normalizeReport(item));
        return out;
    }
    if (!report.isObject())
        return report;
    Value out = Value::object();
    for (const auto &[key, val] : report.members()) {
        if (key == "timing" && val.isObject()) {
            Value t = Value::object();
            for (const auto &[tk, tv] : val.members()) {
                const bool host = tk == "sim_seconds" || tk == "refs_per_sec";
                t.set(tk, host ? Value() : tv);
            }
            out.set(key, std::move(t));
        } else {
            out.set(key, normalizeReport(val));
        }
    }
    return out;
}

std::string
digestHex(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

jetty::json::Value
statsJson(const jetty::sim::SimStats &stats)
{
    jetty::experiments::AppRunResult r(
        static_cast<unsigned>(stats.procs.size()));
    r.stats = stats;
    return jetty::experiments::runResultToJson(r);
}

void
checkExpectedDigest(Context &ctx, const std::string &digest)
{
    const std::uint64_t seed = ctx.opts.seed;
    ctx.out.note("digest " + digest);
    if (seed != kDefaultSeed && seed != kHeldOutSeed)
        return;
    std::string err;
    const jetty::json::Value doc = jetty::json::parseFile(
        std::string(PERFBENCH_DIR) + "/expected.json", &err);
    const jetty::json::Value *wl =
        err.empty() ? doc.find(ctx.opts.workload) : nullptr;
    const jetty::json::Value *want =
        wl ? wl->find(std::to_string(seed)) : nullptr;
    ctx.out.check(want && want->isString() && want->asString() == digest,
                  "digest " + digest + " differs from expected.json for " +
                      ctx.opts.workload + " seed " + std::to_string(seed));
}

void
emitEndToEnd(Context &ctx, const EndToEnd &e)
{
    const LatencySummary lat =
        summarize(e.requestMs, e.failedRequests, e.limitMs);
    const std::size_t completed = e.requestMs.size();
    Outcome &out = ctx.out;
    out.add("setup_s", median(e.setupS), "s");
    out.add("mrefs_per_s", median(e.mrefsPerS), "Mrefs/s");
    out.add("req_p50_ms", lat.median, "ms");
    out.add("req_tail_ms", lat.tail, "ms");
    out.add("req_per_s",
            e.windowS > 0 ? static_cast<double>(completed) / e.windowS : 0.0,
            "1/s");
    std::vector<double> resume = e.resumeS;
    std::sort(resume.begin(), resume.end());
    out.add("resume_s",
            e.resumePct == 50 ? median(resume)
                              : percentileSorted(resume, e.resumePct),
            "s");
    out.add("peak_rss_mb", peakRssMb(e.childRss), "MB");
    const std::string tail =
        "p" + std::to_string(static_cast<int>(lat.tailPct));
    out.note("requests n=" + std::to_string(lat.samples) + " (failed " +
             std::to_string(lat.failed) + "), req_tail_ms is " + tail +
             ", set-ups " + std::to_string(e.setupS.size()) + ", passes " +
             std::to_string(e.mrefsPerS.size()) + ", second passes " +
             std::to_string(e.resumeS.size()));
}

/** A filter name as a metric-name suffix ("HJ(IJ-10x4x7,EJ-32x4)" ->
 *  "HJ-IJ-10x4x7-EJ-32x4"). */
std::string
metricSuffix(const std::string &name)
{
    std::string s;
    for (const char c : name) {
        if (c == '(' || c == ',')
            s += '-';
        else if (c != ')')
            s += c;
    }
    return s;
}

/** Exact work counters and filter coverage of simulated cells. */
void
addWorkCounters(Outcome &out, const std::vector<jetty::sim::SimStats> &stats,
                const std::map<std::string, jetty::filter::FilterStats> &filters)
{
    jetty::sim::ProcStats agg;
    std::uint64_t txns = 0;
    for (const auto &s : stats) {
        agg.merge(s.aggregate());
        txns += s.snoopTransactions;
    }
    const double refs = static_cast<double>(agg.accesses);
    out.add("mem.l1_hit_ratio",
            refs > 0 ? static_cast<double>(agg.l1Hits) / refs : 0.0,
            "ratio");
    out.add("mem.l2_local_hit_ratio",
            agg.l2LocalAccesses > 0
                ? static_cast<double>(agg.l2LocalHits) /
                      static_cast<double>(agg.l2LocalAccesses)
                : 0.0,
            "ratio");
    out.add("coherence.bus_txns_per_kref",
            refs > 0 ? static_cast<double>(txns) * 1000.0 / refs : 0.0,
            "1/kref");
    out.add("core.snoop_probes_per_kref",
            refs > 0 ? static_cast<double>(agg.snoopTagProbes) * 1000.0 /
                           refs
                     : 0.0,
            "1/kref");
    for (const auto &[name, fs] : filters)
        out.add("core.filter_coverage." + metricSuffix(name), fs.coverage(),
                "ratio");
}

/** Merge @p fs into the per-name coverage table. */
void
mergeFilter(std::map<std::string, jetty::filter::FilterStats> &table,
            const std::string &name, const jetty::filter::FilterStats &fs)
{
    jetty::filter::FilterStats &t = table[name];
    t.probes += fs.probes;
    t.filtered += fs.filtered;
    t.wouldMiss += fs.wouldMiss;
    t.filteredWouldMiss += fs.filteredWouldMiss;
    t.safetyViolations += fs.safetyViolations;
}

void
addRunCounters(Outcome &out,
               const std::vector<jetty::experiments::AppRunResult> &runs)
{
    std::vector<jetty::sim::SimStats> stats;
    std::map<std::string, jetty::filter::FilterStats> filters;
    for (const auto &r : runs) {
        stats.push_back(r.stats);
        for (std::size_t i = 0; i < r.filterNames.size(); ++i)
            mergeFilter(filters, r.filterNames[i], r.filterStats[i]);
    }
    addWorkCounters(out, stats, filters);
}

long
spawnProcess(const std::vector<std::string> &argv, int inFd, int outFd)
{
    std::vector<char *> args;
    for (const auto &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    if (inFd >= 0)
        posix_spawn_file_actions_adddup2(&fa, inFd, 0);
    else
        posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
    if (outFd >= 0)
        posix_spawn_file_actions_adddup2(&fa, outFd, 1);
    else
        posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
    pid_t pid = -1;
    const int rc = ::posix_spawn(&pid, args[0], &fa, nullptr, args.data(),
                                 environ);
    posix_spawn_file_actions_destroy(&fa);
    return rc == 0 ? static_cast<long>(pid) : -1;
}

int
runProcess(const std::vector<std::string> &argv)
{
    const long pid = spawnProcess(argv, -1, -1);
    if (pid < 0)
        return -1;
    int status = 0;
    while (::waitpid(static_cast<pid_t>(pid), &status, 0) < 0) {
        if (errno != EINTR)
            return -1;
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

void
addTraceOverhead(Context &ctx, const EndToEnd &untraced,
                 const EndToEnd &traced)
{
    const double u = median(untraced.requestMs);
    ctx.out.add("trace.overhead_frac",
                u > 0 ? median(traced.requestMs) / u - 1.0 : 0.0, "ratio");
}

double
peakRssMb(bool children)
{
    struct rusage self = {};
    ::getrusage(RUSAGE_SELF, &self);
    long kb = self.ru_maxrss;
    if (children) {
        struct rusage kids = {};
        ::getrusage(RUSAGE_CHILDREN, &kids);
        kb = std::max(kb, kids.ru_maxrss);
    }
    return static_cast<double>(kb) / 1024.0;
}

} // namespace perfbench
