/**
 * @file
 * Shared plumbing of the benchmark: run options, the result every
 * workload fills, output checks, fresh temp roots, seed mixing, report
 * digests and host measurements.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/snoop_filter.hh"
#include "experiments/experiments.hh"
#include "sim/sim_stats.hh"
#include "stats.hh"
#include "tracer.hh"
#include "util/json.hh"

namespace perfbench
{

/** The seed that leaves every app profile seed unchanged. */
constexpr std::uint64_t kDefaultSeed = 0;
/** The held-out seed: expected digests are recorded for it, and it was
 *  never used while tuning the workloads. */
constexpr std::uint64_t kHeldOutSeed = 101;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
};

/** One named metric value. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Everything a workload run reports. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> notes;   //!< printed as "# ..." lines
    std::vector<std::string> errors;  //!< failed output checks

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    void note(const std::string &line) { notes.push_back(line); }

    /** An output check: a false @p ok is recorded, never skipped. */
    bool check(bool ok, const std::string &what)
    {
        if (!ok)
            errors.push_back(what);
        return ok;
    }
};

/** Per-workload context handed to each workload function. */
struct Context
{
    Options opts;
    Tracer &tracer;
    Outcome &out;
    /** Absolute path of the jetty_cli built beside the benchmark. */
    std::string cli;
    /** Scratch root inside the checkout (fresh per run). */
    std::string tmpRoot;
};

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median microseconds of @p n calls of @p fn. */
template <typename Fn>
double
medianUs(int n, Fn fn)
{
    std::vector<double> us;
    for (int i = 0; i < n; ++i) {
        const auto t0 = Clock::now();
        fn();
        us.push_back(secondsSince(t0) * 1e6);
    }
    return median(us);
}

/** A filter name as a metric-name suffix ("HJ(IJ-10x4x7,EJ-32x4)" ->
 *  "HJ-IJ-10x4x7-EJ-32x4"). */
std::string metricSuffix(const std::string &name);

/** Merge @p fs into the per-name coverage table. */
void mergeFilter(std::map<std::string, jetty::filter::FilterStats> &table,
                 const std::string &name,
                 const jetty::filter::FilterStats &fs);

/** Exact work counters (mem.*, coherence.*, core.*) and per-filter
 *  coverage of simulated cells. */
void addWorkCounters(
    Outcome &out, const std::vector<jetty::sim::SimStats> &stats,
    const std::map<std::string, jetty::filter::FilterStats> &filters);

/** addWorkCounters() over answered runs. */
void addRunCounters(Outcome &out,
                    const std::vector<jetty::experiments::AppRunResult> &runs);

/**
 * Start @p argv (argv[0] is the program path) with @p inFd / @p outFd
 * as its stdin / stdout (-1 = /dev/null).
 * @return the child's pid, or -1.
 */
long spawnProcess(const std::vector<std::string> &argv, int inFd, int outFd);

/** Run @p argv to completion, stdout to /dev/null. @return its exit
 *  status, or -1 when it could not start or did not exit normally. */
int runProcess(const std::vector<std::string> &argv);

/**
 * A fresh directory under @p parent, removed with everything in it when
 * the object dies (on success and on failure paths alike).
 */
class TempDir
{
  public:
    TempDir(const std::string &parent, const std::string &prefix);
    ~TempDir();
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string &path() const { return path_; }
    /** path()/@p name, created as a directory. */
    std::string sub(const std::string &name) const;

  private:
    std::string path_;
};

/** Profile seed under benchmark seed @p seed; kDefaultSeed is the
 *  identity. */
std::uint64_t mixSeed(std::uint64_t profileSeed, std::uint64_t seed);

/**
 * Seed of pass @p pass of a run under benchmark seed @p seed: the run's
 * own seed for pass 0 (the one expected.json knows), a fresh one drawn
 * from it for every later pass. The sweeps order their jobs by seeded
 * keys, so one seed fixes where the straggler cells fall and moves the
 * wall time of a pass by up to a third; a run whose passes draw their
 * own seeds has medians over many orders, not one.
 */
std::uint64_t passSeed(std::uint64_t seed, std::size_t pass);

/** Seeded Fisher-Yates shuffle of @p v (identity at kDefaultSeed). */
void shuffleWithSeed(std::vector<std::string> &v, std::uint64_t seed);

/**
 * @p report with its host-time fields (timing.sim_seconds and
 * timing.refs_per_sec of every run) blanked to null: what remains is
 * simulated output only, so two executions of the same spec dump to the
 * same bytes.
 */
jetty::json::Value normalizeReport(const jetty::json::Value &report);

/** 64-bit FNV-1a of @p bytes, as 16 hex digits. */
std::string digestHex(const std::string &bytes);

/** Every SimStats counter, per processor and per bus, as JSON. */
jetty::json::Value statsJson(const jetty::sim::SimStats &stats);

/**
 * Compare @p digest against the expected value recorded for
 * (@p workload, @p seed) in expected.json, when the seed is the default
 * or the held-out one; every other seed is checked by the workload's
 * own cross-checks only.
 */
void checkExpectedDigest(Context &ctx, const std::string &digest);

/** The raw samples behind the end-to-end metrics of one run. */
struct EndToEnd
{
    std::vector<double> setupS;      //!< one per set-up repetition
    std::vector<double> mrefsPerS;   //!< one per pass or round
    std::vector<double> requestMs;   //!< completed request latencies
    std::size_t failedRequests = 0;  //!< entered at limitMs
    double limitMs = 0;              //!< the request latency limit
    double windowS = 0;              //!< time the requests ran in
    std::vector<double> resumeS;     //!< one per second pass
    double resumePct = 50;           //!< the percentile reported as resume_s
    bool childRss = false;           //!< peak RSS includes workers
};

/** Add the end-to-end metrics measured by the workload to ctx.out
 *  (completed_frac is added by main once every check has run). */
void emitEndToEnd(Context &ctx, const EndToEnd &e);

/** The traced run's own cost: its median request over the untraced
 *  one, minus 1 (trace.overhead_frac). */
void addTraceOverhead(Context &ctx, const EndToEnd &untraced,
                      const EndToEnd &traced);

/** Peak resident set of this process (and of its reaped children when
 *  @p children), in MB. */
double peakRssMb(bool children);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
