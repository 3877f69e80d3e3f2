/**
 * @file
 * Shared experiment kit: canonical paper configurations, declarative
 * application runs, per-app result bundles, and energy evaluation
 * helpers. The service executor (service/executor.hh) and through it
 * every jetty_cli verb, the paper's tables (service/paper.hh) included,
 * build on these.
 *
 * Runs are served through a process-wide keyed cache (RunCache) backed by
 * the parallel SweepRunner engine: callers *request* runs declaratively —
 * runApp()/runMany() — and identical (app, variant, scale) pairs simulate
 * exactly once per process, whatever order the tables and panels pull
 * them in. Because the filter bank is a passive observer, a cached
 * simulation covering a superset of the requested filter specs answers
 * the request exactly.
 */

#ifndef JETTY_EXPERIMENTS_EXPERIMENTS_HH
#define JETTY_EXPERIMENTS_EXPERIMENTS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/filter_bank.hh"
#include "energy/accountant.hh"
#include "energy/cache_energy.hh"
#include "sim/sweep.hh"
#include "trace/apps.hh"
#include "trace/synthetic.hh"

namespace jetty::experiments
{

/** Base system variants exercised by the evaluation. */
struct SystemVariant
{
    unsigned nprocs = 4;
    bool subblocked = true;  //!< 64 B blocks of two 32 B units vs 32 B units

    /** Logical snoop buses of the split interconnect (the bus-count
     *  sweep axis; 1 = the paper's single shared bus). */
    unsigned snoopBuses = 1;

    /** Build the SmpConfig (filters added by the caller). */
    sim::SmpConfig smpConfig() const;

    /** Cache geometry for the energy model of this variant's L2. */
    energy::CacheGeometry l2EnergyGeometry() const;
};

/** Every filter configuration the paper evaluates, in bench order. */
std::vector<std::string> allPaperFilterSpecs();

/** Results of running one application on one system variant. */
struct AppRunResult
{
    /** @param nprocs sizes the per-processor stats block. */
    explicit AppRunResult(unsigned nprocs = 0) : stats(nprocs) {}

    std::string appName;
    std::string abbrev;
    std::uint64_t memoryAllocated = 0;
    sim::SimStats stats;

    /** References retired and wall-clock seconds of the simulation that
     *  produced this result (cache hits carry the originating run's
     *  timing; aggregate wall-clock is the caller's to measure). */
    std::uint64_t totalRefs = 0;
    double simSeconds = 0;

    /** The run was too short to rate meaningfully (see
     *  sim::SweepResult::refsTooFewForRate); report "-" not a rate. */
    bool refsTooFewForRate = false;

    /** Names of the evaluated filters, parallel to filterStats. */
    std::vector<std::string> filterNames;

    /** Per-filter stats merged over all processors. */
    std::vector<filter::FilterStats> filterStats;

    /** Per-filter per-event energies (J). */
    std::vector<energy::FilterEnergyCosts> filterCosts;

    /** L2 traffic merged over all processors. */
    energy::L2Traffic traffic;

    /** Coverage of filter @p name; fatal() when unknown. */
    const filter::FilterStats &statsFor(const std::string &name) const;
    const energy::FilterEnergyCosts &costsFor(const std::string &name) const;
};

/** One declaratively requested run. */
struct RunRequest
{
    trace::AppProfile app;
    SystemVariant variant;
    std::vector<std::string> filterSpecs;

    /** Scales the reference count (1.0 when <= 0). */
    double accessScale = -1.0;

    /**
     * When non-empty the run replays these captured trace files
     * (trace::makeFileSources rules) instead of synthesizing from
     * @ref app, and the cache keys the workload by the files' *content
     * digests* — the same capture answers from the cache wherever the
     * files live, and an edited file re-simulates. @ref app then only
     * labels the result; accessScale is ignored.
     */
    std::vector<std::string> traceFiles;
};

/**
 * Content identity of the request's workload: a fingerprint over every
 * profile field that shapes the reference streams, or — file-backed —
 * over the trace files' content digests. Two requests with equal
 * fingerprints (and equal variants/scale) are the same simulation;
 * runCacheKey() folds this into the canonical RunCache key.
 */
std::uint64_t workloadFingerprint(const RunRequest &req);

/**
 * Content digest of a trace file, memoized per (path, size,
 * nanosecond-mtime) stamp so repeated replays of one capture do not
 * re-scan a possibly larger-than-RAM file per request. Safe against the
 * stat/hash race: the stamp is re-checked *after* hashing and the digest
 * is only memoized when the file did not change underneath the hash;
 * a file that keeps changing is re-hashed unmemoized. fatal() when the
 * file cannot be stat'ed.
 */
std::uint64_t traceFileDigestCached(const std::string &path);

/** Drop every memoized trace digest (also done by RunCache::clear()),
 *  so a test — or a long-lived server — never trusts a stamp across an
 *  explicit invalidation point. */
void invalidateTraceDigestMemo();

/** Test seam: run @p hook (empty = none) between the digest memo's
 *  pre-hash stat and the hash itself — the TOCTOU window — e.g. to
 *  rewrite the file mid-race in a regression test. */
void setTraceDigestPreHashHook(
    std::function<void(const std::string &path)> hook);

/**
 * The RunCache identity of @p req under @p scale: the canonical
 * (sorted-keys, minimal-whitespace, shortest-exact-number) JSON
 * serialization of the simulated cell — variant machine + workload
 * fingerprint (+ scale for profile-backed workloads; a capture's
 * length is the capture's length). Key equality is exactly "same
 * simulation", however the request was phrased.
 */
std::string runCacheKey(const RunRequest &req, double scale);

/**
 * Serve @p requests: cache hits are answered directly, the misses are
 * simulated concurrently by one SweepRunner sweep, and every result is
 * remembered for the rest of the process.
 *
 * @param jobs worker threads for the sweep (0 = SweepRunner default).
 *             Results are bit-identical for every value of @p jobs.
 * @return one result per request, in request order, restricted to the
 *         requested filter specs (by canonical name, first-occurrence
 *         order).
 */
std::vector<AppRunResult> runMany(const std::vector<RunRequest> &requests,
                                  unsigned jobs = 0);

/**
 * Run application @p app on @p variant evaluating @p filterSpecs.
 * @param accessScale scales the reference count (1.0 when <= 0).
 */
AppRunResult runApp(const trace::AppProfile &app,
                    const SystemVariant &variant,
                    const std::vector<std::string> &filterSpecs,
                    double accessScale = -1.0);

/**
 * The process-wide run cache behind runApp()/runMany(),
 * keyed by runCacheKey() — the canonical (sorted-keys, minimal)
 * JSON serialization of the simulated cell's machine + workload
 * fingerprint + scale. File-backed workloads fingerprint the trace
 * files' content digests instead of the app identity. A request whose
 * filter specs are covered by the cached entry is a hit; otherwise the
 * cell simulates once with just the specs the entry lacks, and their
 * rows are folded into it (filters are passive observers, so a row does
 * not depend on its bank mates).
 * Thread-safe.
 *
 * An optional on-disk tier (experiments/disk_cache.hh) persists every
 * cell across processes: tier-0 misses consult it before simulating, and
 * every simulation publishes through it. Off by default so tests stay
 * hermetic; enabled by setDiskRoot() or the JETTY_CACHE_DIR environment
 * variable ("" or "off" disables). jetty_cli default-enables it under
 * ~/.cache/jetty for run/sweep/replay/serve.
 */
class RunCache
{
  public:
    static RunCache &instance();

    /** Forget every cached run and every memoized trace digest, and
     *  reset the counters (tests). The on-disk tier's *files* survive —
     *  clearing tier 0 is exactly how a test models a fresh process
     *  reusing the persistent tier. */
    void clear();

    /** Simulations actually executed (cache misses) since start/clear. */
    std::uint64_t simulations() const;

    /** Requests answered without simulating since start/clear. */
    std::uint64_t hits() const;

    /** Requests answered from the on-disk tier since start/clear
     *  (counted inside hits() too). */
    std::uint64_t diskHits() const;

    /** Attach the on-disk tier at @p root (created if missing); "" or
     *  "off" detaches it. Replaces any previously attached root. */
    void setDiskRoot(const std::string &root);

    /** The attached on-disk root ("" when the tier is off). */
    std::string diskRoot() const;

    /** LRU byte budget for the on-disk tier (applies to the current and
     *  any later attached root). */
    void setDiskBudget(std::uint64_t bytes);

  private:
    RunCache();
    ~RunCache();

    friend std::vector<AppRunResult>
    runMany(const std::vector<RunRequest> &, unsigned);

    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** Energy-reduction summary of one filter on one run. */
struct EnergyResult
{
    double reductionOverSnoopsPct = 0;  //!< Figure 6(a)/(c)
    double reductionOverAllPct = 0;     //!< Figure 6(b)/(d)
};

/** Evaluate filter @p name on @p run under @p mode (serial/parallel). */
EnergyResult evaluateEnergy(const AppRunResult &run,
                            const SystemVariant &variant,
                            const std::string &name,
                            energy::AccessMode mode);

} // namespace jetty::experiments

#endif // JETTY_EXPERIMENTS_EXPERIMENTS_HH
