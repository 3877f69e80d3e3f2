/**
 * @file
 * SweepRunner: the parallel sweep engine under the experiment kit.
 *
 * The paper's evaluation is a cross-product — every JETTY configuration ×
 * every application × every system variant. Each cell of that product is
 * an independent, deterministic simulation: one SmpSystem, one Workload,
 * no shared mutable state. SweepRunner exploits that by running many
 * (app, variant) jobs concurrently on threads each run() call spawns and
 * joins before it returns.
 *
 * Determinism contract (DESIGN.md): a job's result depends only on the
 * job description — the workload is seeded from the profile alone and the
 * result lands at the job's index — so `jobs=1` and `jobs=N` produce
 * bit-identical result vectors. The thread count changes wall-clock time,
 * never numbers.
 */

#ifndef JETTY_SIM_SWEEP_HH
#define JETTY_SIM_SWEEP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/filter_bank.hh"
#include "energy/accountant.hh"
#include "sim/sim_stats.hh"
#include "sim/smp_system.hh"
#include "trace/app_profile.hh"

namespace jetty::sim
{

/** One cell of the evaluation cross-product. */
struct SweepJob
{
    /** Workload definition; the simulation seeds from app.seed alone. */
    trace::AppProfile app;

    /** System to instantiate, including cfg.filterSpecs to evaluate. */
    SmpConfig cfg;

    /** Multiplies app.accessesPerProc (tests use << 1.0). */
    double accessScale = 1.0;

    /**
     * When non-empty the job replays these captured trace files through
     * streaming FileStreamSources instead of synthesizing from @ref app
     * (which then only contributes its name to reports): one file per
     * processor, one multi-section file, or one single-section file
     * replayed on every processor (trace::makeFileSources rules).
     * accessScale does not apply to replays.
     */
    std::vector<std::string> traceFiles;
};

/** Everything one job's simulation produced. */
struct SweepResult
{
    std::uint64_t memoryAllocated = 0;
    SimStats stats{0};

    /** References the simulation retired (all processors). */
    std::uint64_t totalRefs = 0;

    /** Wall-clock seconds the simulation proper took (excludes workload
     *  construction). Timing is reporting only — every simulated number
     *  is independent of it. */
    double elapsedSeconds = 0;

    /**
     * True when the job was too short to rate meaningfully: it retired
     * fewer references than one delivery batch per processor, or the
     * wall clock rounded to zero. Reporting layers then print "-"
     * instead of an inf/garbage rate.
     */
    bool refsTooFewForRate = false;

    /** Canonical names of the evaluated filters, in bank order. */
    std::vector<std::string> filterNames;

    /** Per-filter stats merged over all processors. */
    std::vector<filter::FilterStats> filterStats;

    /** Per-filter per-event energies (J). */
    std::vector<energy::FilterEnergyCosts> filterCosts;

    /** L2 traffic merged over all processors. */
    energy::L2Traffic traffic;
};

/**
 * The engine: each run() starts min(jobs, batch size) - 1 threads, the
 * caller works beside them, and all are joined before run() returns, so
 * no thread outlives a batch. run() may be called repeatedly and
 * concurrently; batches share nothing.
 */
class SweepRunner
{
  public:
    /** @param jobs worker count; 0 selects defaultJobs(). */
    explicit SweepRunner(unsigned jobs = 0);

    /** The JETTY_JOBS environment variable, or the hardware thread
     *  count (at least 1). */
    static unsigned defaultJobs();

    /**
     * Run every job, concurrently when the worker count is > 1.
     * @return one result per job, in job order, independent of the
     *         worker count.
     */
    std::vector<SweepResult> run(const std::vector<SweepJob> &jobs);

    /** Simulate a single job synchronously on the calling thread. */
    static SweepResult runOne(const SweepJob &job);

  private:
    unsigned jobs_;
};

} // namespace jetty::sim

#endif // JETTY_SIM_SWEEP_HH
