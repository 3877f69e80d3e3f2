/**
 * @file
 * Report: the one structured results schema every emitter shares.
 *
 * `jetty_cli run/sweep/bench/fuzz` and `bench_throughput` all used to
 * hand-roll their JSON with fprintf (and none of them escaped strings).
 * They now build one metrics tree — architectural statistics, per-bus
 * occupancy, per-filter coverage and energy, timing, plus an echo of
 * the ExperimentSpec that produced the numbers and the content digests
 * of any replayed trace files — and serialize it through util/json.
 *
 * Envelope (every report):
 *   { "jetty_report": 1, "kind": "<run|sweep|bench|fuzz|...>",
 *     "simd_isa": "<avx2|sse2|neon|scalar>", "simd_width": N,
 *     "spec": { ...ExperimentSpec echo... }, ...kind payload... }
 *
 * simd_isa/simd_width name the host's widest vector ISA and its width in
 * 64-bit lanes (run-time detected on x86): provenance for the committed
 * BENCH_*.json baselines and for tools/bench_compare. No simulated
 * number depends on them.
 *
 * The shared sub-trees are built by the static node builders below, so
 * a field rename is one edit, not six.
 */

#ifndef JETTY_API_REPORT_HH
#define JETTY_API_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "api/experiment_spec.hh"
#include "experiments/experiments.hh"
#include "sim/sim_stats.hh"
#include "util/json.hh"

namespace jetty::api
{

/** One structured results document. */
class Report
{
  public:
    /** The on-disk schema version this build writes. */
    static constexpr std::int64_t kVersion = 1;

    /** @param kind the producing flow: "run", "sweep", "bench", "fuzz",
     *  "throughput". */
    explicit Report(const std::string &kind);

    /** The mutable tree (kind-specific payload lands here). */
    json::Value &root() { return root_; }
    const json::Value &root() const { return root_; }

    /** Echo the spec this report answers ("spec"), making every report
     *  file re-runnable: feed the embedded spec back via --spec. */
    void echoSpec(const ExperimentSpec &spec);

    std::string emit() const { return root_.dump(); }
    void writeFile(const std::string &path) const;

    // ---- shared sub-tree builders ----

    /** Aggregate architectural counters of @p stats. */
    static json::Value archNode(const sim::SimStats &stats);

    /** Per-bus occupancy rows of the split interconnect. */
    static json::Value perBusNode(const sim::SimStats &stats);

    /** Timing block: refs, seconds, refs/sec (null when the run was too
     *  short to rate — mirrors the CLI's "-"). */
    static json::Value timingNode(std::uint64_t refs, double seconds,
                                  bool refsTooFewForRate);

    /** @p num / @p denom as a JSON number, or null when @p denom <= 0 —
     *  a zero-elapsed measurement (coarse steady_clock, trivial input)
     *  must become null, not an infinity the emitter refuses. */
    static json::Value ratio(double num, double denom);

    /** One full run: app identity + machine + timing + arch + per-bus +
     *  per-filter coverage/energy/latency rows for @p specs. */
    static json::Value runNode(const experiments::AppRunResult &run,
                               const experiments::SystemVariant &variant,
                               const std::vector<std::string> &specs);

    /** Content digests of @p files ("path" + "digest" rows), so a
     *  report names exactly which capture bytes it measured. */
    static json::Value traceDigestsNode(
        const std::vector<std::string> &files);

  private:
    json::Value root_;
};

} // namespace jetty::api

#endif // JETTY_API_REPORT_HH
