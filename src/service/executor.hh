/**
 * @file
 * The one spec-execution path shared by the CLI (`jetty_cli
 * run/sweep/replay`) and the experiment service (`jetty_cli serve`);
 * `jetty_cli bench` shares its resolution step.
 *
 * Both front ends hand a loaded ExperimentSpec to resolveSpec() (fill
 * the verb's defaults, validate through the spec's own schema, check
 * variant compatibility) and then executeResolved(): runResolved()
 * expands it to RunRequests and answers them through the shared
 * two-tier RunCache, and buildReport() assembles the api::Report tree.
 * A distributed worker's shard (dist::executeShard) is runResolved()
 * alone — the coordinator builds the one report from the merged cells.
 * Because the report tree is built once, here, a report served over
 * the wire or merged from workers is bit-identical to the file the
 * direct CLI invocation would have written for the same spec.
 *
 * Everything reports failure as a returned string instead of fatal():
 * the CLI turns it into its usual fatal() diagnostic, the server into
 * an ok=false response — a malformed job must never take the daemon
 * down.
 */

#ifndef JETTY_SERVICE_EXECUTOR_HH
#define JETTY_SERVICE_EXECUTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "api/experiment_spec.hh"
#include "api/report.hh"
#include "experiments/experiments.hh"
#include "util/json.hh"

namespace jetty::service
{

/** The paper's standard filter trio — the default filter set of
 *  run/replay/bench/serve (single source of truth; the CLI and the
 *  server must not drift apart). */
const std::vector<std::string> &defaultFilterSpecs();

/**
 * The execution kind a bare spec asks for, decided by its shape (the
 * service has no subcommand word): sweep axes or several apps -> sweep;
 * trace files -> replay; otherwise run. Fuzz and bench sections are
 * rejected (they need the dedicated local subcommands).
 * @return "run" / "sweep" / "replay", or "" with @p err set.
 */
std::string chooseKind(const api::ExperimentSpec &spec, std::string *err);

/**
 * Resolve @p spec in place for @p kind ("run" / "sweep" / "replay" /
 * "bench"): fill the kind's defaults (workload, filters, scale, sweep
 * axes, bench repeat, processor inference from trace files), reject
 * sections the kind cannot honour, round-trip through the spec schema,
 * and — except for bench, which honours explicit geometry — require a
 * variant-compatible machine. Idempotent: resolving an already-resolved
 * spec is a no-op, so a spec resolved by the CLI and re-resolved by the
 * server stays byte-identical.
 * @return "" on success, else the diagnostic.
 */
std::string resolveSpec(api::ExperimentSpec &spec, const std::string &kind);

/** Everything one executed spec produced. */
struct ExecuteResult
{
    std::string kind;

    /** Canonical filter names, report column order. */
    std::vector<std::string> filterNames;

    /** The expanded requests and their answers, parallel vectors. */
    std::vector<experiments::RunRequest> requests;
    std::vector<experiments::AppRunResult> runs;

    /** The full api::Report tree ("run"/"sweep"/"replay" schema);
     *  null after runResolved() alone. */
    json::Value report;

    /** RunCache counter deltas over this execution. */
    std::uint64_t simulated = 0;
    std::uint64_t diskHits = 0;
    std::uint64_t memHits = 0;

    /** Wall clock of the runMany() call. */
    double sweepSeconds = 0;
};

/**
 * Answer a spec already resolved for @p kind through the shared
 * RunCache: expand it to RunRequests and run them, filling @p out
 * except for its report (the distributed worker's whole job).
 * @param jobs SweepRunner worker override (0 = SweepRunner default).
 * @return "" on success, else the diagnostic (@p out unspecified).
 */
std::string runResolved(const api::ExperimentSpec &spec,
                        const std::string &kind, unsigned jobs,
                        ExecuteResult &out);

/** runResolved() followed by buildReport() into @p out.report. */
std::string executeResolved(const api::ExperimentSpec &spec,
                            const std::string &kind, unsigned jobs,
                            ExecuteResult &out);

/** chooseKind + resolveSpec + executeResolved in one step (the server's
 *  whole job handler). */
std::string executeSpec(api::ExperimentSpec spec, unsigned jobs,
                        ExecuteResult &out);

/** The spec's filter specs canonicalized under its machine's address
 *  map — results carry canonical names, so these are the lookup keys
 *  and report column headers. */
std::vector<std::string>
canonicalFilterNames(const api::ExperimentSpec &spec);

/**
 * Build the api::Report tree for an executed spec from its expanded
 * requests and their answers. This is the ONE place a report is
 * assembled — executeResolved() and the distributed sweep merger
 * (dist::Coordinator) both call it, so a merged distributed report is
 * byte-identical to the single-process report by construction.
 */
json::Value buildReport(const api::ExperimentSpec &spec,
                        const std::string &kind,
                        const std::vector<std::string> &filterNames,
                        const std::vector<experiments::RunRequest> &requests,
                        const std::vector<experiments::AppRunResult> &runs);

} // namespace jetty::service

#endif // JETTY_SERVICE_EXECUTOR_HH
