#include "service/executor.hh"

#include <chrono>
#include <cstdio>
#include <utility>

#include "core/filter_spec.hh"
#include "trace/apps.hh"
#include "trace/file_stream_source.hh"

namespace jetty::service
{

namespace
{

/** The replay/run/sweep layers fatal() on a missing trace file deep in
 *  the reader; the service must answer an error instead, so existence
 *  is checked up front. (A file that exists but is corrupt still
 *  fatal()s in the reader — a served job shares the process's fate
 *  there, documented in DESIGN.md.) */
std::string
checkTraceFilesReadable(const std::vector<std::string> &files)
{
    for (const auto &file : files) {
        std::FILE *f = std::fopen(file.c_str(), "rb");
        if (!f)
            return "cannot open trace file '" + file + "'";
        std::fclose(f);
    }
    return "";
}

std::string
rejectSweepAxes(const api::ExperimentSpec &spec, const char *kind)
{
    if (!spec.sweepProcs.empty() || !spec.sweepBuses.empty())
        return std::string(kind) +
               ": the spec has a sweep section — use sweep";
    return "";
}

std::string
rejectForeignSections(const api::ExperimentSpec &spec, const char *kind,
                      bool allowBench)
{
    if (spec.hasFuzz)
        return std::string(kind) +
               ": the spec has a fuzz section — use fuzz";
    if (!allowBench && spec.benchRepeat > 0)
        return std::string(kind) +
               ": the spec has a bench section — use bench";
    return "";
}

/** Round-trip the fully resolved spec through its own schema, replacing
 *  it with the normalized parse — the --dump-spec/--spec contract, and
 *  where an unknown app or out-of-range field gets the schema's
 *  diagnostic. */
std::string
validateResolved(api::ExperimentSpec &spec)
{
    std::string err;
    api::ExperimentSpec parsed =
        api::ExperimentSpec::parse(spec.emit(), &err);
    if (!err.empty())
        return err;
    spec = std::move(parsed);
    return "";
}

std::string
requireVariantMachine(const api::ExperimentSpec &spec)
{
    std::string why;
    if (!spec.machine.variantCompatible(&why))
        return why;
    return "";
}

} // namespace

const std::vector<std::string> &
defaultFilterSpecs()
{
    static const std::vector<std::string> kDefault = {
        "EJ-32x4", "IJ-10x4x7", "HJ(IJ-10x4x7,EJ-32x4)"};
    return kDefault;
}

std::string
chooseKind(const api::ExperimentSpec &spec, std::string *err)
{
    if (spec.hasFuzz) {
        *err = "the spec has a fuzz section — fuzz runs locally "
               "(jetty_cli fuzz), not through the service";
        return "";
    }
    if (spec.benchRepeat > 0) {
        *err = "the spec has a bench section — bench times this machine "
               "(jetty_cli bench), not through the service";
        return "";
    }
    if (!spec.sweepProcs.empty() || !spec.sweepBuses.empty() ||
        spec.apps.size() > 1)
        return "sweep";
    if (!spec.traceFiles.empty())
        return "replay";
    return "run";
}

std::string
resolveSpec(api::ExperimentSpec &spec, const std::string &kind)
{
    std::string err;
    if (kind == "run") {
        if (spec.apps.empty())
            spec.apps = {"lu"};
        if (spec.apps.size() > 1)
            return "run simulates one application (the spec names " +
                   std::to_string(spec.apps.size()) + ") — use sweep";
        if (!spec.traceFiles.empty())
            return "run synthesizes from an application profile; use "
                   "replay or bench for trace_files specs";
        if (!(err = rejectSweepAxes(spec, "run")).empty())
            return err;
        if (!(err = rejectForeignSections(spec, "run", false)).empty())
            return err;
        if (spec.filters.empty())
            spec.filters = defaultFilterSpecs();
        if (spec.scale <= 0)
            spec.scale = 0.25;
    } else if (kind == "sweep") {
        if (spec.apps.empty() && spec.traceFiles.empty()) {
            for (const auto &app : trace::paperApps())
                spec.apps.push_back(app.abbrev);
        }
        if (!(err = checkTraceFilesReadable(spec.traceFiles)).empty())
            return err;
        if (spec.sweepProcs.empty()) {
            // Trace-file sweeps infer the processor axis from the
            // capture, exactly as replay does — a multi-section file
            // pins it.
            spec.sweepProcs = {
                spec.traceFiles.empty()
                    ? spec.machine.procs
                    : trace::inferReplayProcs(spec.traceFiles,
                                              spec.machine.procs)};
        }
        if (spec.sweepBuses.empty())
            spec.sweepBuses = {spec.machine.buses};
        if (!(err = rejectForeignSections(spec, "sweep", false)).empty())
            return err;
        if (spec.filters.empty())
            spec.filters = defaultFilterSpecs();
        if (spec.scale <= 0)
            spec.scale = 0.25;
    } else if (kind == "replay") {
        if (spec.traceFiles.empty())
            return "replay needs --in FILE[,FILE...] (or a spec with "
                   "workload.trace_files)";
        if (spec.filters.empty())
            spec.filters = defaultFilterSpecs();
        if (!(err = rejectSweepAxes(spec, "replay")).empty())
            return err;
        if (!(err = rejectForeignSections(spec, "replay", false)).empty())
            return err;
        if (!(err = checkTraceFilesReadable(spec.traceFiles)).empty())
            return err;
        spec.machine.procs =
            trace::inferReplayProcs(spec.traceFiles, spec.machine.procs);
    } else if (kind == "bench") {
        if (spec.apps.empty() && spec.traceFiles.empty())
            spec.apps = {"lu"};
        if (spec.apps.size() > 1)
            return "bench drives one workload (the spec names " +
                   std::to_string(spec.apps.size()) + " apps)";
        if (spec.benchRepeat == 0)
            spec.benchRepeat = 3;
        if (!(err = rejectSweepAxes(spec, "bench")).empty())
            return err;
        if (!(err = rejectForeignSections(spec, "bench", true)).empty())
            return err;
        if (spec.filters.empty())
            spec.filters = defaultFilterSpecs();
        if (spec.scale <= 0)
            spec.scale = 1.0;
        if (!spec.traceFiles.empty()) {
            if (!(err = checkTraceFilesReadable(spec.traceFiles)).empty())
                return err;
            spec.machine.procs = trace::inferReplayProcs(
                spec.traceFiles, spec.machine.procs);
        }
    } else {
        return "unknown execution kind '" + kind + "'";
    }
    if (!(err = validateResolved(spec)).empty())
        return err;
    // Bench drives SmpSystem directly, so explicit machine geometry is
    // honoured rather than required to match the paper variant.
    return kind == "bench" ? "" : requireVariantMachine(spec);
}

std::vector<std::string>
canonicalFilterNames(const api::ExperimentSpec &spec)
{
    std::vector<std::string> names = spec.filters;
    const auto amap = spec.machine.toVariant().smpConfig().addressMap();
    for (auto &s : names)
        s = filter::canonicalFilterName(s, amap);
    return names;
}

json::Value
buildReport(const api::ExperimentSpec &spec, const std::string &kind,
            const std::vector<std::string> &filterNames,
            const std::vector<experiments::RunRequest> &requests,
            const std::vector<experiments::AppRunResult> &runs)
{
    api::Report report(kind);
    report.echoSpec(spec);
    if (kind == "sweep") {
        json::Value arr = json::Value::array();
        for (std::size_t i = 0; i < runs.size(); ++i) {
            arr.push(api::Report::runNode(runs[i], requests[i].variant,
                                          filterNames));
        }
        report.root().set("runs", std::move(arr));
    } else if (kind == "run") {
        report.root().set("run",
                          api::Report::runNode(runs[0], requests[0].variant,
                                               filterNames));
    } else {
        report.root().set("run",
                          api::Report::runNode(runs[0], requests[0].variant,
                                               runs[0].filterNames));
        report.root().set("trace_digests",
                          api::Report::traceDigestsNode(spec.traceFiles));
    }
    return report.root();
}

std::string
runResolved(const api::ExperimentSpec &spec, const std::string &kind,
            unsigned jobs, ExecuteResult &out)
{
    using Clock = std::chrono::steady_clock;

    out = ExecuteResult();
    out.kind = kind;

    const experiments::SystemVariant variant = spec.machine.toVariant();
    out.filterNames = canonicalFilterNames(spec);

    if (kind == "run") {
        experiments::RunRequest req;
        req.app = trace::appByName(spec.apps[0]);
        req.variant = variant;
        req.filterSpecs = out.filterNames;
        req.accessScale = spec.scale;
        out.requests.push_back(std::move(req));
    } else if (kind == "sweep") {
        out.requests = spec.expand();
        for (auto &req : out.requests)
            req.filterSpecs = out.filterNames;
    } else if (kind == "replay") {
        experiments::RunRequest req;
        req.variant = variant;
        req.traceFiles = spec.traceFiles;
        req.filterSpecs = spec.filters;
        req.app.name = "replay:" + spec.traceFiles.front();
        req.app.abbrev = "rp";
        out.requests.push_back(std::move(req));
    } else {
        return "unknown execution kind '" + kind + "'";
    }

    auto &cache = experiments::RunCache::instance();
    const std::uint64_t sims0 = cache.simulations();
    const std::uint64_t hits0 = cache.hits();
    const std::uint64_t disk0 = cache.diskHits();

    const auto t0 = Clock::now();
    out.runs = experiments::runMany(out.requests, jobs);
    out.sweepSeconds =
        std::chrono::duration<double>(Clock::now() - t0).count();

    out.simulated = cache.simulations() - sims0;
    out.diskHits = cache.diskHits() - disk0;
    out.memHits = cache.hits() - hits0 - out.diskHits;
    return "";
}

std::string
executeResolved(const api::ExperimentSpec &spec, const std::string &kind,
                unsigned jobs, ExecuteResult &out)
{
    const std::string err = runResolved(spec, kind, jobs, out);
    if (err.empty())
        out.report = buildReport(spec, kind, out.filterNames, out.requests,
                                 out.runs);
    return err;
}

std::string
executeSpec(api::ExperimentSpec spec, unsigned jobs, ExecuteResult &out)
{
    std::string err;
    const std::string kind = chooseKind(spec, &err);
    if (kind.empty())
        return err;
    if (!(err = resolveSpec(spec, kind)).empty())
        return err;
    return executeResolved(spec, kind, jobs, out);
}

} // namespace jetty::service
