/**
 * @file
 * perfbench: run one named workload of the benchmark and print its
 * metrics.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Run from the root of a checkout (BENCHMARK.json names the metrics and
 * their units; temp roots and span dumps stay inside the checkout).
 * Informational lines start with "#"; the last line of stdout is one
 * JSON object {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
 * --trace 1 its per_layer list. A failed output check makes
 * "correct" false and counts as a failure; a run that cannot produce
 * a result exits non-zero without printing one.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <set>

#include "common.hh"
#include "experiments/experiments.hh"
#include "workloads.hh"

#ifndef PERFBENCH_CLI
#error "PERFBENCH_CLI must name the jetty_cli built beside the benchmark"
#endif

namespace
{

using namespace perfbench;
using jetty::json::Value;

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload fig4-cold|assoc4-split|"
                 "serve-mix|dist-grid --seed N --seconds S --trace 0|1\n");
    return 2;
}

/** Cut every tie to the user's environment: no cache directory, scale or
 *  job override is inherited, and children see a HOME inside the
 *  checkout, so ~/.cache/jetty is never read or written. */
void
isolate(const std::string &tmpRoot)
{
    for (const char *var : {"JETTY_CACHE_DIR", "JETTY_CACHE_BYTES",
                            "JETTY_SCALE", "JETTY_JOBS",
                            "JETTY_WORKER_DIE_AFTER"})
        ::unsetenv(var);
    ::setenv("HOME", tmpRoot.c_str(), 1);
    ::setenv("XDG_CACHE_HOME", (tmpRoot + "/xdg").c_str(), 1);
    jetty::experiments::RunCache::instance().setDiskRoot("off");
}

/** The (name -> unit) list of @p section in BENCHMARK.json. */
std::map<std::string, std::string>
declaredMetrics(const std::string &section)
{
    std::string err;
    const Value doc = jetty::json::parseFile("BENCHMARK.json", &err);
    const Value *list = err.empty() ? doc.find(section) : nullptr;
    if (!list || !list->isArray())
        throw std::runtime_error("BENCHMARK.json: no " + section + " list " +
                                 err);
    std::map<std::string, std::string> out;
    for (const auto &m : list->items())
        out[m.find("name")->asString()] = m.find("unit")->asString();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    std::set<std::string> seen;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string val = argv[i + 1];
        seen.insert(flag);
        if (flag == "--workload")
            opts.workload = val;
        else if (flag == "--seed")
            opts.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            opts.seconds = std::atof(val.c_str());
        else if (flag == "--trace")
            opts.trace = val == "1";
        else
            return usage();
    }
    if (argc % 2 != 1 || seen.size() != 4 || !(opts.seconds > 0))
        return usage();

    const std::map<std::string, void (*)(Context &)> workloads = {
        {"fig4-cold", runFig4Cold},
        {"assoc4-split", runAssoc4Split},
        {"serve-mix", runServeMix},
        {"dist-grid", runDistGrid},
    };
    const auto wl = workloads.find(opts.workload);
    if (wl == workloads.end())
        return usage();

    try {
        const auto declared =
            declaredMetrics(opts.trace ? "per_layer" : "end_to_end");
        std::unique_ptr<TempDir> tmp =
            std::make_unique<TempDir>(".bench_tmp", opts.workload);
        isolate(tmp->path());

        Tracer tracer(false, opts.workload);
        Outcome out;
        Context ctx{opts, tracer, out, PERFBENCH_CLI, tmp->path()};
        wl->second(ctx);

        if (!out.errors.empty() && out.failed == 0)
            out.failed = out.errors.size();
        if (!opts.trace) {
            out.add("completed_frac",
                    out.attempted > 0
                        ? static_cast<double>(out.attempted - out.failed) /
                              static_cast<double>(out.attempted)
                        : 0.0,
                    "ratio");
        }

        // Every declared metric, by name with its unit. A per-layer
        // metric whose layer is not on this workload's path reads 0 and
        // is listed; an end-to-end metric must always be measured.
        Value metrics = Value::object();
        std::string absent;
        for (const auto &[name, unit] : declared) {
            const Metric *m = nullptr;
            for (const auto &cand : out.metrics) {
                if (cand.name == name)
                    m = &cand;
            }
            if (m && m->unit != unit)
                throw std::runtime_error(name + " measured in " + m->unit +
                                         ", declared in " + unit);
            if (!m && !opts.trace)
                throw std::runtime_error("end-to-end metric " + name +
                                         " was not measured");
            if (!m)
                absent += " " + name;
            Value v = Value::object();
            v.set("value", m ? m->value : 0.0);
            v.set("unit", unit);
            metrics.set(name, std::move(v));
            std::printf("# %-40s %.6g %s\n", name.c_str(), m ? m->value : 0.0,
                        unit.c_str());
        }
        for (const auto &m : out.metrics) {
            if (!declared.count(m.name))
                throw std::runtime_error("metric " + m.name +
                                         " is not declared in BENCHMARK.json");
        }
        if (!absent.empty())
            out.note("not on this workload's path (reported as 0):" + absent);

        if (opts.trace) {
            Value dump = tracer.toJson();
            dump.set("seed", opts.seed);
            const std::string path = ".bench_out/spans-" + opts.workload +
                                     "-" + std::to_string(opts.seed) +
                                     ".json";
            std::error_code ec;
            std::filesystem::create_directories(".bench_out", ec);
            const std::string err = jetty::json::writeFileErr(path, dump);
            if (!err.empty())
                throw std::runtime_error("span dump: " + err);
            out.note(std::to_string(tracer.size()) + " spans written to " +
                     path);
        }

        for (const auto &line : out.notes)
            std::printf("# %s\n", line.c_str());
        for (const auto &e : out.errors)
            std::fprintf(stderr, "check failed: %s\n", e.c_str());

        Value result = Value::object();
        result.set("correct", out.errors.empty() && out.failed == 0);
        result.set("attempted", out.attempted);
        result.set("failed", out.failed);
        result.set("metrics", std::move(metrics));
        std::printf("%s\n", result.dumpCompact().c_str());
        std::fflush(stdout);
        return 0;
    } catch (const std::exception &ex) {
        std::fprintf(stderr, "perfbench: %s\n", ex.what());
        return 1;
    }
}
