#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "energy/technology.hh"
#include "trace/file_stream_source.hh"
#include "trace/synthetic.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"

namespace jetty::sim
{

unsigned
SweepRunner::defaultJobs()
{
    if (const char *env = std::getenv("JETTY_JOBS")) {
        unsigned v = 0;
        if (parseUnsigned(env, v) && v >= 1)
            return v;
        warn("ignoring JETTY_JOBS: not a count >= 1");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1;
}

SweepRunner::SweepRunner(unsigned jobs)
    : jobs_(jobs >= 1 ? jobs : defaultJobs())
{
}

std::vector<SweepResult>
SweepRunner::run(const std::vector<SweepJob> &jobList)
{
    const std::size_t n = jobList.size();
    std::vector<SweepResult> results(n);

    // The caller and min(jobs_, n) - 1 helpers take indices from one
    // counter; each job writes its own slot, so the result vector is
    // identical whatever order the jobs run in. jobs_ == 1 (or a
    // one-job batch) spawns nothing, keeping the serial reference path
    // trivially schedule-free.
    std::atomic<std::size_t> next{0};
    const auto drain = [&] {
        for (std::size_t i = next++; i < n; i = next++)
            results[i] = runOne(jobList[i]);
    };
    std::vector<std::thread> helpers(
        n > 1 ? std::min<std::size_t>(jobs_, n) - 1 : 0);
    for (auto &t : helpers)
        t = std::thread(drain);
    drain();
    for (auto &t : helpers)
        t.join();
    return results;
}

SweepResult
SweepRunner::runOne(const SweepJob &job)
{
    SweepResult res;
    SmpSystem system(job.cfg);

    // The workload must outlive the run: synthetic sources read its
    // layout and page table for every reference they generate.
    std::unique_ptr<trace::Workload> workload;
    if (!job.traceFiles.empty()) {
        // File-backed replay: stream the captured sections; nothing is
        // materialized, so the trace may exceed memory.
        system.attachSources(
            trace::makeFileSources(job.traceFiles, job.cfg.nprocs));
    } else {
        workload = std::make_unique<trace::Workload>(
            job.app, job.cfg.nprocs, job.accessScale);
        res.memoryAllocated = workload->memoryAllocated();

        std::vector<trace::TraceSourcePtr> sources;
        sources.reserve(job.cfg.nprocs);
        for (unsigned p = 0; p < job.cfg.nprocs; ++p)
            sources.push_back(workload->makeSource(p));
        system.attachSources(std::move(sources));
    }

    const auto sim_start = std::chrono::steady_clock::now();
    system.run();
    res.elapsedSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - sim_start)
                             .count();

    res.stats = system.stats();
    res.totalRefs = res.stats.aggregate().accesses;
    res.traffic = system.mergedTraffic();

    // A sub-batch trace finishes inside the timer's resolution, so a
    // rate derived from it is noise (historically inf when the elapsed
    // time rounded to exactly zero). Flag it; reports print no rate.
    // The documented threshold is one delivery batch *per processor*.
    const std::uint64_t batch =
        job.cfg.batchRefs >= 1 ? job.cfg.batchRefs : 1;
    res.refsTooFewForRate = res.elapsedSeconds <= 0.0 ||
                            res.totalRefs < batch * job.cfg.nprocs;

    const energy::Technology tech = energy::Technology::micron180();
    const auto &bank = system.bank(0);
    res.filterNames.reserve(bank.size());
    res.filterStats.reserve(bank.size());
    res.filterCosts.reserve(bank.size());
    for (std::size_t i = 0; i < bank.size(); ++i) {
        res.filterNames.push_back(bank.filterAt(i).name());
        res.filterStats.push_back(system.mergedFilterStats(i));
        res.filterCosts.push_back(bank.filterAt(i).energyCosts(tech));
    }
    return res;
}

} // namespace jetty::sim
