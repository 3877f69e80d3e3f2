#include "verify/fuzzer.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "api/experiment_spec.hh"
#include "trace/file_stream_source.hh"
#include "trace/trace_file.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"
#include "verify/golden_smp.hh"

namespace jetty::verify
{

using trace::TraceRecord;

const char *
patternName(Pattern p)
{
    switch (p) {
      case Pattern::Uniform: return "uniform";
      case Pattern::FalseSharing: return "false-sharing";
      case Pattern::Migratory: return "migratory";
      case Pattern::ProducerConsumer: return "producer-consumer";
      case Pattern::EvictionStorm: return "eviction-storm";
      case Pattern::HotUnit: return "hot-unit";
      case Pattern::PrivateStream: return "private-stream";
    }
    return "?";
}

sim::SmpConfig
FuzzConfig::defaultSystem()
{
    sim::SmpConfig cfg;
    cfg.nprocs = 4;
    cfg.l1.sizeBytes = 1024;
    cfg.l1.assoc = 1;
    cfg.l1.blockBytes = 32;
    cfg.l2.sizeBytes = 8192;
    cfg.l2.assoc = 1;
    cfg.l2.blockBytes = 64;
    cfg.l2.subblocks = 2;
    cfg.wbEntries = 4;
    // Every built-in family, so one campaign stresses the whole
    // no-false-negative surface at once (banks are passive observers).
    cfg.filterSpecs = {"NULL",     "EJ-16x2",  "VEJ-16x2-4",
                       "IJ-8x4x7", "RF-8x10",  "HJ(IJ-8x4x7,EJ-16x2)"};
    // The checkers report violations; the bank must not panic first.
    cfg.checkSafety = false;
    return cfg;
}

std::uint64_t
FuzzResult::records() const
{
    std::uint64_t n = 0;
    for (const auto &t : traces)
        n += t.size();
    return n;
}

TraceFuzzer::TraceFuzzer(const FuzzConfig &cfg) : cfg_(cfg)
{
    if (cfg_.system.nprocs < 2)
        fatal("TraceFuzzer: need at least two processors");
    if (cfg_.refsPerProc == 0)
        fatal("TraceFuzzer: refsPerProc must be >= 1");
}

TraceSet
TraceFuzzer::generate(std::uint64_t roundSeed,
                      const std::array<double, kPatternCount> &weights)
{
    const unsigned nprocs = cfg_.system.nprocs;
    const mem::L2Config &l2 = cfg_.system.l2;
    const unsigned unit = l2.unitBytes();
    const unsigned block = l2.blockBytes;
    const unsigned subblocks = l2.subblocks;
    const std::uint64_t sets = l2.sets();

    // Address regions. The pool is ~3x the L2 so every geometry thrashes;
    // regions are disjoint so patterns collide only through the caches.
    const Addr pool_base = 0x100000;
    const std::uint64_t pool_blocks = (l2.sizeBytes / block) * 3;
    const Addr mig_base = pool_base + pool_blocks * block + block;
    const unsigned mig_objects = 8;
    const Addr pc_base = mig_base + mig_objects * block + block;
    const std::uint64_t pc_units = 8;  // ring buffer units per proc
    const Addr storm_base =
        pc_base + (nprocs + 1) * pc_units * unit + block;
    // The storm draws this many same-set tag strides; the next region
    // starts past all of them so the documented disjointness holds for
    // every associativity.
    const std::uint64_t storm_strides = 4 * l2.assoc + 4;
    const Addr priv_base =
        storm_base + storm_strides * sets * block + block;
    const std::uint64_t priv_span = 6 * l2.sizeBytes;  // defeats the L2

    Rng rng(roundSeed);
    TraceSet traces(nprocs);
    for (auto &t : traces)
        t.reserve(cfg_.refsPerProc);

    double total_weight = 0;
    for (const double w : weights)
        total_weight += w;
    if (total_weight <= 0)
        fatal("TraceFuzzer: pattern weights sum to zero");

    std::vector<std::uint64_t> priv_cursor(nprocs, 0);
    const std::uint64_t seg_len = 64;

    while (traces[0].size() < cfg_.refsPerProc) {
        const std::uint64_t want = std::min<std::uint64_t>(
            seg_len, cfg_.refsPerProc - traces[0].size());

        // Weighted pattern draw for this segment.
        double u = rng.uniform() * total_weight;
        unsigned pick = kPatternCount - 1;
        for (unsigned i = 0; i < kPatternCount; ++i) {
            if (u < weights[i]) {
                pick = i;
                break;
            }
            u -= weights[i];
        }
        const Pattern pattern = static_cast<Pattern>(pick);

        // Per-segment anchors drawn once so every processor of the
        // segment contends on the same structures.
        const std::uint64_t anchor_set = rng.below(sets);
        const Addr hot_unit =
            pool_base + rng.below(pool_blocks) * block +
            rng.below(subblocks) * unit;
        Addr fs_blocks[4];
        for (auto &b : fs_blocks)
            b = pool_base + rng.below(pool_blocks) * block;

        for (std::uint64_t i = 0; i < want; ++i) {
            for (unsigned p = 0; p < nprocs; ++p) {
                TraceRecord rec;
                switch (pattern) {
                  case Pattern::Uniform:
                    rec.addr = pool_base +
                               rng.below(pool_blocks) * block +
                               rng.below(subblocks) * unit +
                               rng.below(unit);
                    rec.type = rng.chance(0.35) ? AccessType::Write
                                                : AccessType::Read;
                    break;

                  case Pattern::FalseSharing:
                    // Distinct units of one block: sibling-subblock
                    // snoops, tag hits with unit misses.
                    rec.addr = fs_blocks[rng.below(4)] +
                               (p % subblocks) * unit;
                    rec.type = rng.chance(0.5) ? AccessType::Write
                                               : AccessType::Read;
                    break;

                  case Pattern::Migratory: {
                    // Read-modify-write visits whose owner rotates.
                    const std::uint64_t step = traces[p].size() / 2;
                    const std::uint64_t obj = (step + p) % mig_objects;
                    rec.addr = mig_base + obj * block;
                    rec.type = traces[p].size() % 2 == 0
                                   ? AccessType::Read
                                   : AccessType::Write;
                    break;
                  }

                  case Pattern::ProducerConsumer: {
                    const std::uint64_t pos = traces[p].size() % pc_units;
                    if (i < want / 2) {
                        rec.type = AccessType::Write;
                        rec.addr = pc_base + p * pc_units * unit +
                                   pos * unit;
                    } else {
                        rec.type = AccessType::Read;
                        rec.addr = pc_base +
                                   ((p + 1) % nprocs) * pc_units * unit +
                                   pos * unit;
                    }
                    break;
                  }

                  case Pattern::EvictionStorm:
                    // Many tags of one set: block evictions, inclusion
                    // purges, dirty victims, forced WB drains.
                    rec.addr = storm_base +
                               rng.below(storm_strides) * (sets * block) +
                               anchor_set * block +
                               rng.below(subblocks) * unit;
                    rec.type = rng.chance(0.6) ? AccessType::Write
                                               : AccessType::Read;
                    break;

                  case Pattern::HotUnit:
                    rec.addr = hot_unit + rng.below(unit);
                    rec.type = rng.chance(0.4) ? AccessType::Write
                                               : AccessType::Read;
                    break;

                  case Pattern::PrivateStream:
                    rec.addr = priv_base + p * (priv_span + block) +
                               (priv_cursor[p] % priv_span);
                    priv_cursor[p] += unit;
                    rec.type = rng.chance(0.25) ? AccessType::Write
                                                : AccessType::Read;
                    break;
                }
                traces[p].push_back(rec);
            }
        }
    }
    return traces;
}

namespace
{

std::vector<trace::TraceSourcePtr>
sourcesFor(const TraceSet &traces)
{
    std::vector<trace::TraceSourcePtr> sources;
    sources.reserve(traces.size());
    for (const auto &t : traces)
        sources.push_back(std::make_unique<trace::VectorTraceSource>(t));
    return sources;
}

} // namespace

std::string
TraceFuzzer::checkOnce(const sim::SmpConfig &system, const TraceSet &traces,
                       std::uint64_t auditEvery, bool compareGolden,
                       bool checkBatched, CoverageMap *cov)
{
    sim::SmpConfig cfg = system;
    cfg.checkSafety = false;  // the checkers report; the bank must not exit

    // Pass 1: step-driven with every online checker attached.
    sim::SmpSystem checked(cfg);
    CheckerSuite suite(checked, auditEvery);
    checked.attachSources(sourcesFor(traces));
    checked.run();
    suite.audit();
    if (cov)
        cov->merge(suite.coverage());
    if (!suite.log().clean())
        return suite.log().summary();

    if (!compareGolden && !checkBatched)
        return "";

    // Pass 2: the golden model replays the identical streams.
    GoldenSmp golden(cfg);
    golden.attachSources(sourcesFor(traces));
    golden.run();
    const StateSnapshot gsnap = golden.snapshot();

    // The golden machine interleaves the snoop buses with its own
    // restatement of the routing; per-bus transaction counts must agree
    // with what the real interconnect routed, for any bus count.
    const auto compare_buses =
        [&golden](const sim::SmpSystem &sys,
                  const char *which) -> std::string {
        const auto &gbus = golden.busTransactions();
        const auto &rbus = sys.stats().perBus;
        if (gbus.size() != rbus.size()) {
            return std::string("golden-bus-routing: ") + which + " ran " +
                   std::to_string(rbus.size()) + " buses, golden " +
                   std::to_string(gbus.size());
        }
        for (std::size_t b = 0; b < gbus.size(); ++b) {
            if (gbus[b] != rbus[b].transactions) {
                return std::string("golden-bus-routing: ") + which +
                       " bus " + std::to_string(b) + " carried " +
                       std::to_string(rbus[b].transactions) +
                       " transactions, golden " +
                       std::to_string(gbus[b]);
            }
        }
        return "";
    };

    if (compareGolden) {
        const std::string diff = diffSnapshots(gsnap, snapshotOf(checked));
        if (!diff.empty())
            return "golden-equivalence: " + diff;
        const std::string bus_diff = compare_buses(checked, "step path");
        if (!bus_diff.empty())
            return bus_diff;
    }

    // Pass 3: the batched hot path with hooks unset must land on the
    // same final state.
    if (checkBatched) {
        sim::SmpSystem batched(cfg);
        batched.attachSources(sourcesFor(traces));
        batched.run();
        const std::string diff = diffSnapshots(gsnap, snapshotOf(batched));
        if (!diff.empty())
            return "batched-equivalence: " + diff;
        const std::string bus_diff = compare_buses(batched, "batched path");
        if (!bus_diff.empty())
            return bus_diff;
    }
    return "";
}

TraceSet
TraceFuzzer::shrink(const TraceSet &traces, const std::string &invariant,
                    const sim::SmpConfig &system) const
{
    // Flatten to (proc, record) items; rebuilding preserves each
    // processor's record order, which is all the round-robin delivery
    // depends on.
    struct Item
    {
        unsigned proc;
        TraceRecord rec;
    };
    std::vector<Item> items;
    for (unsigned p = 0; p < traces.size(); ++p) {
        for (const auto &rec : traces[p])
            items.push_back({p, rec});
    }

    const unsigned nprocs = cfg_.system.nprocs;
    const auto rebuild = [&](const std::vector<Item> &list) {
        TraceSet out(nprocs);
        for (const auto &it : list)
            out[it.proc].push_back(it.rec);
        return out;
    };

    std::uint64_t runs = 0;
    const auto still_fails = [&](const std::vector<Item> &list) {
        if (runs >= cfg_.maxShrinkRuns)
            return false;
        ++runs;
        const std::string failure =
            checkOnce(system, rebuild(list), cfg_.auditEvery,
                      cfg_.compareGolden, cfg_.checkBatched, nullptr);
        // Only reductions reproducing the *original* invariant count;
        // drifting onto a different violation would leave the repro
        // header documenting a failure the trace does not show.
        return failure.compare(0, invariant.size(), invariant) == 0 &&
               (failure.size() == invariant.size() ||
                failure[invariant.size()] == ':');
    };

    // ddmin (complement-removal form): drop ever-smaller chunks while
    // the failure reproduces.
    std::size_t n = 2;
    while (items.size() >= 2 && runs < cfg_.maxShrinkRuns) {
        const std::size_t chunk = (items.size() + n - 1) / n;
        bool reduced = false;
        for (std::size_t start = 0; start < items.size(); start += chunk) {
            std::vector<Item> candidate;
            candidate.reserve(items.size());
            for (std::size_t i = 0; i < items.size(); ++i) {
                if (i < start || i >= start + chunk)
                    candidate.push_back(items[i]);
            }
            if (candidate.empty())
                continue;
            if (still_fails(candidate)) {
                items = std::move(candidate);
                n = std::max<std::size_t>(2, n - 1);
                reduced = true;
                break;
            }
        }
        if (!reduced) {
            if (n >= items.size())
                break;  // 1-minimal (within the run budget)
            n = std::min(items.size(), n * 2);
        }
    }
    return rebuild(items);
}

FuzzResult
TraceFuzzer::run()
{
    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();

    FuzzResult result;
    result.seed = cfg_.seed;

    // Pattern weights, steered by coverage stall: keep a mix while it
    // uncovers new cells, redraw it once it runs dry.
    std::array<double, kPatternCount> weights;
    weights.fill(1.0);
    Rng meta(cfg_.seed ^ 0xc0ffee);

    for (unsigned round = 0; round < cfg_.rounds; ++round) {
        if (cfg_.timeBudgetSeconds > 0 &&
            std::chrono::duration<double>(Clock::now() - start).count() >=
                cfg_.timeBudgetSeconds) {
            break;
        }

        const std::uint64_t round_seed =
            cfg_.seed + (round + 1) * kSeedMix;
        const TraceSet traces = generate(round_seed, weights);

        // Per-round split-bus draw: cycle the interconnect through one,
        // two and four buses so routing, per-bus replay order and the
        // bus-count differential all get continuous coverage. Derived
        // from the round seed alone, so (seed, round) still pins the
        // exact machine; the failing round's count rides the sidecar.
        sim::SmpConfig round_system = cfg_.system;
        if (cfg_.randomizeBuses)
            round_system.snoopBuses = 1u << (round_seed % 3);

        const std::size_t covered_before = result.coverage.cellsCovered();
        const std::string failure =
            checkOnce(round_system, traces, cfg_.auditEvery,
                      cfg_.compareGolden, cfg_.checkBatched,
                      &result.coverage);
        ++result.roundsRun;
        result.totalRefs += cfg_.refsPerProc * cfg_.system.nprocs;

        if (!failure.empty()) {
            result.failed = true;
            result.failingRound = round;
            result.roundSeed = round_seed;
            result.snoopBuses = round_system.snoopBuses;
            const auto colon = failure.find(':');
            result.invariant = failure.substr(0, colon);
            result.detail = colon == std::string::npos
                                ? ""
                                : trim(failure.substr(colon + 1));
            result.traces = shrink(traces, result.invariant, round_system);
            // Refresh the detail from the shrunk trace (addresses and
            // counts usually change during reduction) so the repro
            // header describes exactly what the shipped trace shows.
            const std::string final_failure =
                checkOnce(round_system, result.traces, cfg_.auditEvery,
                          cfg_.compareGolden, cfg_.checkBatched, nullptr);
            const auto final_colon = final_failure.find(':');
            if (final_colon != std::string::npos &&
                final_failure.substr(0, final_colon) == result.invariant) {
                result.detail = trim(final_failure.substr(final_colon + 1));
            }
            return result;
        }

        if (result.coverage.cellsCovered() == covered_before) {
            // The mix ran dry: explore a fresh one, occasionally spiking
            // a single pattern to dig into its corner cases.
            for (auto &w : weights)
                w = 0.25 + meta.uniform();
            if (meta.chance(0.3))
                weights[meta.below(kPatternCount)] *= 4.0;
        }
    }
    return result;
}

api::ExperimentSpec
specOfFuzz(const FuzzConfig &cfg, unsigned snoopBuses)
{
    api::ExperimentSpec spec;
    sim::SmpConfig system = cfg.system;
    system.snoopBuses = snoopBuses;
    spec.machine = api::MachineSpec::fromSmpConfig(system);
    spec.filters = system.filterSpecs;
    spec.hasFuzz = true;
    spec.fuzz.seed = cfg.seed;
    spec.fuzz.rounds = cfg.rounds;
    spec.fuzz.refsPerProc = cfg.refsPerProc;
    spec.fuzz.auditEvery = cfg.auditEvery;
    spec.fuzz.seconds = cfg.timeBudgetSeconds;
    spec.fuzz.randomizeBuses = cfg.randomizeBuses;
    return spec;
}

void
writeRepro(const std::string &path, const FuzzResult &result,
           const FuzzConfig &cfg)
{
    // The traces themselves, one JTTRACE2 stream section per processor —
    // replayable by anything that reads the trace format.
    trace::TraceFileWriter writer(
        path, static_cast<unsigned>(result.traces.size()));
    for (const auto &t : result.traces) {
        writer.append(t);
        writer.endStream();
    }
    writer.close();

    // The sidecar: a JSON document whose embedded ExperimentSpec pins
    // the exact machine (explicit geometry, the *failing round's* bus
    // count, filters, campaign seed and budgets) — everything a replay
    // needs — plus the failure metadata.
    api::ExperimentSpec spec = specOfFuzz(cfg, result.snoopBuses);
    spec.fuzz.seed = result.seed;
    spec.fuzz.randomizeBuses = false;  // the machine above is pinned

    json::Value root = json::Value::object();
    root.set("jetty_repro", std::int64_t(1));
    root.set("traces", path);
    root.set("replay", "jetty_cli fuzz --repro " + path);
    root.set("seed", result.seed);
    root.set("failing_round", result.failingRound);
    root.set("round_seed", result.roundSeed);
    root.set("invariant", result.invariant);
    root.set("detail", result.detail);
    root.set("records", result.records());
    root.set("spec", spec.toJson());
    json::writeFile(path + ".json", root);
}

TraceSet
readReproTraces(const std::string &path)
{
    const auto info = trace::readTraceFileInfo(path);
    TraceSet traces;
    traces.reserve(info.streams());
    for (std::size_t s = 0; s < info.streams(); ++s) {
        trace::FileStreamSource src(path, s);
        traces.push_back(trace::collect(src));
    }
    return traces;
}

bool
readReproSpec(const std::string &path, json::Value &out)
{
    // All or nothing: a spec without a machine section would replay a
    // hybrid of sidecar and default machine — exactly the false-clean
    // replay a sidecar exists to prevent.
    std::string err;
    const json::Value doc = json::parseFile(path + ".json", &err);
    const json::Value *spec = err.empty() ? doc.find("spec") : nullptr;
    if (!spec || !spec->find("machine"))
        return false;
    out = *spec;
    return true;
}

} // namespace jetty::verify
