/**
 * @file
 * Differential verification tests: the golden MOESI model against the
 * real system (scalar and batched), the online invariant checkers, the
 * coverage-guided fuzzer, trace shrinking, and repro round-trips —
 * including a deliberately broken filter family (registered only in this
 * test binary) that the no-false-negative checker must catch.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <memory>
#include <regex>
#include <string>

#include "api/experiment_spec.hh"
#include "core/filter_registry.hh"
#include "sim/smp_system.hh"
#include "trace/trace_source.hh"
#include "util/json.hh"
#include "util/random.hh"
#include "verify/fuzzer.hh"
#include "verify/golden_smp.hh"
#include "verify/invariants.hh"

using namespace jetty;
using namespace jetty::verify;
using coherence::State;

namespace
{

sim::SmpConfig
smallConfig(unsigned nprocs = 4)
{
    sim::SmpConfig cfg = FuzzConfig::defaultSystem();
    cfg.nprocs = nprocs;
    return cfg;
}

/** Drive the real system (via processorAccess) and the golden model in
 *  lockstep with the same pseudo-random reference stream, comparing the
 *  full machine state every @p compareEvery references. */
void
lockstepCompare(const sim::SmpConfig &cfg, std::uint64_t refs,
                std::uint64_t rngSeed, std::uint64_t compareEvery)
{
    sim::SmpSystem sys(cfg);
    GoldenSmp golden(cfg);
    Rng rng(rngSeed);
    for (std::uint64_t i = 0; i < refs; ++i) {
        const ProcId p = static_cast<ProcId>(rng.below(cfg.nprocs));
        const Addr a = 0x40000 + rng.below(1024) * 32;
        const AccessType t =
            rng.chance(0.4) ? AccessType::Write : AccessType::Read;
        sys.processorAccess(p, t, a);
        golden.access(p, t, a);
        if ((i + 1) % compareEvery == 0) {
            ASSERT_EQ(diffSnapshots(golden.snapshot(), snapshotOf(sys)),
                      "")
                << "diverged at reference " << i;
        }
    }
    EXPECT_EQ(diffSnapshots(golden.snapshot(), snapshotOf(sys)), "");

    // The golden machine routes with its own restatement of the split
    // interconnect's interleave: per-bus transaction counts must agree
    // for any bus count (trivially so at one bus).
    const auto &gbus = golden.busTransactions();
    ASSERT_EQ(gbus.size(), sys.stats().perBus.size());
    for (std::size_t b = 0; b < gbus.size(); ++b)
        EXPECT_EQ(gbus[b], sys.stats().perBus[b].transactions) << b;
}

/** run() hands its banks' sealed batches to the replay thread once
 *  SmpSystem::kReplayHandoffEvents are queued: an identity test of a
 *  run() with filters must queue more than that, so it compares the
 *  handed-off replay. Every filter sees every event of its bank. */
void
expectCrossesReplayHandoff(const sim::SmpSystem &sys)
{
    ASSERT_GT(sys.bank(0).size(), 0u);
    const filter::FilterStats f = sys.mergedFilterStats(0);
    EXPECT_GT(f.probes + f.fillUpdates + f.evictUpdates,
              sim::SmpSystem::kReplayHandoffEvents);
}

} // namespace

TEST(GoldenSmp, LockstepAgreesWithRealSystem)
{
    lockstepCompare(smallConfig(), 20000, 11, 1000);
}

TEST(GoldenSmp, LockstepAgreesOnEightWayNonSubblocked)
{
    sim::SmpConfig cfg = smallConfig(8);
    cfg.l2.blockBytes = 32;
    cfg.l2.subblocks = 1;
    cfg.l1.blockBytes = 32;
    lockstepCompare(cfg, 10000, 12, 500);
}

TEST(GoldenSmp, WritebackReclaimAfterRemoteReadStaysCoherent)
{
    // The scenario the differential subsystem originally caught: a dirty
    // victim in the WB is snooped by a remote BusRead (supplying data),
    // then reclaimed by its owner. The reclaim must come back Owned, not
    // Modified, or the owner could later write without invalidating the
    // reader.
    const sim::SmpConfig cfg = smallConfig();
    sim::SmpSystem sys(cfg);
    GoldenSmp golden(cfg);
    const Addr kA = 0x10000;
    const auto both = [&](ProcId p, AccessType t, Addr a) {
        sys.processorAccess(p, t, a);
        golden.access(p, t, a);
    };
    both(0, AccessType::Write, kA);        // p0: M
    both(0, AccessType::Read, kA + 8192);  // evict kA -> p0's WB
    both(1, AccessType::Read, kA);         // WB supplies; p1: S
    both(0, AccessType::Read, kA);         // p0 reclaims
    EXPECT_EQ(sys.l2(0).probe(kA).state, State::Owned);
    both(0, AccessType::Write, kA);        // must invalidate p1
    EXPECT_EQ(sys.l2(0).probe(kA).state, State::Modified);
    EXPECT_FALSE(sys.l2(1).probe(kA).unitValid);
    EXPECT_EQ(diffSnapshots(golden.snapshot(), snapshotOf(sys)), "");
}

TEST(GoldenSmp, SplitBusLockstepAgreesAndRoutesIdentically)
{
    // snoopBuses in {2, 4}: the machine state must stay bit-exact
    // against the golden model (the interleave never changes coherence)
    // and the independently restated per-bus routing must agree.
    for (const unsigned buses : {2u, 4u}) {
        sim::SmpConfig cfg = smallConfig();
        cfg.snoopBuses = buses;
        lockstepCompare(cfg, 20000, 11 + buses, 1000);
    }
}

TEST(Differential, MillionReferenceFuzzedRunMatchesGoldenBitExactly)
{
    // The acceptance anchor: a 1M-reference adversarial 4-processor run
    // with every built-in filter family in the bank, replayed through
    // the batched hot path (hooks unset) and through the golden model;
    // the final cache + filter-visible state must agree bit-exactly.
    FuzzConfig cfg;
    cfg.refsPerProc = 250'000;  // x4 processors = 1M references
    TraceFuzzer fuzzer(cfg);
    std::array<double, kPatternCount> weights;
    weights.fill(1.0);
    const TraceSet traces = fuzzer.generate(cfg.seed, weights);

    std::uint64_t total = 0;
    for (const auto &t : traces)
        total += t.size();
    ASSERT_EQ(total, 1'000'000u);

    const auto sources = [&traces] {
        std::vector<trace::TraceSourcePtr> s;
        for (const auto &t : traces)
            s.push_back(std::make_unique<trace::VectorTraceSource>(t));
        return s;
    };

    sim::SmpSystem batched(cfg.system);
    batched.attachSources(sources());
    batched.run();
    expectCrossesReplayHandoff(batched);

    GoldenSmp golden(cfg.system);
    golden.attachSources(sources());
    golden.run();

    EXPECT_EQ(golden.references(), total);
    EXPECT_EQ(diffSnapshots(golden.snapshot(), snapshotOf(batched)), "");
}

TEST(Differential, MillionReferenceSplitBusRunsStayBitExact)
{
    // The split-bus acceptance anchor: the same 1M-reference adversarial
    // trace set replayed through the batched hot path at 2 and 4 buses
    // must land on exactly the golden machine state (the bus count never
    // changes coherence), route per bus exactly as the golden model's
    // independent interleave says, keep every architectural counter
    // bit-identical to the single-bus run, and filter nothing unsafely
    // under the bus-major deferred replay.
    FuzzConfig cfg;
    cfg.refsPerProc = 250'000;  // x4 processors = 1M references
    TraceFuzzer fuzzer(cfg);
    std::array<double, kPatternCount> weights;
    weights.fill(1.0);
    const TraceSet traces = fuzzer.generate(cfg.seed, weights);

    const auto sources = [&traces] {
        std::vector<trace::TraceSourcePtr> s;
        for (const auto &t : traces)
            s.push_back(std::make_unique<trace::VectorTraceSource>(t));
        return s;
    };

    sim::SmpConfig one_cfg = cfg.system;
    one_cfg.snoopBuses = 1;
    sim::SmpSystem one_bus(one_cfg);
    one_bus.attachSources(sources());
    one_bus.run();
    expectCrossesReplayHandoff(one_bus);
    const auto one_agg = one_bus.stats().aggregate();

    for (const unsigned buses : {2u, 4u}) {
        sim::SmpConfig bus_cfg = cfg.system;
        bus_cfg.snoopBuses = buses;

        sim::SmpSystem batched(bus_cfg);
        batched.attachSources(sources());
        batched.run();
        expectCrossesReplayHandoff(batched);

        GoldenSmp golden(bus_cfg);
        golden.attachSources(sources());
        golden.run();

        EXPECT_EQ(diffSnapshots(golden.snapshot(), snapshotOf(batched)),
                  "")
            << buses << " buses";

        const auto &gbus = golden.busTransactions();
        ASSERT_EQ(gbus.size(), buses);
        std::uint64_t routed = 0;
        for (std::size_t b = 0; b < buses; ++b) {
            EXPECT_EQ(gbus[b], batched.stats().perBus[b].transactions)
                << "bus " << b << " of " << buses;
            routed += batched.stats().perBus[b].transactions;
        }
        EXPECT_EQ(routed, batched.stats().snoopTransactions);

        const auto agg = batched.stats().aggregate();
        EXPECT_EQ(agg.accesses, one_agg.accesses);
        EXPECT_EQ(agg.l1Hits, one_agg.l1Hits);
        EXPECT_EQ(agg.snoopTagProbes, one_agg.snoopTagProbes);
        EXPECT_EQ(agg.snoopMisses, one_agg.snoopMisses);
        EXPECT_EQ(agg.busReads, one_agg.busReads);
        EXPECT_EQ(agg.busUpgrades, one_agg.busUpgrades);
        EXPECT_EQ(agg.wbInsertions, one_agg.wbInsertions);
        EXPECT_EQ(batched.stats().snoopTransactions,
                  one_bus.stats().snoopTransactions);

        // The bus-major deferred replay must stay safe for every family
        // (the per-structure orderings the interleave preserves).
        for (std::size_t f = 0; f < batched.bank(0).size(); ++f) {
            EXPECT_EQ(batched.mergedFilterStats(f).safetyViolations, 0u)
                << batched.bank(0).filterAt(f).name() << " at " << buses
                << " buses";
        }
    }
}

TEST(Differential, AssociativeWalkBitIdenticalAtOneTwoFourBuses)
{
    // The run() walk on associative L1s (2-, 4- and 8-way; the default
    // campaigns cover direct-mapped). At 1, 2 and 4 buses the same
    // adversarial traces must land run(), the sequential step() path,
    // and the golden model on bit-identical machine state, per-bus
    // routing, and filter statistics.
    FuzzConfig fz;
    fz.refsPerProc = 50'000;  // x4 processors = 200k refs per system
    TraceFuzzer fuzzer(fz);
    std::array<double, kPatternCount> weights;
    weights.fill(1.0);
    const TraceSet traces = fuzzer.generate(fz.seed, weights);

    const auto sources = [&traces] {
        std::vector<trace::TraceSourcePtr> s;
        for (const auto &t : traces)
            s.push_back(std::make_unique<trace::VectorTraceSource>(t));
        return s;
    };

    for (const unsigned assoc : {2u, 4u, 8u}) {
        for (const unsigned buses : {1u, 2u, 4u}) {
            SCOPED_TRACE(testing::Message() << assoc << "-way L1");
            sim::SmpConfig cfg = fz.system;
            cfg.l1.sizeBytes = 2048;  // 64 lines: 32, 16 or 8 sets
            cfg.l1.assoc = assoc;
            cfg.snoopBuses = buses;

            sim::SmpSystem batched(cfg);
            batched.attachSources(sources());
            batched.run();
            expectCrossesReplayHandoff(batched);

            sim::SmpSystem seq(cfg);
            seq.attachSources(sources());
            while (seq.step()) {
            }

            GoldenSmp golden(cfg);
            golden.attachSources(sources());
            golden.run();

            EXPECT_EQ(diffSnapshots(golden.snapshot(), snapshotOf(batched)),
                      "")
                << buses << " buses";
            EXPECT_EQ(diffSnapshots(snapshotOf(seq), snapshotOf(batched)),
                      "")
                << buses << " buses";

            const auto ba = batched.stats().aggregate();
            const auto sa = seq.stats().aggregate();
            EXPECT_EQ(ba.accesses, sa.accesses) << buses;
            EXPECT_EQ(ba.l1Hits, sa.l1Hits) << buses;
            EXPECT_EQ(ba.l1Misses, sa.l1Misses) << buses;
            EXPECT_EQ(ba.busReads, sa.busReads) << buses;
            EXPECT_EQ(ba.busReadXs, sa.busReadXs) << buses;
            EXPECT_EQ(ba.busUpgrades, sa.busUpgrades) << buses;
            EXPECT_EQ(ba.wbInsertions, sa.wbInsertions) << buses;
            EXPECT_EQ(ba.snoopTagProbes, sa.snoopTagProbes) << buses;
            for (unsigned b = 0; b < buses; ++b) {
                EXPECT_EQ(batched.stats().perBus[b].transactions,
                          seq.stats().perBus[b].transactions)
                    << "bus " << b << " of " << buses;
            }
            for (std::size_t f = 0; f < batched.bank(0).size(); ++f) {
                const auto bf = batched.mergedFilterStats(f);
                const auto sf = seq.mergedFilterStats(f);
                EXPECT_EQ(bf.probes, sf.probes) << f << " at " << buses;
                EXPECT_EQ(bf.fillUpdates, sf.fillUpdates)
                    << f << " at " << buses;
                EXPECT_EQ(bf.evictUpdates, sf.evictUpdates)
                    << f << " at " << buses;
                EXPECT_EQ(bf.safetyViolations, 0u) << f << " at " << buses;
                // Filter *decisions* are order-sensitive: the deferred
                // replay interleaves whole buses, which is the exact
                // immediate order only on a single bus (run()'s contract) —
                // with more buses the counts may differ while the machine
                // state above stays bit-identical.
                if (buses == 1) {
                    EXPECT_EQ(bf.filtered, sf.filtered) << f;
                    EXPECT_EQ(bf.filteredWouldMiss, sf.filteredWouldMiss)
                        << f;
                }
            }
        }
    }
}

TEST(Differential, AssociativeWalkFuzzCampaignIsClean)
{
    // A full fuzzer campaign (step-checked invariants, golden compare,
    // batched compare, randomized 1/2/4 bus counts) per associative-L1
    // geometry, so the walk gets the same adversarial sweep there that
    // the default campaigns give it on a direct-mapped L1.
    for (const unsigned assoc : {2u, 4u, 8u}) {
        FuzzConfig cfg;
        cfg.rounds = 6;
        cfg.refsPerProc = 8192;
        cfg.system.l1.sizeBytes = 2048;
        cfg.system.l1.assoc = assoc;
        const FuzzResult result = TraceFuzzer(cfg).run();
        EXPECT_FALSE(result.failed) << assoc << "-way: " << result.invariant
                                    << ": " << result.detail;
        EXPECT_EQ(result.roundsRun, 6u) << assoc << "-way";
    }
}

TEST(Differential, MillionReferenceCampaignWithRandomizedBusesIsClean)
{
    // The checklist's fuzzed campaign: >= 1M references across rounds
    // whose bus counts cycle through 1/2/4 (FuzzConfig::randomizeBuses,
    // on by default), each round step-checked with the full invariant
    // suite (including bus routing), golden-compared and
    // batched-compared.
    FuzzConfig cfg;
    cfg.rounds = 13;
    cfg.refsPerProc = 20'000;  // 13 x 20k x 4 procs > 1M references
    const FuzzResult result = TraceFuzzer(cfg).run();
    EXPECT_FALSE(result.failed) << result.invariant << ": "
                                << result.detail;
    EXPECT_EQ(result.roundsRun, 13u);
    EXPECT_GE(result.totalRefs, 1'000'000u);
}

TEST(CheckerSuite, BusRoutingViolationIsCaught)
{
    // White-box: hand the checker a snoop event carrying the wrong bus
    // id; the independently restated interleave must flag it.
    sim::SmpConfig cfg = smallConfig();
    cfg.snoopBuses = 2;
    cfg.checkSafety = false;
    sim::SmpSystem sys(cfg);
    CheckerSuite suite(sys, 0);

    sim::SnoopEvent ev;
    ev.requester = 0;
    ev.target = 1;
    ev.op = coherence::BusOp::BusRead;
    ev.unitAddr = 0x40000;  // block index even => home bus 0
    ev.before = State::Invalid;
    ev.after = State::Invalid;
    ev.busId = 1;  // wrong on purpose
    suite.onSnoop(ev);
    ASSERT_FALSE(suite.log().clean());
    EXPECT_EQ(suite.log().violations().front().invariant, "bus-routing");
}

TEST(Differential, FuzzCampaignIsCleanAndCovers)
{
    FuzzConfig cfg;
    cfg.rounds = 6;
    cfg.refsPerProc = 2048;
    TraceFuzzer fuzzer(cfg);
    const FuzzResult result = fuzzer.run();
    EXPECT_FALSE(result.failed) << result.invariant << ": "
                                << result.detail;
    EXPECT_EQ(result.roundsRun, 6u);
    // The adversarial mixes must exercise a healthy share of the snoop
    // transition and filter outcome space (the unreachable cells are the
    // illegal ones, e.g. filtered-and-cached).
    EXPECT_GE(result.coverage.cellsCovered(),
              result.coverage.cellsTracked() / 2);
    EXPECT_GT(result.coverage.wbHits, 0u);
    EXPECT_GT(result.coverage.supplies, 0u);
    EXPECT_GT(result.coverage.invalidations, 0u);
}

TEST(CheckerSuite, AuditCatchesInjectedSingleWriterViolation)
{
    sim::SmpConfig cfg = smallConfig();
    cfg.checkSafety = false;
    sim::SmpSystem sys(cfg);
    const Addr kA = 0x20000;
    sys.processorAccess(0, AccessType::Read, kA);
    sys.processorAccess(1, AccessType::Read, kA);  // both Shared
    CheckerSuite suite(sys, 0);
    suite.audit();
    EXPECT_TRUE(suite.log().clean());

    // White-box corruption: promote one copy behind the protocol's back.
    mem::L2LookupResult res;
    sys.l2(0).setStateAt(sys.l2(0).probeWay(kA, res), kA, State::Modified);
    suite.audit();
    EXPECT_FALSE(suite.log().clean());
    EXPECT_EQ(suite.log().violations().front().invariant, "single-writer");
}

TEST(CheckerSuite, AuditCatchesInclusionBreak)
{
    sim::SmpConfig cfg = smallConfig();
    cfg.checkSafety = false;
    sim::SmpSystem sys(cfg);
    const Addr kA = 0x20000;
    sys.processorAccess(0, AccessType::Read, kA);
    // A snoop that skips inclusion enforcement: the L1 line is orphaned.
    mem::L2LookupResult res;
    sys.l2(0).snoopAtWay(sys.l2(0).probeWay(kA, res), kA,
                         coherence::BusOp::BusReadX);
    CheckerSuite suite(sys, 0);
    suite.audit();
    ASSERT_FALSE(suite.log().clean());
    EXPECT_EQ(suite.log().violations().front().invariant, "l1-inclusion");
}

// ---- fault injection: a filter family that lies ------------------------

namespace
{

/**
 * A deliberately broken JETTY: behaves like NULL except that every
 * @c period-th probe answers "definitely absent" regardless of ground
 * truth — the exact failure mode the no-false-negative checker exists to
 * catch. Registered only in this test binary.
 */
class FaultyFilter : public filter::SnoopFilter
{
  public:
    explicit FaultyFilter(unsigned period) : period_(period) {}

    bool
    probe(Addr) override
    {
        return ++probes_ % period_ == 0;
    }

    void onSnoopMiss(Addr, bool) override {}
    void onFill(Addr) override {}
    void onEvict(Addr) override {}
    filter::StorageBreakdown storage() const override { return {}; }

    energy::FilterEnergyCosts
    energyCosts(const energy::Technology &) const override
    {
        return {};
    }

    std::string
    name() const override
    {
        return "FAULTY-" + std::to_string(period_);
    }

  private:
    unsigned period_;
    std::uint64_t probes_ = 0;
};

bool
parseFaulty(const std::string &spec, const filter::AddressMap &,
            filter::SnoopFilterPtr *out)
{
    if (spec.rfind("FAULTY-", 0) != 0)
        return false;
    const unsigned period =
        static_cast<unsigned>(std::atoi(spec.substr(7).c_str()));
    if (period == 0)
        return false;
    if (out)
        *out = std::make_unique<FaultyFilter>(period);
    return true;
}

const filter::FamilyRegistrar registerFaulty({
    "FAULTY",
    "FAULTY-<period>",
    "test-only fault injection: lies on every period-th probe",
    "FAULTY-7",
    parseFaulty,
});

} // namespace

TEST(Differential, BrokenFilterIsCaughtAndShrunkToSmallRepro)
{
    FuzzConfig cfg;
    cfg.rounds = 4;
    cfg.refsPerProc = 1024;
    cfg.system.filterSpecs = {"NULL", "FAULTY-7"};
    TraceFuzzer fuzzer(cfg);
    const FuzzResult result = fuzzer.run();

    ASSERT_TRUE(result.failed);
    EXPECT_EQ(result.invariant, "no-false-negative");
    EXPECT_NE(result.detail.find("FAULTY-7"), std::string::npos)
        << result.detail;
    // The acceptance bound: the shrunk repro is tiny.
    EXPECT_LE(result.records(), 200u);
    EXPECT_GT(result.records(), 0u);

    // The shrunk trace still reproduces the violation on a fresh system.
    EXPECT_NE(TraceFuzzer::checkOnce(cfg.system, result.traces,
                                     cfg.auditEvery, false, false,
                                     nullptr),
              "");

    // Round-trip through the repro file format; the reloaded traces must
    // reproduce too, and the sidecar header documents the seed.
    const std::string path = ::testing::TempDir() + "jetty_fuzz_repro.jtt";
    writeRepro(path, result, cfg);
    const TraceSet reloaded = readReproTraces(path);
    ASSERT_EQ(reloaded.size(), result.traces.size());
    EXPECT_NE(TraceFuzzer::checkOnce(cfg.system, reloaded, cfg.auditEvery,
                                     false, false, nullptr),
              "");

    // The sidecar restores the machine the failure was caught on —
    // including the faulty filter bank — so a replay cannot silently run
    // the default configuration and report "clean".
    json::Value sidecar_spec;
    ASSERT_TRUE(readReproSpec(path, sidecar_spec));
    std::string restore_err;
    const sim::SmpConfig restored =
        api::ExperimentSpec::fromJson(sidecar_spec, &restore_err)
            .smpConfig();
    ASSERT_EQ(restore_err, "") << restore_err;
    EXPECT_EQ(restored.filterSpecs, cfg.system.filterSpecs);
    EXPECT_EQ(restored.nprocs, cfg.system.nprocs);
    EXPECT_EQ(restored.l1.sizeBytes, cfg.system.l1.sizeBytes);
    EXPECT_EQ(restored.l2.sizeBytes, cfg.system.l2.sizeBytes);
    EXPECT_EQ(restored.l2.subblocks, cfg.system.l2.subblocks);
    EXPECT_EQ(restored.wbEntries, cfg.system.wbEntries);
    EXPECT_EQ(restored.snoopBuses, result.snoopBuses);
    EXPECT_NE(TraceFuzzer::checkOnce(restored, reloaded, cfg.auditEvery,
                                     false, false, nullptr),
              "");

    // The sidecar is a JSON document whose embedded ExperimentSpec
    // parses back to exactly the restored machine, and whose metadata
    // documents the campaign seed and invariant.
    std::string err;
    const json::Value doc =
        json::parseFile(path + ".json", &err);
    ASSERT_EQ(err, "");
    ASSERT_NE(doc.find("seed"), nullptr);
    EXPECT_EQ(doc.find("seed")->asU64(), kDefaultRngSeed);
    ASSERT_NE(doc.find("invariant"), nullptr);
    EXPECT_EQ(doc.find("invariant")->asString(), "no-false-negative");
    ASSERT_NE(doc.find("spec"), nullptr);
    const api::ExperimentSpec spec =
        api::ExperimentSpec::fromJson(*doc.find("spec"), &err);
    ASSERT_EQ(err, "") << err;
    EXPECT_EQ(spec.smpConfig().l1.sizeBytes, cfg.system.l1.sizeBytes);
    EXPECT_EQ(spec.smpConfig().snoopBuses, result.snoopBuses);
    EXPECT_EQ(spec.filters, cfg.system.filterSpecs);
    EXPECT_EQ(spec.fuzz.seed, result.seed);
    // The sidecar records the *actual* campaign budgets, not defaults.
    EXPECT_EQ(spec.fuzz.rounds, cfg.rounds);
    EXPECT_EQ(spec.fuzz.refsPerProc, cfg.refsPerProc);
    std::remove(path.c_str());
    std::remove((path + ".json").c_str());
}

TEST(Differential, LoneTxtSidecarReadsAsNoConfig)
{
    // Only "<path>.json" sidecars carry a machine. A key=value "<path>.txt"
    // beside the traces is ignored: the repro reads as having no config
    // and the caller replays under its defaults (with a warning).
    const std::string path = ::testing::TempDir() + "jetty_txt_repro";
    std::remove((path + ".json").c_str());
    std::FILE *f = std::fopen((path + ".txt").c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "nprocs=8\nsnoop_buses=2\nl1=2048/1/32\n"
                    "l2=16384/1/64/2\nwb_entries=4\nfilters=NULL;EJ-16x2\n");
    std::fclose(f);

    json::Value restored;
    EXPECT_FALSE(readReproSpec(path, restored));
    EXPECT_TRUE(restored.isNull());
    std::remove((path + ".txt").c_str());
}

TEST(Differential, CorrectFiltersSurviveTheFaultyCampaignConfig)
{
    // Identical campaign but with honest filters: must be clean, which
    // pins the failure above on the fault injection rather than on the
    // campaign shape.
    FuzzConfig cfg;
    cfg.rounds = 4;
    cfg.refsPerProc = 1024;
    cfg.system.filterSpecs = {"NULL", "EJ-16x2"};
    const FuzzResult result = TraceFuzzer(cfg).run();
    EXPECT_FALSE(result.failed) << result.invariant << ": "
                                << result.detail;
}

namespace
{

/** One adversarial trace set of @p refsPerProc references a processor. */
TraceSet
fuzzedTraces(std::uint64_t refsPerProc)
{
    FuzzConfig fz;
    fz.refsPerProc = refsPerProc;
    std::array<double, kPatternCount> weights;
    weights.fill(1.0);
    return TraceFuzzer(fz).generate(fz.seed, weights);
}

/** Run @p traces step-checked on @p cfg (safety panics off, so the
 *  suite reports) and hand the finished system and suite to @p check. */
template <class Check>
void
runChecked(sim::SmpConfig cfg, const TraceSet &traces, Check &&check)
{
    cfg.checkSafety = false;
    sim::SmpSystem sys(cfg);
    CheckerSuite suite(sys, 0);
    std::vector<trace::TraceSourcePtr> sources;
    for (const auto &t : traces)
        sources.push_back(std::make_unique<trace::VectorTraceSource>(t));
    sys.attachSources(std::move(sources));
    sys.run();
    check(sys, suite);
}

} // namespace

TEST(CheckerSuite, FilterCellsPartitionTheMergedFilterStats)
{
    // The suite books each snoop's verdicts from the target bank's
    // FilterStats deltas, so over a whole checked run its per-filter
    // (filtered, cached) cells must be exactly the cells the merged
    // stats imply — every snoop counted once, on every bus count, with
    // a lying filter in the bank so all four cells fill.
    const TraceSet traces = fuzzedTraces(4096);
    sim::SmpConfig cfg = smallConfig();
    cfg.filterSpecs = {"NULL", "EJ-16x2", "IJ-8x4x7", "VEJ-16x4-4",
                       "HJ(IJ-8x4x7,EJ-16x2)", "FAULTY-7"};
    for (const unsigned buses : {1u, 2u, 4u}) {
        cfg.snoopBuses = buses;
        runChecked(cfg, traces, [&](const sim::SmpSystem &sys,
                                    const CheckerSuite &suite) {
            const auto &cells = suite.coverage().filters;
            ASSERT_EQ(cells.size(), cfg.filterSpecs.size());
            for (std::size_t f = 0; f < cells.size(); ++f) {
                SCOPED_TRACE(cfg.filterSpecs[f] + " at " +
                             std::to_string(buses) + " buses");
                const filter::FilterStats m = sys.mergedFilterStats(f);
                const auto &c = cells[f].cells;
                EXPECT_EQ(c[0][0], m.wouldMiss - m.filteredWouldMiss);
                EXPECT_EQ(c[0][1],
                          m.probes - m.wouldMiss - m.safetyViolations);
                EXPECT_EQ(c[1][0], m.filteredWouldMiss);
                EXPECT_EQ(c[1][1], m.safetyViolations);
                EXPECT_GT(m.probes, 0u);
            }
            EXPECT_GT(cells.back().cells[1][1], 0u);
        });
    }
}

TEST(Differential, BrokenFilterIsCaughtAtTwoAndFourBuses)
{
    // The no-false-negative check holds on the split interconnect: each
    // lie of FAULTY-7 is reported once, naming the filter, the snooped
    // processor and the unit, and the first report's processor is one
    // whose bank counted a violation.
    const TraceSet traces = fuzzedTraces(1024);
    const std::regex detail(
        "FAULTY-7 on proc ([0-9]+) filtered a snoop to cached unit "
        "0x[0-9a-f]+");
    sim::SmpConfig cfg = smallConfig();
    cfg.filterSpecs = {"NULL", "FAULTY-7"};
    for (const unsigned buses : {2u, 4u}) {
        SCOPED_TRACE(std::to_string(buses) + " buses");
        cfg.snoopBuses = buses;
        runChecked(cfg, traces, [&](const sim::SmpSystem &sys,
                                    const CheckerSuite &suite) {
            ASSERT_FALSE(suite.log().clean());
            const Violation &first = suite.log().violations().front();
            EXPECT_EQ(first.invariant, "no-false-negative");
            std::smatch m;
            ASSERT_TRUE(std::regex_match(first.detail, m, detail))
                << first.detail;
            const unsigned proc =
                static_cast<unsigned>(std::stoul(m[1].str()));
            ASSERT_LT(proc, cfg.nprocs);
            EXPECT_GT(sys.bank(proc).statsAt(1).safetyViolations, 0u);
            EXPECT_EQ(suite.log().total(),
                      sys.mergedFilterStats(1).safetyViolations);
        });
    }
}

TEST(DifferentialDeathTest, SafetyPanicFiresFromTheReplayThread)
{
    // An unobserved run() replays its banks on a helper thread once a
    // batch crosses kReplayHandoffEvents, and then every later batch
    // too; a checking bank's lie must still end the process with the
    // bank's own panic text. The unchecked run sizes the trace: it
    // queues more than kReplayHandoffEvents and FAULTY-7 lies in it.
    const TraceSet traces = fuzzedTraces(8192);
    const auto run = [&traces](bool checkSafety) {
        sim::SmpConfig cfg = smallConfig();
        cfg.filterSpecs = {"NULL", "FAULTY-7"};
        cfg.checkSafety = checkSafety;
        auto sys = std::make_unique<sim::SmpSystem>(cfg);
        std::vector<trace::TraceSourcePtr> sources;
        for (const auto &t : traces)
            sources.push_back(std::make_unique<trace::VectorTraceSource>(t));
        sys->attachSources(std::move(sources));
        sys->run();
        return sys;
    };
    const auto unchecked = run(false);
    expectCrossesReplayHandoff(*unchecked);
    EXPECT_GT(unchecked->mergedFilterStats(1).safetyViolations, 0u);
    EXPECT_DEATH(run(true), "JETTY safety violation: FAULTY-7 filtered a "
                            "snoop to a cached unit");
}

TEST(Fuzzer, GenerationIsDeterministic)
{
    FuzzConfig cfg;
    cfg.refsPerProc = 512;
    TraceFuzzer fuzzer(cfg);
    std::array<double, kPatternCount> weights;
    weights.fill(1.0);
    const TraceSet a = fuzzer.generate(42, weights);
    const TraceSet b = fuzzer.generate(42, weights);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t p = 0; p < a.size(); ++p) {
        ASSERT_EQ(a[p].size(), b[p].size()) << p;
        for (std::size_t i = 0; i < a[p].size(); ++i) {
            EXPECT_EQ(a[p][i].addr, b[p][i].addr);
            EXPECT_EQ(a[p][i].type, b[p][i].type);
        }
    }
    const TraceSet c = fuzzer.generate(43, weights);
    bool any_diff = false;
    for (std::size_t p = 0; p < a.size() && !any_diff; ++p) {
        for (std::size_t i = 0; i < a[p].size(); ++i) {
            if (a[p][i].addr != c[p][i].addr) {
                any_diff = true;
                break;
            }
        }
    }
    EXPECT_TRUE(any_diff);  // different round seeds, different traces
}

TEST(Fuzzer, EveryPureNamedPatternIsCleanAndGoldenExact)
{
    // One campaign round per pattern in isolation: each sharing shape on
    // its own must hold every invariant and match the golden model.
    for (unsigned i = 0; i < kPatternCount; ++i) {
        FuzzConfig cfg;
        cfg.refsPerProc = 2048;
        TraceFuzzer fuzzer(cfg);
        std::array<double, kPatternCount> weights{};
        weights[i] = 1.0;
        const TraceSet traces = fuzzer.generate(7 + i, weights);
        EXPECT_EQ(TraceFuzzer::checkOnce(cfg.system, traces,
                                         cfg.auditEvery, true, true,
                                         nullptr),
                  "")
            << patternName(static_cast<Pattern>(i));
    }
}
