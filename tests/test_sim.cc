/**
 * @file
 * Integration tests of the SMP system: coherence scenarios driven access
 * by access, inclusion invariants, remote-hit accounting, write-back
 * buffer behaviour, and statistics identities.
 */

#include <gtest/gtest.h>
#include <sched.h>

#include <array>
#include <optional>

#include "core/filter_spec.hh"
#include "sim/observer.hh"
#include "sim/smp_system.hh"
#include "trace/apps.hh"
#include "trace/synthetic.hh"
#include "trace/trace_source.hh"
#include "util/random.hh"

using namespace jetty;
using namespace jetty::sim;
using coherence::State;

namespace
{

SmpConfig
smallConfig(unsigned nprocs = 4)
{
    SmpConfig cfg;
    cfg.nprocs = nprocs;
    cfg.l1.sizeBytes = 1024;
    cfg.l1.blockBytes = 32;
    cfg.l2.sizeBytes = 8192;
    cfg.l2.blockBytes = 64;
    cfg.l2.subblocks = 2;
    cfg.wbEntries = 4;
    cfg.filterSpecs = {"NULL", "HJ(IJ-8x4x7,EJ-16x2)"};
    return cfg;
}

constexpr Addr kA = 0x10000;

/** Whether processor @p p's write-back buffer holds @p unitAddr. */
bool
wbHolds(const SmpSystem &sys, ProcId p, Addr unitAddr)
{
    for (const auto &e : sys.wb(p).entries()) {
        if (e.unitAddr == unitAddr)
            return true;
    }
    return false;
}

} // namespace

TEST(SmpSystem, ColdReadFillsExclusive)
{
    SmpSystem sys(smallConfig());
    sys.processorAccess(0, AccessType::Read, kA);
    EXPECT_EQ(sys.l2(0).probe(kA).state, State::Exclusive);
    EXPECT_TRUE(sys.l1(0).probe(kA).hit);
    EXPECT_TRUE(sys.l1(0).probe(kA).writable);  // E grants write permission
    const auto &p0 = sys.stats().procs[0];
    EXPECT_EQ(p0.busReads, 1u);
    EXPECT_EQ(p0.l1Misses, 1u);
    // All three remote caches were snooped and missed.
    std::uint64_t snoops = 0;
    for (unsigned q = 1; q < 4; ++q)
        snoops += sys.stats().procs[q].snoopTagProbes;
    EXPECT_EQ(snoops, 3u);
    EXPECT_EQ(sys.stats().remoteHits.count(0), 1u);
}

TEST(SmpSystem, ReadSharingDowngradesOwner)
{
    SmpSystem sys(smallConfig());
    sys.processorAccess(0, AccessType::Write, kA);
    EXPECT_EQ(sys.l2(0).probe(kA).state, State::Modified);

    sys.processorAccess(1, AccessType::Read, kA);
    EXPECT_EQ(sys.l2(0).probe(kA).state, State::Owned);
    EXPECT_EQ(sys.l2(1).probe(kA).state, State::Shared);
    EXPECT_EQ(sys.stats().procs[0].snoopSupplies, 1u);
    // The second transaction found one remote copy.
    EXPECT_EQ(sys.stats().remoteHits.count(1), 1u);
}

TEST(SmpSystem, WriteInvalidatesAllSharers)
{
    SmpSystem sys(smallConfig());
    sys.processorAccess(0, AccessType::Read, kA);
    sys.processorAccess(1, AccessType::Read, kA);
    sys.processorAccess(2, AccessType::Read, kA);

    sys.processorAccess(3, AccessType::Write, kA);
    EXPECT_EQ(sys.l2(3).probe(kA).state, State::Modified);
    for (unsigned q = 0; q < 3; ++q) {
        EXPECT_FALSE(sys.l2(q).probe(kA).unitValid) << q;
        EXPECT_FALSE(sys.l1(q).probe(kA).hit) << q;  // inclusion
    }
}

TEST(SmpSystem, UpgradeOnSharedWriteHit)
{
    SmpSystem sys(smallConfig());
    sys.processorAccess(0, AccessType::Read, kA);
    sys.processorAccess(1, AccessType::Read, kA);  // both Shared now
    EXPECT_EQ(sys.l2(0).probe(kA).state, State::Shared);

    sys.processorAccess(0, AccessType::Write, kA);
    EXPECT_EQ(sys.l2(0).probe(kA).state, State::Modified);
    EXPECT_FALSE(sys.l2(1).probe(kA).unitValid);
    EXPECT_EQ(sys.stats().procs[0].busUpgrades, 1u);
}

TEST(SmpSystem, SilentExclusiveToModified)
{
    SmpSystem sys(smallConfig());
    sys.processorAccess(0, AccessType::Read, kA);
    // Displace kA from the 1KB L1 (clean victim) so the write below is
    // an L1 miss that hits the Exclusive unit in the L2.
    sys.processorAccess(0, AccessType::Read, kA + 1024);
    ASSERT_FALSE(sys.l1(0).probe(kA).hit);
    const auto txns_before = sys.stats().snoopTransactions;
    sys.processorAccess(0, AccessType::Write, kA);
    // E->M must not generate bus traffic.
    EXPECT_EQ(sys.stats().snoopTransactions, txns_before);
    EXPECT_EQ(sys.l2(0).probe(kA).state, State::Modified);
    EXPECT_EQ(sys.stats().procs[0].upgradesSilent, 1u);
}

TEST(SmpSystem, SubblocksFetchedIndependently)
{
    SmpSystem sys(smallConfig());
    sys.processorAccess(0, AccessType::Read, kA);
    EXPECT_FALSE(sys.l2(0).probe(kA + 32).unitValid);
    sys.processorAccess(0, AccessType::Read, kA + 32);
    EXPECT_TRUE(sys.l2(0).probe(kA + 32).unitValid);
    EXPECT_EQ(sys.stats().procs[0].busReads, 2u);
}

TEST(SmpSystem, MigratoryReadWriteChain)
{
    SmpSystem sys(smallConfig());
    for (unsigned p = 0; p < 4; ++p) {
        sys.processorAccess(p, AccessType::Read, kA);
        sys.processorAccess(p, AccessType::Write, kA);
    }
    // Final owner holds M; everyone else invalid.
    EXPECT_EQ(sys.l2(3).probe(kA).state, State::Modified);
    for (unsigned q = 0; q < 3; ++q)
        EXPECT_FALSE(sys.l2(q).probe(kA).unitValid);
}

TEST(SmpSystem, DirtyEvictionGoesToWritebackBuffer)
{
    SmpSystem sys(smallConfig());
    sys.processorAccess(0, AccessType::Write, kA);
    // Evict kA's block: the L2 is 8KB direct mapped.
    sys.processorAccess(0, AccessType::Read, kA + 8192);
    EXPECT_FALSE(sys.l2(0).probe(kA).unitValid);
    EXPECT_TRUE(wbHolds(sys, 0, kA));
    EXPECT_EQ(sys.stats().procs[0].wbInsertions, 1u);
}

TEST(SmpSystem, WritebackReclaimAvoidsBus)
{
    SmpSystem sys(smallConfig());
    sys.processorAccess(0, AccessType::Write, kA);
    sys.processorAccess(0, AccessType::Read, kA + 8192);  // kA -> WB
    const auto reads_before = sys.stats().procs[0].busReads;
    sys.processorAccess(0, AccessType::Read, kA);  // reclaim
    EXPECT_EQ(sys.stats().procs[0].busReads, reads_before);
    EXPECT_EQ(sys.stats().procs[0].wbReclaims, 1u);
    EXPECT_FALSE(wbHolds(sys, 0, kA));
    EXPECT_TRUE(sys.l2(0).probe(kA).unitValid);
}

TEST(SmpSystem, RemoteSnoopHitsWritebackBuffer)
{
    SmpSystem sys(smallConfig());
    sys.processorAccess(0, AccessType::Write, kA);
    sys.processorAccess(0, AccessType::Read, kA + 8192);  // kA -> WB of 0
    sys.processorAccess(1, AccessType::Read, kA);
    EXPECT_EQ(sys.stats().procs[0].wbSnoopsHit, 1u);
    // The WB copy counted as a remote hit for the transaction.
    EXPECT_GE(sys.stats().remoteHits.count(1), 1u);
}

TEST(SmpSystem, BusReadXRemovesWbEntry)
{
    SmpSystem sys(smallConfig());
    sys.processorAccess(0, AccessType::Write, kA);
    sys.processorAccess(0, AccessType::Read, kA + 8192);  // kA -> WB of 0
    sys.processorAccess(1, AccessType::Write, kA);        // BusReadX
    EXPECT_FALSE(wbHolds(sys, 0, kA));
    EXPECT_EQ(sys.l2(1).probe(kA).state, State::Modified);
}

TEST(SmpSystem, InclusionHoldsUnderConflicts)
{
    SmpSystem sys(smallConfig());
    // Touch many conflicting lines; every L1 line must be backed by L2.
    for (int i = 0; i < 64; ++i) {
        sys.processorAccess(0, AccessType::Write,
                            kA + static_cast<Addr>(i) * 1024);
    }
    for (int i = 0; i < 64; ++i) {
        const Addr a = kA + static_cast<Addr>(i) * 1024;
        if (sys.l1(0).probe(a).hit) {
            EXPECT_TRUE(sys.l2(0).probe(a).unitValid) << i;
        }
    }
}

TEST(SmpSystem, StatsIdentities)
{
    SmpConfig cfg = smallConfig();
    SmpSystem sys(cfg);
    Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
        const ProcId p = static_cast<ProcId>(rng.below(4));
        const Addr a = rng.below(2048) * 32;
        sys.processorAccess(
            p, rng.chance(0.3) ? AccessType::Write : AccessType::Read, a);
    }
    const auto agg = sys.stats().aggregate();

    // Every access is either an L1 hit or an L1 miss.
    EXPECT_EQ(agg.accesses, agg.l1Hits + agg.l1Misses);
    EXPECT_EQ(agg.accesses, agg.reads + agg.writes);

    // Each snooping transaction probes nprocs-1 remote L2s.
    EXPECT_EQ(agg.snoopTagProbes, 3 * sys.stats().snoopTransactions);
    EXPECT_EQ(agg.snoopTagProbes, agg.snoopHits + agg.snoopMisses);

    // The remote-hit histogram covers every transaction.
    EXPECT_EQ(sys.stats().remoteHits.total(),
              sys.stats().snoopTransactions);

    // Transactions are exactly the reads + readXs + upgrades.
    EXPECT_EQ(sys.stats().snoopTransactions,
              agg.busReads + agg.busReadXs + agg.busUpgrades);

    // Local L2 accesses are L1 misses plus writebacks plus the upgrade
    // probes from L1 write hits on non-writable lines.
    EXPECT_GE(agg.l2LocalAccesses, agg.l1Misses);

    // Energy traffic mirrors the architectural counters.
    EXPECT_EQ(agg.traffic.snoopTagProbes, agg.snoopTagProbes);
}

TEST(SmpSystem, FilterBankObservesEverySnoop)
{
    SmpSystem sys(smallConfig());
    Rng rng(6);
    for (int i = 0; i < 5000; ++i) {
        const ProcId p = static_cast<ProcId>(rng.below(4));
        const Addr a = rng.below(512) * 32;
        sys.processorAccess(
            p, rng.chance(0.3) ? AccessType::Write : AccessType::Read, a);
    }
    const auto agg = sys.stats().aggregate();
    const auto null_stats = sys.mergedFilterStats(0);
    const auto hj_stats = sys.mergedFilterStats(1);
    EXPECT_EQ(null_stats.probes, agg.snoopTagProbes);
    EXPECT_EQ(hj_stats.probes, agg.snoopTagProbes);
    EXPECT_EQ(null_stats.filtered, 0u);
    EXPECT_EQ(hj_stats.safetyViolations, 0u);
    EXPECT_EQ(hj_stats.wouldMiss, agg.snoopMisses);
}

TEST(SmpSystem, RunDrivesAttachedSources)
{
    SmpConfig cfg = smallConfig(2);
    SmpSystem sys(cfg);
    std::vector<trace::TraceSourcePtr> sources;
    std::vector<trace::TraceRecord> recs0{{AccessType::Read, 0x100},
                                          {AccessType::Write, 0x100}};
    std::vector<trace::TraceRecord> recs1{{AccessType::Read, 0x100}};
    sources.push_back(
        std::make_unique<trace::VectorTraceSource>(recs0));
    sources.push_back(
        std::make_unique<trace::VectorTraceSource>(recs1));
    sys.attachSources(std::move(sources));
    sys.run();
    EXPECT_EQ(sys.stats().procs[0].accesses, 2u);
    EXPECT_EQ(sys.stats().procs[1].accesses, 1u);
}

TEST(SmpSystem, EightWayConfig)
{
    SmpConfig cfg = smallConfig(8);
    SmpSystem sys(cfg);
    sys.processorAccess(0, AccessType::Read, kA);
    // Seven remote snoops.
    std::uint64_t snoops = 0;
    for (unsigned q = 1; q < 8; ++q)
        snoops += sys.stats().procs[q].snoopTagProbes;
    EXPECT_EQ(snoops, 7u);
}

namespace
{

/** Every aggregate counter of two runs must agree exactly. */
void
expectIdenticalStats(const SimStats &a, const SimStats &b)
{
    const auto x = a.aggregate();
    const auto y = b.aggregate();
    EXPECT_EQ(x.accesses, y.accesses);
    EXPECT_EQ(x.reads, y.reads);
    EXPECT_EQ(x.writes, y.writes);
    EXPECT_EQ(x.l1Hits, y.l1Hits);
    EXPECT_EQ(x.l1Misses, y.l1Misses);
    EXPECT_EQ(x.l1Writebacks, y.l1Writebacks);
    EXPECT_EQ(x.l2LocalAccesses, y.l2LocalAccesses);
    EXPECT_EQ(x.l2LocalHits, y.l2LocalHits);
    EXPECT_EQ(x.l2Fills, y.l2Fills);
    EXPECT_EQ(x.l2Evictions, y.l2Evictions);
    EXPECT_EQ(x.upgradesSilent, y.upgradesSilent);
    EXPECT_EQ(x.busReads, y.busReads);
    EXPECT_EQ(x.busReadXs, y.busReadXs);
    EXPECT_EQ(x.busUpgrades, y.busUpgrades);
    EXPECT_EQ(x.busWritebacks, y.busWritebacks);
    EXPECT_EQ(x.snoopTagProbes, y.snoopTagProbes);
    EXPECT_EQ(x.snoopHits, y.snoopHits);
    EXPECT_EQ(x.snoopMisses, y.snoopMisses);
    EXPECT_EQ(x.snoopSupplies, y.snoopSupplies);
    EXPECT_EQ(x.wbInsertions, y.wbInsertions);
    EXPECT_EQ(x.wbReclaims, y.wbReclaims);
    EXPECT_EQ(a.snoopTransactions, b.snoopTransactions);
    ASSERT_EQ(a.procs.size(), b.procs.size());
    for (std::size_t p = 0; p < a.procs.size(); ++p) {
        EXPECT_EQ(a.procs[p].accesses, b.procs[p].accesses) << p;
        EXPECT_EQ(a.procs[p].l1Hits, b.procs[p].l1Hits) << p;
        EXPECT_EQ(a.procs[p].snoopTagProbes, b.procs[p].snoopTagProbes)
            << p;
    }
    for (unsigned bucket = 0; bucket < a.remoteHits.buckets(); ++bucket)
        EXPECT_EQ(a.remoteHits.count(bucket), b.remoteHits.count(bucket));
}

/** Counts every observer callback (and checks event sanity). */
struct CountingObserver : public SimObserver
{
    std::uint64_t refs = 0, snoops = 0, txns = 0;

    void onReference(ProcId, AccessType, Addr) override { ++refs; }

    void
    onSnoop(const SnoopEvent &ev) override
    {
        EXPECT_NE(ev.requester, ev.target);
        ++snoops;
    }

    void
    onBusTransaction(ProcId, coherence::BusOp, Addr, unsigned,
                     unsigned) override
    {
        ++txns;
    }
};

/** Everything a delivery-equivalence test compares. */
struct RunOutcome
{
    SimStats stats{0};
    std::vector<filter::FilterStats> filters;  //!< merged, bank order
};

/** The filter bank of runOutcomeWithBatch unless a test picks another. */
const std::vector<std::string> kBatchFilters = {"NULL", "EJ-16x2",
                                                "HJ(IJ-8x4x7,EJ-16x2)"};

/** Run an lu-derived workload under the given delivery batch size. */
RunOutcome
runOutcomeWithBatch(unsigned batchRefs, bool stepDriven = false,
                    SimObserver *observer = nullptr,
                    unsigned snoopBuses = 1,
                    const std::vector<std::string> &filters = kBatchFilters)
{
    SmpConfig cfg;
    cfg.nprocs = 4;
    cfg.l1.sizeBytes = 8 * 1024;
    cfg.l1.blockBytes = 32;
    cfg.l2.sizeBytes = 64 * 1024;
    cfg.l2.blockBytes = 64;
    cfg.l2.subblocks = 2;
    cfg.filterSpecs = filters;
    cfg.batchRefs = batchRefs;
    cfg.snoopBuses = snoopBuses;

    const trace::Workload workload(trace::appByName("lu"), cfg.nprocs,
                                   0.02);
    SmpSystem sys(cfg);
    sys.setObserver(observer);
    std::vector<trace::TraceSourcePtr> sources;
    for (unsigned p = 0; p < cfg.nprocs; ++p)
        sources.push_back(workload.makeSource(p));
    sys.attachSources(std::move(sources));
    if (stepDriven) {
        while (sys.step()) {
        }
    } else {
        sys.run();
    }
    RunOutcome out;
    out.stats = sys.stats();
    for (std::size_t f = 0; f < sys.bank(0).size(); ++f)
        out.filters.push_back(sys.mergedFilterStats(f));
    return out;
}

SimStats
runWithBatch(unsigned batchRefs, bool stepDriven = false,
             SimObserver *observer = nullptr)
{
    return runOutcomeWithBatch(batchRefs, stepDriven, observer).stats;
}

/** Per-filter coverage stats of two runs must agree exactly. */
void
expectIdenticalFilterStats(const std::vector<filter::FilterStats> &a,
                           const std::vector<filter::FilterStats> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t f = 0; f < a.size(); ++f) {
        EXPECT_EQ(a[f].probes, b[f].probes) << f;
        EXPECT_EQ(a[f].filtered, b[f].filtered) << f;
        EXPECT_EQ(a[f].wouldMiss, b[f].wouldMiss) << f;
        EXPECT_EQ(a[f].filteredWouldMiss, b[f].filteredWouldMiss) << f;
        EXPECT_EQ(a[f].snoopAllocs, b[f].snoopAllocs) << f;
        EXPECT_EQ(a[f].fillUpdates, b[f].fillUpdates) << f;
        EXPECT_EQ(a[f].evictUpdates, b[f].evictUpdates) << f;
        EXPECT_EQ(a[f].safetyViolations, 0u) << f;
        EXPECT_EQ(b[f].safetyViolations, 0u) << f;
    }
}

/**
 * run() hands its banks' sealed batches to the replay thread once
 * SmpSystem::kReplayHandoffEvents are queued. An identity test of a
 * run() with filters must queue more than that over the whole run, so
 * the handed-off replay is what it compares. Every filter of a bank
 * sees every event, so the first filter's merged counts total them.
 */
void
expectCrossesReplayHandoff(const RunOutcome &run)
{
    ASSERT_FALSE(run.filters.empty());
    const filter::FilterStats &f = run.filters.front();
    EXPECT_GT(f.probes + f.fillUpdates + f.evictUpdates,
              SmpSystem::kReplayHandoffEvents);
}

/** Confines the calling thread to the CPU it is on while in scope:
 *  run() then replays inline, as under `taskset -c 0`. */
class OnOneCpu
{
  public:
    OnOneCpu()
    {
        CPU_ZERO(&saved_);
        EXPECT_EQ(sched_getaffinity(0, sizeof saved_, &saved_), 0);
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(sched_getcpu(), &one);
        EXPECT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
    }
    ~OnOneCpu() { sched_setaffinity(0, sizeof saved_, &saved_); }

    OnOneCpu(const OnOneCpu &) = delete;
    OnOneCpu &operator=(const OnOneCpu &) = delete;

  private:
    cpu_set_t saved_;
};

} // namespace

TEST(SmpSystem, BatchedAndScalarDeliveryAreBitIdentical)
{
    // The determinism anchor of the streaming refactor: the delivery
    // batch size is a transport knob, never a semantic one.
    const RunOutcome scalar = runOutcomeWithBatch(1);
    expectCrossesReplayHandoff(scalar);
    expectIdenticalStats(scalar.stats, runWithBatch(256));
    expectIdenticalStats(scalar.stats, runWithBatch(5));  // odd size:
                                                          // refills land
                                                          // mid-sweep
}

TEST(SmpSystem, StepDrivenAndRunAreBitIdentical)
{
    // step() (the instrumentable path) and run() (the batched hot path
    // with the inlined L1 fast path) must simulate identically.
    const RunOutcome run = runOutcomeWithBatch(64, /*stepDriven=*/false);
    expectCrossesReplayHandoff(run);
    expectIdenticalStats(runWithBatch(64, /*stepDriven=*/true), run.stats);
}

TEST(SmpSystem, SingleBusDeferredFilterReplayIsBitIdentical)
{
    // The pre-interconnect bit-identity anchor: at snoopBuses == 1 the
    // batched run's deferred, family-grouped bank replay must give
    // exactly the filter numbers of the immediate per-snoop observation
    // (the step-driven path), on top of identical architectural stats.
    // The second bank covers every family the first leaves out, and a
    // hybrid with a vector-exclude side, so every replay path is pinned;
    // the third is Figure 4's, six EJs and four VEJs replayed as one
    // group, so a group of many filters is compared with immediate
    // observation too.
    const std::vector<std::string> rest = {
        "IJ-8x4x7", "IJ-8x4x7u", "VEJ-16x4-4", "RF-10x12",
        "HJ(IJ-8x4x7,VEJ-16x4-4)"};
    std::vector<std::string> figure4 = filter::paperExcludeSpecs();
    for (const auto &spec : filter::paperVectorExcludeSpecs())
        figure4.push_back(spec);
    for (const auto &filters : {kBatchFilters, rest, figure4}) {
        SCOPED_TRACE(filters.front());
        const RunOutcome immediate = runOutcomeWithBatch(
            64, /*stepDriven=*/true, nullptr, 1, filters);
        const RunOutcome deferred = runOutcomeWithBatch(
            64, /*stepDriven=*/false, nullptr, 1, filters);
        expectCrossesReplayHandoff(deferred);
        expectIdenticalStats(immediate.stats, deferred.stats);
        expectIdenticalFilterStats(immediate.filters, deferred.filters);
    }
}

TEST(SmpSystem, FilterStatsDoNotDependOnBankMates)
{
    // The deferred replay groups a bank's filters by family and walks
    // each group event-major. Grouping must neither map a filter's
    // counts to another slot nor change the order in which it sees the
    // events: at every bus count, each filter of an interleaved bank
    // scores exactly what it scores alone in its bank.
    const std::vector<std::string> bank = {
        "EJ-16x2", "VEJ-16x4-4", "IJ-8x4x7", "EJ-8x4",
        "NULL",    "VEJ-32x4-8", "HJ(IJ-8x4x7,EJ-16x2)"};
    for (const unsigned buses : {1u, 2u, 4u}) {
        const RunOutcome mixed =
            runOutcomeWithBatch(64, false, nullptr, buses, bank);
        expectCrossesReplayHandoff(mixed);
        ASSERT_EQ(mixed.filters.size(), bank.size());
        for (std::size_t f = 0; f < bank.size(); ++f) {
            SCOPED_TRACE(bank[f] + " at " + std::to_string(buses) +
                         " bus(es)");
            const RunOutcome alone =
                runOutcomeWithBatch(64, false, nullptr, buses, {bank[f]});
            expectIdenticalFilterStats(alone.filters, {mixed.filters[f]});
        }
    }
}

TEST(SmpSystem, MultiBusStepRouteFilterStatsArePinned)
{
    // The step route replays each bank event as it is queued, so every
    // filter learns in capture order at any bus count. These counts
    // were recorded from the per-filter immediate walk the step route
    // used before the bank became queue-only; they are the same at 2
    // and 4 buses, and at 1 bus, where run() matches them too.
    // Columns: probes, filtered, wouldMiss, filteredWouldMiss,
    // snoopAllocs, fillUpdates, evictUpdates.
    using Row = std::array<std::uint64_t, 7>;
    const std::vector<Row> batch = {
        {42693, 0, 41334, 0, 41334, 14705, 9188},          // NULL
        {42693, 14405, 41334, 14405, 26929, 14705, 9188},  // EJ-16x2
        {42693, 34324, 41334, 34324, 7010, 14705, 9188},   // HJ(IJ,EJ)
    };
    const std::vector<Row> figure4 = {
        {42693, 15266, 41334, 15266, 26068, 14705, 9188},  // EJ-32x4
        {42693, 14883, 41334, 14883, 26451, 14705, 9188},  // EJ-32x2
        {42693, 15171, 41334, 15171, 26163, 14705, 9188},  // EJ-16x4
        {42693, 14405, 41334, 14405, 26929, 14705, 9188},  // EJ-16x2
        {42693, 15027, 41334, 15027, 26307, 14705, 9188},  // EJ-8x4
        {42693, 13174, 41334, 13174, 28160, 14705, 9188},  // EJ-8x2
        {42693, 15777, 41334, 15777, 25557, 14705, 9188},  // VEJ-32x4-8
        {42693, 15508, 41334, 15508, 25826, 14705, 9188},  // VEJ-32x4-4
        {42693, 15236, 41334, 15236, 26098, 14705, 9188},  // VEJ-16x4-8
        {42693, 15181, 41334, 15181, 26153, 14705, 9188},  // VEJ-16x4-4
    };
    std::vector<std::string> figure4Bank = filter::paperExcludeSpecs();
    for (const auto &spec : filter::paperVectorExcludeSpecs())
        figure4Bank.push_back(spec);

    for (const unsigned buses : {2u, 4u}) {
        for (const auto &[filters, pinned] :
             {std::pair{kBatchFilters, batch},
              std::pair{figure4Bank, figure4}}) {
            const RunOutcome step = runOutcomeWithBatch(
                64, /*stepDriven=*/true, nullptr, buses, filters);
            ASSERT_EQ(step.filters.size(), pinned.size());
            for (std::size_t f = 0; f < pinned.size(); ++f) {
                SCOPED_TRACE(filters[f] + " at " + std::to_string(buses) +
                             " buses");
                const filter::FilterStats &st = step.filters[f];
                const Row got = {st.probes,      st.filtered,
                                 st.wouldMiss,   st.filteredWouldMiss,
                                 st.snoopAllocs, st.fillUpdates,
                                 st.evictUpdates};
                EXPECT_EQ(got, pinned[f]);
                EXPECT_EQ(st.safetyViolations, 0u);
            }
        }
    }
}

TEST(SmpSystem, MultiBusRunFilterStatsArePinned)
{
    // run() replays each chunk bus-major, on the replay thread once a
    // batch is big enough, so above one bus its filter counts depend on
    // the chunk marks and on nothing else: not on which thread replays,
    // nor on how the two are scheduled. These counts were recorded from
    // the inline per-chunk flush that run() used before the hand-off;
    // some HJ and VEJ rows differ from the step route's and between 2
    // and 4 buses, so a replay that loses the marks or reorders chunks
    // shows here. Columns as in MultiBusStepRouteFilterStatsArePinned.
    using Row = std::array<std::uint64_t, 7>;
    const std::vector<Row> batch2 = {
        {42693, 0, 41334, 0, 41334, 14705, 9188},          // NULL
        {42693, 14405, 41334, 14405, 26929, 14705, 9188},  // EJ-16x2
        {42693, 34322, 41334, 34322, 7012, 14705, 9188},   // HJ(IJ,EJ)
    };
    const std::vector<Row> batch4 = {
        {42693, 0, 41334, 0, 41334, 14705, 9188},          // NULL
        {42693, 14405, 41334, 14405, 26929, 14705, 9188},  // EJ-16x2
        {42693, 34324, 41334, 34324, 7010, 14705, 9188},   // HJ(IJ,EJ)
    };
    const std::vector<Row> figure4At2 = {
        {42693, 15266, 41334, 15266, 26068, 14705, 9188},  // EJ-32x4
        {42693, 14883, 41334, 14883, 26451, 14705, 9188},  // EJ-32x2
        {42693, 15171, 41334, 15171, 26163, 14705, 9188},  // EJ-16x4
        {42693, 14405, 41334, 14405, 26929, 14705, 9188},  // EJ-16x2
        {42693, 15027, 41334, 15027, 26307, 14705, 9188},  // EJ-8x4
        {42693, 13174, 41334, 13174, 28160, 14705, 9188},  // EJ-8x2
        {42693, 15777, 41334, 15777, 25557, 14705, 9188},  // VEJ-32x4-8
        {42693, 15505, 41334, 15505, 25829, 14705, 9188},  // VEJ-32x4-4
        {42693, 15242, 41334, 15242, 26092, 14705, 9188},  // VEJ-16x4-8
        {42693, 15170, 41334, 15170, 26164, 14705, 9188},  // VEJ-16x4-4
    };
    const std::vector<Row> figure4At4 = {
        {42693, 15266, 41334, 15266, 26068, 14705, 9188},  // EJ-32x4
        {42693, 14883, 41334, 14883, 26451, 14705, 9188},  // EJ-32x2
        {42693, 15171, 41334, 15171, 26163, 14705, 9188},  // EJ-16x4
        {42693, 14405, 41334, 14405, 26929, 14705, 9188},  // EJ-16x2
        {42693, 15027, 41334, 15027, 26307, 14705, 9188},  // EJ-8x4
        {42693, 13174, 41334, 13174, 28160, 14705, 9188},  // EJ-8x2
        {42693, 15782, 41334, 15782, 25552, 14705, 9188},  // VEJ-32x4-8
        {42693, 15504, 41334, 15504, 25830, 14705, 9188},  // VEJ-32x4-4
        {42693, 15234, 41334, 15234, 26100, 14705, 9188},  // VEJ-16x4-8
        {42693, 15168, 41334, 15168, 26166, 14705, 9188},  // VEJ-16x4-4
    };
    std::vector<std::string> figure4Bank = filter::paperExcludeSpecs();
    for (const auto &spec : filter::paperVectorExcludeSpecs())
        figure4Bank.push_back(spec);

    // On one CPU run() replays each chunk inline instead of handing it
    // off: the same order, so the same counts.
    for (const bool oneCpu : {false, true}) {
        for (const unsigned buses : {2u, 4u}) {
            for (const auto &[filters, pinned] :
                 {std::pair{kBatchFilters, buses == 2 ? batch2 : batch4},
                  std::pair{figure4Bank,
                            buses == 2 ? figure4At2 : figure4At4}}) {
                std::optional<OnOneCpu> confined;
                if (oneCpu)
                    confined.emplace();
                const RunOutcome run = runOutcomeWithBatch(
                    64, /*stepDriven=*/false, nullptr, buses, filters);
                confined.reset();
                expectCrossesReplayHandoff(run);
                ASSERT_EQ(run.filters.size(), pinned.size());
                for (std::size_t f = 0; f < pinned.size(); ++f) {
                    SCOPED_TRACE(filters[f] + " at " + std::to_string(buses) +
                                 " buses" + (oneCpu ? " on one CPU" : ""));
                    const filter::FilterStats &st = run.filters[f];
                    const Row got = {st.probes,      st.filtered,
                                     st.wouldMiss,   st.filteredWouldMiss,
                                     st.snoopAllocs, st.fillUpdates,
                                     st.evictUpdates};
                    EXPECT_EQ(got, pinned[f]);
                    EXPECT_EQ(st.safetyViolations, 0u);
                }
            }
        }
    }
}

TEST(SmpSystem, SnoopBusCountNeverChangesArchitecturalNumbers)
{
    // snoopBuses is a routing/reporting axis: every architectural
    // counter (and the remote-hit histogram) is bit-identical for 1, 2
    // and 4 buses; the per-bus occupancy vectors partition the single
    // total; and the bus-major filter replay stays safe at every count.
    const RunOutcome one = runOutcomeWithBatch(64, false, nullptr, 1);
    expectCrossesReplayHandoff(one);
    for (const unsigned buses : {2u, 4u}) {
        const RunOutcome split =
            runOutcomeWithBatch(64, false, nullptr, buses);
        expectCrossesReplayHandoff(split);
        expectIdenticalStats(one.stats, split.stats);

        ASSERT_EQ(split.stats.perBus.size(), buses);
        std::uint64_t txns = 0, reads = 0, readxs = 0, upgrades = 0;
        for (const auto &bus : split.stats.perBus) {
            txns += bus.transactions;
            reads += bus.reads;
            readxs += bus.readXs;
            upgrades += bus.upgrades;
        }
        EXPECT_EQ(txns, split.stats.snoopTransactions);
        const auto agg = split.stats.aggregate();
        EXPECT_EQ(reads, agg.busReads);
        EXPECT_EQ(readxs, agg.busReadXs);
        EXPECT_EQ(upgrades, agg.busUpgrades);

        std::uint64_t probes = 0;
        ASSERT_EQ(split.stats.busSnoopTagProbes.size(), buses);
        for (const auto p : split.stats.busSnoopTagProbes)
            probes += p;
        EXPECT_EQ(probes, agg.snoopTagProbes);

        // Filter coverage may legitimately shift with the bus-major
        // replay order, but the event totals and safety cannot.
        ASSERT_EQ(split.filters.size(), one.filters.size());
        for (std::size_t f = 0; f < split.filters.size(); ++f) {
            EXPECT_EQ(split.filters[f].probes, one.filters[f].probes);
            EXPECT_EQ(split.filters[f].wouldMiss,
                      one.filters[f].wouldMiss);
            EXPECT_EQ(split.filters[f].fillUpdates,
                      one.filters[f].fillUpdates);
            EXPECT_EQ(split.filters[f].evictUpdates,
                      one.filters[f].evictUpdates);
            EXPECT_EQ(split.filters[f].safetyViolations, 0u);
        }
    }
}

TEST(SmpSystem, EveryBusTransactionRidesItsHomeBus)
{
    // Drive a 2-bus system through the observer route and check the
    // emitted routing against the config (the CheckerSuite re-checks
    // the same invariant with its own restatement in verify/).
    struct RoutingObserver : public SimObserver
    {
        unsigned blockBytes = 64;
        unsigned buses = 2;
        std::uint64_t txns = 0;

        void
        onBusTransaction(ProcId, coherence::BusOp, Addr unitAddr,
                         unsigned, unsigned busId) override
        {
            ++txns;
            EXPECT_EQ(busId, (unitAddr / blockBytes) % buses);
        }
    };
    RoutingObserver obs;
    const RunOutcome split = runOutcomeWithBatch(64, false, &obs, 2);
    EXPECT_EQ(obs.txns, split.stats.snoopTransactions);
    EXPECT_GT(obs.txns, 0u);
}

TEST(SmpSystem, ObserverIsBehaviourNeutralAndComplete)
{
    // Attaching an observer reroutes run() through the instrumented
    // per-reference path; the simulated numbers must not move by a bit,
    // and the observer must see every reference, every per-target snoop
    // and every transaction.
    const RunOutcome plain = runOutcomeWithBatch(64);
    expectCrossesReplayHandoff(plain);
    CountingObserver counting;
    const SimStats observed = runWithBatch(64, /*stepDriven=*/false,
                                           &counting);
    expectIdenticalStats(plain.stats, observed);

    const auto agg = observed.aggregate();
    EXPECT_EQ(counting.refs, agg.accesses);
    EXPECT_EQ(counting.snoops, agg.snoopTagProbes);
    EXPECT_EQ(counting.txns, observed.snoopTransactions);
}

TEST(SmpSystem, WritebackEntrySnoopedByReadIsDemotedToOwned)
{
    // Regression for the reclaim-after-remote-read coherence bug: the
    // WB's Modified victim supplies a remote BusRead, so the owner's
    // later reclaim must come back Owned and the subsequent write must
    // go through an invalidating upgrade.
    SmpSystem sys(smallConfig());
    sys.processorAccess(0, AccessType::Write, kA);        // p0: M
    sys.processorAccess(0, AccessType::Read, kA + 8192);  // kA -> WB of 0
    ASSERT_TRUE(wbHolds(sys, 0, kA));

    sys.processorAccess(1, AccessType::Read, kA);  // WB supplies
    ASSERT_EQ(sys.wb(0).entries().front().unitAddr, kA);
    EXPECT_EQ(sys.wb(0).entries().front().state, State::Owned);
    EXPECT_EQ(sys.l2(1).probe(kA).state, State::Shared);

    sys.processorAccess(0, AccessType::Read, kA);  // reclaim
    EXPECT_EQ(sys.stats().procs[0].wbReclaims, 1u);
    EXPECT_EQ(sys.l2(0).probe(kA).state, State::Owned);

    const auto upgrades_before = sys.stats().procs[0].busUpgrades;
    sys.processorAccess(0, AccessType::Write, kA);
    EXPECT_EQ(sys.stats().procs[0].busUpgrades, upgrades_before + 1);
    EXPECT_EQ(sys.l2(0).probe(kA).state, State::Modified);
    EXPECT_FALSE(sys.l2(1).probe(kA).unitValid);  // reader invalidated
}

TEST(SmpSystemDeathTest, RejectsBadConfigs)
{
    SmpConfig cfg = smallConfig();
    cfg.nprocs = 1;
    EXPECT_EXIT(SmpSystem{cfg}, ::testing::ExitedWithCode(1),
                "at least two");

    SmpConfig cfg2 = smallConfig();
    cfg2.l1.blockBytes = 64;  // mismatch with L2 coherence unit
    EXPECT_EXIT(SmpSystem{cfg2}, ::testing::ExitedWithCode(1),
                "coherence unit");

    SmpConfig cfg3 = smallConfig();
    cfg3.snoopBuses = 0;
    EXPECT_EXIT(SmpSystem{cfg3}, ::testing::ExitedWithCode(1),
                "at least one snoop bus");
}
