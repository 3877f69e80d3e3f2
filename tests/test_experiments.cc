/**
 * @file
 * Tests for the experiment kit: system variants, end-to-end application
 * runs at tiny scale, energy evaluation sanity, and the paper-level
 * qualitative properties the reproduction must exhibit (most snoops
 * miss, hybrids beat their components, parallel-mode savings exceed
 * serial-mode savings).
 */

#include <gtest/gtest.h>

#include "core/filter_spec.hh"
#include "experiments/experiments.hh"

using namespace jetty;
using namespace jetty::experiments;

namespace
{

/** One shared tiny run reused by several tests (runs once). */
const AppRunResult &
luRun()
{
    static const AppRunResult run = [] {
        SystemVariant variant;
        return runApp(trace::appByName("lu"), variant,
                      {"NULL", "EJ-32x4", "IJ-9x4x7",
                       "HJ(IJ-9x4x7,EJ-32x4)"},
                      0.02);
    }();
    return run;
}

} // namespace

TEST(SystemVariant, BaseConfigMatchesPaper)
{
    SystemVariant v;
    const auto cfg = v.smpConfig();
    EXPECT_EQ(cfg.nprocs, 4u);
    EXPECT_EQ(cfg.l1.sizeBytes, 64u * 1024u);
    EXPECT_EQ(cfg.l1.blockBytes, 32u);
    EXPECT_EQ(cfg.l2.sizeBytes, 1024u * 1024u);
    EXPECT_EQ(cfg.l2.blockBytes, 64u);
    EXPECT_EQ(cfg.l2.subblocks, 2u);
    EXPECT_EQ(cfg.l2.unitBytes(), 32u);
}

TEST(SystemVariant, NonSubblockedKeepsUnitSize)
{
    SystemVariant v;
    v.subblocked = false;
    const auto cfg = v.smpConfig();
    EXPECT_EQ(cfg.l2.subblocks, 1u);
    EXPECT_EQ(cfg.l2.unitBytes(), cfg.l1.blockBytes);
}

TEST(SystemVariant, AddressMapDerivation)
{
    SystemVariant v;
    const auto amap = v.smpConfig().addressMap();
    EXPECT_EQ(amap.unitOffsetBits, 5u);
    EXPECT_EQ(amap.blockOffsetBits, 6u);
    EXPECT_EQ(amap.l2CapacityUnits, 32768u);
}

TEST(SystemVariant, EnergyGeometryIsFourWay)
{
    SystemVariant v;
    const auto geom = v.l2EnergyGeometry();
    EXPECT_EQ(geom.assoc, 4u);
    EXPECT_EQ(geom.sizeBytes, 1024u * 1024u);
}

TEST(Experiments, AllPaperSpecsListIsComplete)
{
    const auto specs = allPaperFilterSpecs();
    // 6 EJ + 4 VEJ + 5 IJ + 6 HJ = 21.
    EXPECT_EQ(specs.size(), 21u);
    for (const auto &s : specs)
        EXPECT_TRUE(filter::isValidFilterSpec(s)) << s;
}

TEST(Experiments, RunPopulatesEverything)
{
    const auto &run = luRun();
    EXPECT_EQ(run.abbrev, "lu");
    EXPECT_GT(run.memoryAllocated, 0u);
    EXPECT_EQ(run.filterNames.size(), 4u);
    EXPECT_EQ(run.filterStats.size(), 4u);
    EXPECT_EQ(run.filterCosts.size(), 4u);
    const auto agg = run.stats.aggregate();
    EXPECT_GT(agg.accesses, 0u);
    EXPECT_GT(agg.snoopTagProbes, 0u);
    EXPECT_EQ(run.traffic.snoopTagProbes, agg.snoopTagProbes);
}

TEST(Experiments, MostSnoopsMiss)
{
    // The paper's enabling observation (Table 3).
    const auto agg = luRun().stats.aggregate();
    EXPECT_GT(percent(agg.snoopMisses, agg.snoopTagProbes), 60.0);
}

TEST(Experiments, FiltersAreSafeAndOrdered)
{
    const auto &run = luRun();
    const auto &ej = run.statsFor("EJ-32x4");
    const auto &ij = run.statsFor("IJ-9x4x7");
    const auto &hj = run.statsFor("HJ(IJ-9x4x7,EJ-32x4)");
    EXPECT_EQ(ej.safetyViolations, 0u);
    EXPECT_EQ(ij.safetyViolations, 0u);
    EXPECT_EQ(hj.safetyViolations, 0u);
    // The hybrid covers at least as much as either component.
    EXPECT_GE(hj.coverage() + 1e-12, ij.coverage());
    EXPECT_GE(hj.coverage() + 1e-12, ej.coverage());
    EXPECT_GT(hj.coverage(), 0.0);
}

TEST(Experiments, NullFilterFiltersNothing)
{
    const auto &null_stats = luRun().statsFor("NULL");
    EXPECT_EQ(null_stats.filtered, 0u);
    EXPECT_DOUBLE_EQ(null_stats.coverage(), 0.0);
}

TEST(Experiments, StatsForUnknownFilterFatal)
{
    EXPECT_EXIT(luRun().statsFor("EJ-1x1"), ::testing::ExitedWithCode(1),
                "unknown filter");
}

TEST(Experiments, FatalAfterParallelBatchExitsCleanly)
{
    // A multi-request batch runs on SweepRunner::defaultJobs() threads
    // (2 or more on any multi-core host), joined before runMany()
    // returns. fatal() in the death-test child forked afterwards must
    // still exit 1 with its message.
    std::vector<RunRequest> requests(2);
    requests[0].app = trace::appByName("lu");
    requests[1].app = trace::appByName("fm");
    for (auto &req : requests) {
        req.filterSpecs = {"EJ-32x4"};
        req.accessScale = 0.005;
    }
    const auto results = runMany(requests);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EXIT(results[1].statsFor("EJ-1x1"), ::testing::ExitedWithCode(1),
                "unknown filter");
}

TEST(Experiments, EnergyEvaluationSane)
{
    SystemVariant variant;
    const auto &run = luRun();
    const auto serial = evaluateEnergy(run, variant,
                                       "HJ(IJ-9x4x7,EJ-32x4)",
                                       energy::AccessMode::Serial);
    const auto parallel = evaluateEnergy(run, variant,
                                         "HJ(IJ-9x4x7,EJ-32x4)",
                                         energy::AccessMode::Parallel);
    // Savings exist and parallel-mode savings exceed serial-mode ones
    // (Figure 6(c) vs 6(a)).
    EXPECT_GT(serial.reductionOverSnoopsPct, 0.0);
    EXPECT_GT(parallel.reductionOverSnoopsPct,
              serial.reductionOverSnoopsPct);
    // Reduction over all accesses is smaller than over snoops alone.
    EXPECT_LT(serial.reductionOverAllPct, serial.reductionOverSnoopsPct);
    EXPECT_LE(serial.reductionOverSnoopsPct, 100.0);
}

TEST(Experiments, NullFilterSavesNothing)
{
    SystemVariant variant;
    const auto res = evaluateEnergy(luRun(), variant, "NULL",
                                    energy::AccessMode::Serial);
    EXPECT_DOUBLE_EQ(res.reductionOverSnoopsPct, 0.0);
    EXPECT_DOUBLE_EQ(res.reductionOverAllPct, 0.0);
}

TEST(Experiments, EightWayRunsAndAmplifiesSnoops)
{
    SystemVariant v4, v8;
    v8.nprocs = 8;
    const auto r4 = runApp(trace::appByName("ff"), v4, {"NULL"}, 0.02);
    const auto r8 = runApp(trace::appByName("ff"), v8, {"NULL"}, 0.02);
    const auto a4 = r4.stats.aggregate();
    const auto a8 = r8.stats.aggregate();
    // Snoop share of all L2 accesses grows with the processor count
    // (Section 4.3.4).
    const double share4 =
        ratio(a4.snoopTagProbes, a4.snoopTagProbes + a4.l2LocalAccesses);
    const double share8 =
        ratio(a8.snoopTagProbes, a8.snoopTagProbes + a8.l2LocalAccesses);
    EXPECT_GT(share8, share4);
}

TEST(Experiments, NonSubblockedRunWorks)
{
    SystemVariant v;
    v.subblocked = false;
    const auto run = runApp(trace::appByName("ra"), v, {"EJ-32x4"}, 0.02);
    EXPECT_EQ(run.statsFor("EJ-32x4").safetyViolations, 0u);
    EXPECT_GT(run.stats.aggregate().accesses, 0u);
}

TEST(Experiments, ThroughputServerSnoopsAlwaysMiss)
{
    // Section 2's throughput-engine argument: independent programs mean
    // essentially every snoop misses everywhere.
    SystemVariant variant;
    const auto run = runApp(trace::throughputServer(), variant,
                            {"HJ(IJ-9x4x7,EJ-32x4)"}, 0.05);
    const auto agg = run.stats.aggregate();
    EXPECT_GT(percent(agg.snoopMisses, agg.snoopTagProbes), 99.0);
}

TEST(Experiments, WidelySharedIsTheWorstCase)
{
    // Section 2's caveat: widely shared read-only data defeats filtering.
    SystemVariant variant;
    const auto ws = runApp(trace::widelyShared(), variant,
                           {"HJ(IJ-9x4x7,EJ-32x4)"}, 0.05);
    const auto ts = runApp(trace::throughputServer(), variant,
                           {"HJ(IJ-9x4x7,EJ-32x4)"}, 0.05);
    const auto ws_agg = ws.stats.aggregate();
    const auto ts_agg = ts.stats.aggregate();
    EXPECT_LT(percent(ws_agg.snoopMisses, ws_agg.snoopTagProbes),
              percent(ts_agg.snoopMisses, ts_agg.snoopTagProbes));
}

TEST(Experiments, DeterministicResults)
{
    SystemVariant variant;
    const auto a = runApp(trace::appByName("ch"), variant, {"EJ-16x2"},
                          0.01);
    const auto b = runApp(trace::appByName("ch"), variant, {"EJ-16x2"},
                          0.01);
    EXPECT_EQ(a.stats.aggregate().accesses, b.stats.aggregate().accesses);
    EXPECT_EQ(a.stats.aggregate().snoopMisses,
              b.stats.aggregate().snoopMisses);
    EXPECT_EQ(a.statsFor("EJ-16x2").filtered,
              b.statsFor("EJ-16x2").filtered);
}
