/**
 * @file
 * Tests for the extension features: the coarse RegionFilter and the
 * Section 2.2 latency-impact model.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/filter_spec.hh"
#include "core/region_filter.hh"
#include "sim/latency.hh"

using namespace jetty;
using namespace jetty::filter;

namespace
{

AddressMap
amap()
{
    AddressMap m;
    m.l2CapacityUnits = 32768;
    return m;
}

} // namespace

TEST(RegionFilter, EmptyFiltersEverything)
{
    RegionFilter rf({8, 10}, amap());
    EXPECT_TRUE(rf.probe(0x0));
    EXPECT_TRUE(rf.probe(0x12345660));
}

TEST(RegionFilter, FilledRegionNotFiltered)
{
    RegionFilter rf({8, 10}, amap());
    rf.onFill(0x4000);
    EXPECT_FALSE(rf.probe(0x4000));
    // Any unit in the same 1KB region is covered by the same entry.
    EXPECT_FALSE(rf.probe(0x43e0));
}

TEST(RegionFilter, EvictionRestoresFiltering)
{
    RegionFilter rf({8, 10}, amap());
    rf.onFill(0x4000);
    rf.onFill(0x4020);
    rf.onEvict(0x4000);
    EXPECT_FALSE(rf.probe(0x4000));  // one unit still cached in region
    rf.onEvict(0x4020);
    EXPECT_TRUE(rf.probe(0x4000));
}

TEST(RegionFilter, SupersetProperty)
{
    RegionFilter rf({6, 12}, amap());
    std::vector<Addr> filled;
    for (int i = 0; i < 500; ++i)
        filled.push_back(0x10000000 + static_cast<Addr>(i) * 4096 * 3);
    for (Addr a : filled)
        rf.onFill(a);
    for (Addr a : filled)
        EXPECT_FALSE(rf.probe(a));
}

TEST(RegionFilter, HashSpreadsContiguousRegions)
{
    RegionFilter rf({8, 10}, amap());
    // 64 contiguous regions should not collapse onto few entries.
    std::set<std::uint64_t> indexes;
    for (int r = 0; r < 64; ++r)
        indexes.insert(rf.indexOf(static_cast<Addr>(r) * 1024));
    EXPECT_GT(indexes.size(), 48u);
}

TEST(RegionFilter, StorageAndName)
{
    RegionFilter rf({8, 10}, amap());
    EXPECT_EQ(rf.name(), "RF-8x10");
    EXPECT_EQ(rf.storage().presenceBits, 256u);
    EXPECT_GT(rf.storage().counterBits, 0u);
}

TEST(RegionFilter, EnergyCostsSane)
{
    RegionFilter rf({8, 10}, amap());
    const auto c = rf.energyCosts(energy::Technology::micron180());
    EXPECT_GT(c.probe, 0.0);
    EXPECT_GT(c.fillUpdate, 0.0);
    EXPECT_DOUBLE_EQ(c.snoopAlloc, 0.0);
}

TEST(RegionFilterDeathTest, UnderflowPanics)
{
    RegionFilter rf({8, 10}, amap());
    EXPECT_DEATH(rf.onEvict(0x4000), "underflow");
}

TEST(RegionFilter, SpecParses)
{
    EXPECT_TRUE(isValidFilterSpec("RF-8x10"));
    EXPECT_FALSE(isValidFilterSpec("RF-8"));
    auto f = makeFilter("RF-10x12", amap());
    EXPECT_EQ(f->name(), "RF-10x12");
}

TEST(RegionFilter, ComposesIntoHybrid)
{
    auto f = makeFilter("HJ(RF-8x12,EJ-16x2)", amap());
    EXPECT_EQ(f->name(), "HJ(RF-8x12,EJ-16x2)");
    EXPECT_TRUE(f->probe(0x4000));  // both sides empty -> RF filters
}

// ------------------------------------------------------ Latency model ----

TEST(LatencyModel, NoProbesNoChange)
{
    filter::FilterStats stats;
    const auto impact = sim::evaluateLatency(stats);
    EXPECT_DOUBLE_EQ(impact.meanChangePct(), 0.0);
}

TEST(LatencyModel, ZeroCoverageAddsJettyLatency)
{
    filter::FilterStats stats;
    stats.probes = 100;
    stats.filtered = 0;
    sim::LatencyParams p;
    const auto impact = sim::evaluateLatency(stats, p);
    EXPECT_NEAR(impact.jettyMeanCycles, p.l2TagCycles + p.jettyCycles,
                1e-12);
    EXPECT_GT(impact.meanChangePct(), 0.0);
}

TEST(LatencyModel, HighCoverageReducesMeanLatency)
{
    filter::FilterStats stats;
    stats.probes = 100;
    stats.filtered = 80;
    const auto impact = sim::evaluateLatency(stats);
    // 80% of snoops answer after 0.5 cycles instead of 12: a large win.
    EXPECT_LT(impact.meanChangePct(), 0.0);
    EXPECT_LT(impact.jettyMeanCycles, impact.baselineMeanCycles);
}

TEST(LatencyModel, WorstCaseIsSmallBusFraction)
{
    filter::FilterStats stats;
    stats.probes = 1;
    sim::LatencyParams p;
    const auto impact = sim::evaluateLatency(stats, p);
    // Section 2.2: the added latency is a small fraction of a bus cycle.
    EXPECT_LT(impact.worstCaseBusCycleFraction(p), 0.2);
}

TEST(LatencyModel, BreakEvenCoverage)
{
    // Mean latency is unchanged when filtered fraction equals
    // jetty/(tag) ... solve: f*j + (1-f)(j+t) = t  =>  f = j/t.
    sim::LatencyParams p;
    filter::FilterStats stats;
    stats.probes = 1000;
    stats.filtered = static_cast<std::uint64_t>(
        1000.0 * p.jettyCycles / p.l2TagCycles);
    const auto impact = sim::evaluateLatency(stats, p);
    EXPECT_NEAR(impact.meanChangePct(), 0.0, 0.5);
}

namespace
{

/** A synthetic run: @p refs per processor, @p txns spread evenly over
 *  @p buses. */
sim::SimStats
contentionStats(unsigned nprocs, unsigned buses, std::uint64_t refs,
                std::uint64_t txns)
{
    sim::SimStats stats(nprocs, buses);
    for (auto &proc : stats.procs)
        proc.accesses = refs;
    for (unsigned b = 0; b < buses; ++b)
        stats.perBus[b].transactions = txns / buses;
    stats.snoopTransactions = txns;
    return stats;
}

} // namespace

TEST(LatencyModel, SplittingTheBusDividesContention)
{
    // The same transaction load over one vs four buses: utilization and
    // the M/D/1 wait must fall with the bus count.
    sim::LatencyParams p;
    const auto one =
        sim::evaluateBusContention(contentionStats(4, 1, 600'000,
                                                   60'000), p);
    const auto four =
        sim::evaluateBusContention(contentionStats(4, 4, 600'000,
                                                   60'000), p);
    EXPECT_GT(one.busiestUtilization, 0.0);
    EXPECT_NEAR(four.busiestUtilization, one.busiestUtilization / 4.0,
                1e-9);
    EXPECT_LT(four.busiestWaitBusCycles, one.busiestWaitBusCycles);
    EXPECT_FALSE(one.saturated);
    EXPECT_FALSE(four.saturated);
}

TEST(LatencyModel, ContentionSaturationIsFlaggedAndFinite)
{
    // More bus occupancy than bus cycles: the model must flag
    // saturation and still report finite numbers.
    sim::LatencyParams p;
    const auto sat =
        sim::evaluateBusContention(contentionStats(4, 1, 60'000,
                                                   60'000), p);
    EXPECT_TRUE(sat.saturated);
    EXPECT_GE(sat.busiestUtilization, 1.0);
    EXPECT_TRUE(std::isfinite(sat.busiestWaitBusCycles));

    // Degenerate inputs: no buses recorded, or an empty run.
    EXPECT_EQ(sim::evaluateBusContention(sim::SimStats(0, 1), p)
                  .busiestUtilization,
              0.0);
}
