/**
 * @file
 * Unit tests for the FilterBank: parallel passive evaluation, statistics
 * bookkeeping, event fan-out, and safety enforcement.
 */

#include <gtest/gtest.h>

#include "core/filter_bank.hh"
#include "core/filter_spec.hh"
#include "util/random.hh"

using namespace jetty;
using namespace jetty::filter;

namespace
{

AddressMap
amap()
{
    AddressMap m;
    m.l2CapacityUnits = 1024;
    return m;
}

} // namespace

TEST(FilterBank, BuildsAllSpecs)
{
    FilterBank bank({"NULL", "EJ-8x2", "IJ-6x5x6"}, amap());
    EXPECT_EQ(bank.size(), 3u);
    EXPECT_EQ(bank.indexOf("EJ-8x2"), 1);
    EXPECT_EQ(bank.indexOf("missing"), -1);
}

TEST(FilterBank, CountsProbesAndMisses)
{
    FilterBank bank({"NULL"}, amap());
    bank.observeSnoop(0x100, /*unitInL2=*/false, /*blockInL2=*/false);
    bank.observeSnoop(0x200, true, true);
    const auto &st = bank.statsAt(0);
    EXPECT_EQ(st.probes, 2u);
    EXPECT_EQ(st.wouldMiss, 1u);
    EXPECT_EQ(st.filtered, 0u);
    EXPECT_EQ(st.snoopAllocs, 1u);  // the miss was delivered
}

TEST(FilterBank, EjLearnsThroughBank)
{
    FilterBank bank({"EJ-8x2"}, amap());
    bank.observeSnoop(0x100, false, false);  // miss -> allocate
    bank.observeSnoop(0x100, false, false);  // now filtered
    const auto &st = bank.statsAt(0);
    EXPECT_EQ(st.filtered, 1u);
    EXPECT_EQ(st.filteredWouldMiss, 1u);
    EXPECT_DOUBLE_EQ(st.coverage(), 0.5);
}

TEST(FilterBank, FillEventsFanOut)
{
    FilterBank bank({"EJ-8x2", "IJ-6x5x6"}, amap());
    bank.unitFilled(0x300);
    bank.unitEvicted(0x300);
    for (std::size_t i = 0; i < bank.size(); ++i) {
        EXPECT_EQ(bank.statsAt(i).fillUpdates, 1u);
        EXPECT_EQ(bank.statsAt(i).evictUpdates, 1u);
    }
}

TEST(FilterBank, DeferredBatchReplaysAtFlush)
{
    // Inside a deferred batch events wait in their bus queues until a
    // flush; outside one each event is replayed as soon as it is queued.
    FilterBank bank({"EJ-8x2"}, amap(), /*checkSafety=*/true,
                    /*snoopBuses=*/2);
    bank.beginDeferred();
    bank.observeSnoop(0x100, false, false);  // block 4: bus 0
    bank.unitFilled(0x140);                  // block 5: bus 1
    EXPECT_EQ(bank.statsAt(0).probes, 0u);
    EXPECT_EQ(bank.statsAt(0).fillUpdates, 0u);
    bank.flushDeferred();
    EXPECT_EQ(bank.statsAt(0).probes, 1u);
    EXPECT_EQ(bank.statsAt(0).snoopAllocs, 1u);
    EXPECT_EQ(bank.statsAt(0).fillUpdates, 1u);

    bank.endDeferred();
    bank.observeSnoop(0x100, false, false);  // the allocation filters it
    EXPECT_EQ(bank.statsAt(0).probes, 2u);
    EXPECT_EQ(bank.statsAt(0).filtered, 1u);
}

TEST(FilterBank, TakenBatchReplaysLikePerChunkFlushes)
{
    // run() seals each chunk, takes the batch and replays it elsewhere.
    // The chunk marks must reproduce exactly the per-chunk flushes the
    // batch stands for (each chunk bus-major, chunks in order), at every
    // bus count, however many chunks a batch holds.
    const std::vector<std::string> specs = {
        "EJ-8x2", "IJ-6x5x6", "VEJ-8x4-4", "HJ(IJ-6x5x6,EJ-8x2)"};
    for (const unsigned buses : {1u, 2u, 4u}) {
        SCOPED_TRACE(std::to_string(buses) + " buses");
        FilterBank flushed(specs, amap(), /*checkSafety=*/true, buses);
        FilterBank piped(specs, amap(), /*checkSafety=*/true, buses);
        flushed.beginDeferred();
        piped.beginDeferred();
        FilterBank::Pending batch;
        Rng rng(buses);
        std::vector<bool> cached(1024);  // the modelled L2, by unit
        for (int chunk = 0; chunk < 60; ++chunk) {
            const std::uint64_t events = rng.below(40);
            for (std::uint64_t e = 0; e < events; ++e) {
                const std::size_t u = rng.below(cached.size());
                const Addr unit = u * 32;
                const bool snoop = rng.chance(0.5);
                for (FilterBank *bank : {&flushed, &piped}) {
                    if (snoop)
                        bank->observeSnoop(unit, cached[u],
                                           cached[u] || cached[u ^ 1]);
                    else if (cached[u])
                        bank->unitEvicted(unit);
                    else
                        bank->unitFilled(unit);
                }
                if (!snoop)
                    cached[u] = !cached[u];
            }
            flushed.flushDeferred();
            piped.sealChunk();
            if (chunk % 7 == 6) {
                piped.take(batch);
                EXPECT_EQ(piped.queuedEvents(), 0u);
                piped.replay(batch);
                EXPECT_EQ(batch.events(), 0u);
            }
        }
        EXPECT_GT(piped.queuedEvents(), 0u);
        piped.endDeferred();
        EXPECT_EQ(piped.queuedEvents(), 0u);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            SCOPED_TRACE(specs[i]);
            const FilterStats &a = flushed.statsAt(i);
            const FilterStats &b = piped.statsAt(i);
            EXPECT_GT(a.probes, 0u);
            EXPECT_EQ(a.probes, b.probes);
            EXPECT_EQ(a.filtered, b.filtered);
            EXPECT_EQ(a.wouldMiss, b.wouldMiss);
            EXPECT_EQ(a.snoopAllocs, b.snoopAllocs);
            EXPECT_EQ(a.fillUpdates, b.fillUpdates);
            EXPECT_EQ(a.evictUpdates, b.evictUpdates);
        }
    }
}

TEST(FilterBank, EmptyChunksLeaveNoMark)
{
    // A run that rarely queues must not grow a mark per chunk: only a
    // seal after new events records the bus queues' ends.
    FilterBank bank({"EJ-8x2"}, amap(), /*checkSafety=*/true, /*buses=*/2);
    bank.beginDeferred();
    FilterBank::Pending batch;
    bank.sealChunk();
    bank.take(batch);
    EXPECT_TRUE(batch.chunkEnds.empty());
    bank.observeSnoop(0, false, false);
    bank.sealChunk();
    bank.sealChunk();
    bank.sealChunk();
    bank.take(batch);
    EXPECT_EQ(batch.chunkEnds.size(), 2u);
    bank.replay(batch);
    bank.sealChunk();
    bank.take(batch);
    EXPECT_TRUE(batch.chunkEnds.empty());
    bank.endDeferred();
}

TEST(FilterBank, StatsMerge)
{
    FilterStats a, b;
    a.probes = 10;
    a.filtered = 2;
    a.wouldMiss = 8;
    a.filteredWouldMiss = 2;
    b.probes = 30;
    b.filtered = 10;
    b.wouldMiss = 22;
    b.filteredWouldMiss = 10;
    a.merge(b);
    EXPECT_EQ(a.probes, 40u);
    EXPECT_DOUBLE_EQ(a.coverage(), 12.0 / 30.0);
}

TEST(FilterBank, TrafficConversion)
{
    FilterStats s;
    s.probes = 5;
    s.filtered = 3;
    s.snoopAllocs = 2;
    s.fillUpdates = 7;
    s.evictUpdates = 6;
    const auto t = s.traffic();
    EXPECT_EQ(t.probes, 5u);
    EXPECT_EQ(t.filtered, 3u);
    EXPECT_EQ(t.snoopAllocs, 2u);
    EXPECT_EQ(t.fillUpdates, 7u);
    EXPECT_EQ(t.evictUpdates, 6u);
}

TEST(FilterBankDeathTest, SafetyViolationPanics)
{
    // An IJ that never saw the fill believes nothing is cached; claiming
    // the unit is present must trip the safety check.
    FilterBank bank({"IJ-6x5x6"}, amap(), /*checkSafety=*/true);
    EXPECT_DEATH(bank.observeSnoop(0x100, /*unitInL2=*/true, true),
                 "safety violation");
}

TEST(FilterBank, SafetyViolationCountedWhenNotEnforced)
{
    FilterBank bank({"IJ-6x5x6"}, amap(), /*checkSafety=*/false);
    bank.observeSnoop(0x100, true, true);
    EXPECT_EQ(bank.statsAt(0).safetyViolations, 1u);
}

TEST(FilterBank, CoverageZeroWhenNoMisses)
{
    FilterBank bank({"EJ-8x2"}, amap());
    EXPECT_DOUBLE_EQ(bank.statsAt(0).coverage(), 0.0);
}
