/**
 * @file
 * Property tests of the JETTY safety guarantee: for every filter
 * configuration, under randomized fill/evict/snoop traffic driven through
 * a real subblocked L2, a filtered snoop must always be a true miss, and
 * Include-JETTY counters must stay coherent with the cache contents.
 * Parameterized over (filter spec x RNG seed).
 */

#include <gtest/gtest.h>

#include <tuple>

#include "core/filter_bank.hh"
#include "core/filter_spec.hh"
#include "mem/l2_cache.hh"
#include "util/random.hh"

using namespace jetty;
using namespace jetty::filter;
using coherence::BusOp;
using coherence::State;

namespace
{

std::vector<std::string>
allSpecs()
{
    std::vector<std::string> specs;
    for (const auto &group :
         {paperExcludeSpecs(), paperVectorExcludeSpecs(),
          paperIncludeSpecs(), paperHybridSpecs()}) {
        for (const auto &s : group)
            specs.push_back(s);
    }
    specs.push_back("IJ-10x4x7u");
    specs.push_back("HJ(IJ-9x4x7,VEJ-32x4-8)");
    return specs;
}

} // namespace

class FilterSafety
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>>
{
};

TEST_P(FilterSafety, NeverFiltersACachedUnit)
{
    const auto [spec, seed] = GetParam();

    mem::L2Config l2cfg;
    l2cfg.sizeBytes = 64 * 1024;  // small L2: heavy eviction churn
    l2cfg.blockBytes = 64;
    l2cfg.subblocks = 2;
    mem::L2Cache l2(l2cfg);

    AddressMap amap;
    amap.unitOffsetBits = 5;
    amap.blockOffsetBits = 6;
    amap.physAddrBits = 40;
    amap.l2CapacityUnits = l2cfg.sizeBytes / l2cfg.unitBytes();

    // checkSafety=false so violations are counted, then asserted on.
    FilterBank bank({spec}, amap, /*checkSafety=*/false);
    l2.addListener(&bank);

    Rng rng(1000 + seed);
    std::vector<mem::L2Victim> victims;

    // Addresses drawn from a small pool to force heavy reuse and
    // conflicts (the adversarial case for stale filter state).
    auto draw = [&] {
        return (rng.below(4096)) * 32 + 0x40000;
    };

    for (int step = 0; step < 60000; ++step) {
        const Addr a = draw();
        const unsigned action = static_cast<unsigned>(rng.below(100));
        if (action < 45) {
            // Incoming snoop with ground truth, then protocol action.
            mem::L2LookupResult pr;
            const int way = l2.probeWay(a, pr);
            bank.observeSnoop(a, pr.unitValid, pr.tagMatch);
            const BusOp op = rng.chance(0.3) ? BusOp::BusReadX
                                             : BusOp::BusRead;
            l2.snoopAtWay(way, a, op);
        } else if (action < 85) {
            // Local fill (if absent).
            if (!l2.probe(a).unitValid) {
                victims.clear();
                l2.fill(a, rng.chance(0.5) ? State::Exclusive
                                           : State::Shared,
                        victims);
            }
        } else {
            // Local invalidation (inclusion-style): the bank sees the
            // eviction but no snoop.
            mem::L2LookupResult pr;
            l2.snoopAtWay(l2.probeWay(a, pr), a, BusOp::BusReadX);
        }
    }

    const auto &stats = bank.statsAt(0);
    EXPECT_EQ(stats.safetyViolations, 0u) << spec;
    EXPECT_GT(stats.probes, 0u);
    // Sanity: coverage is a valid fraction.
    EXPECT_GE(stats.coverage(), 0.0);
    EXPECT_LE(stats.coverage(), 1.0);
    // Filtered snoops are a subset of true misses.
    EXPECT_LE(stats.filteredWouldMiss, stats.wouldMiss);
    EXPECT_EQ(stats.filtered, stats.filteredWouldMiss);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, FilterSafety,
    ::testing::Combine(::testing::ValuesIn(allSpecs()),
                       ::testing::Values(1u, 2u, 3u)),
    [](const auto &param_info) {
        std::string name = std::get<0>(param_info.param) + "_s" +
                           std::to_string(std::get<1>(param_info.param));
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

/** IJ counter coherence: after arbitrary traffic, an empty cache must
 *  mean "filter everything" again. */
class IncludeJettyCoherence : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(IncludeJettyCoherence, DrainsToEmpty)
{
    const unsigned seed = GetParam();

    mem::L2Config l2cfg;
    l2cfg.sizeBytes = 32 * 1024;
    mem::L2Cache l2(l2cfg);

    AddressMap amap;
    amap.l2CapacityUnits = l2cfg.sizeBytes / l2cfg.unitBytes();
    FilterBank bank({"IJ-8x4x7"}, amap, true);
    l2.addListener(&bank);

    Rng rng(seed);
    std::vector<mem::L2Victim> victims;
    std::vector<Addr> filled;
    for (int i = 0; i < 5000; ++i) {
        const Addr a = rng.below(1 << 20) * 32;
        if (!l2.probe(a).unitValid) {
            victims.clear();
            l2.fill(a, State::Exclusive, victims);
        }
    }

    // Drain the cache via snoop invalidations at every unit address the
    // cache still holds (walk the whole address range we used).
    for (Addr a = 0; a < (1ull << 25); a += 32) {
        mem::L2LookupResult pr;
        const int way = l2.probeWay(a, pr);
        if (pr.unitValid)
            l2.snoopAtWay(way, a, BusOp::BusReadX);
    }
    ASSERT_EQ(l2.validUnits(), 0u);

    // With nothing cached, the IJ must filter any address again.
    auto &ij = bank.filterAt(0);
    Rng rng2(seed + 99);
    for (int i = 0; i < 1000; ++i)
        EXPECT_TRUE(ij.probe(rng2.below(1ull << 38) * 32));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncludeJettyCoherence,
                         ::testing::Values(11u, 22u, 33u, 44u));
