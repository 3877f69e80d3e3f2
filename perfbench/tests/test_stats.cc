// Tests of the benchmark's timing accounting and report helpers.

#include <gtest/gtest.h>

#include "common.hh"
#include "stats.hh"

namespace perfbench
{
namespace
{

TEST(Stats, MedianOddEvenEmpty)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, TailPercentileLeavesTenSamplesBeyond)
{
    EXPECT_EQ(tailPercentile(0), 50.0);
    EXPECT_EQ(tailPercentile(19), 50.0);
    EXPECT_EQ(tailPercentile(20), 50.0);
    EXPECT_EQ(tailPercentile(99), 50.0);
    EXPECT_EQ(tailPercentile(100), 90.0);
    EXPECT_EQ(tailPercentile(999), 90.0);
    EXPECT_EQ(tailPercentile(1000), 99.0);
    EXPECT_EQ(tailPercentile(100000), 99.0);
}

TEST(Stats, NearestRankPercentile)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 90), 90.0);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 99), 99.0);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 100), 100.0);
    EXPECT_DOUBLE_EQ(percentileSorted({}, 50), 0.0);
}

TEST(Stats, SummaryCountsSamples)
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    const LatencySummary s = summarize(v, 0, 1e9);
    EXPECT_EQ(s.samples, 1000u);
    EXPECT_EQ(s.tailPct, 99.0);
    EXPECT_DOUBLE_EQ(s.tail, 990.0);
    EXPECT_DOUBLE_EQ(s.median, 500.5);
}

TEST(Stats, FailuresMissTheLatencyLimit)
{
    // 980 fast requests and 20 failures: the failures enter at the
    // limit, so the p99 is the limit and not a fast sample.
    std::vector<double> v(980, 1.0);
    const LatencySummary s = summarize(v, 20, 5000.0);
    EXPECT_EQ(s.samples, 1000u);
    EXPECT_EQ(s.failed, 20u);
    EXPECT_DOUBLE_EQ(s.tail, 5000.0);
    EXPECT_DOUBLE_EQ(s.median, 1.0);
}

TEST(Stats, FewSamplesFallBackToTheMedianRank)
{
    const LatencySummary s = summarize({5, 9, 7}, 0, 100.0);
    EXPECT_EQ(s.tailPct, 50.0);
    EXPECT_DOUBLE_EQ(s.tail, 7.0);
}

TEST(Common, DefaultSeedLeavesProfilesUnchanged)
{
    EXPECT_EQ(mixSeed(42, kDefaultSeed), 42u);
    EXPECT_NE(mixSeed(42, 7), 42u);
    EXPECT_EQ(mixSeed(42, 7), mixSeed(42, 7));
    std::vector<std::string> v = {"a", "b", "c", "d"};
    shuffleWithSeed(v, kDefaultSeed);
    EXPECT_EQ(v, (std::vector<std::string>{"a", "b", "c", "d"}));
}

TEST(Common, NormalizeBlanksOnlyHostTime)
{
    std::string err;
    const auto doc = jetty::json::parse(
        R"({"runs":[{"timing":{"refs":10,"sim_seconds":0.5,)"
        R"("refs_per_sec":20.0},"arch":{"sim_seconds":1}}]})",
        &err);
    ASSERT_TRUE(err.empty());
    EXPECT_EQ(normalizeReport(doc).dumpCompact(),
              R"({"runs":[{"timing":{"refs":10,"sim_seconds":null,)"
              R"("refs_per_sec":null},"arch":{"sim_seconds":1}}]})");
}

} // namespace
} // namespace perfbench
