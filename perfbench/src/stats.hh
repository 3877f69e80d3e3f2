/**
 * @file
 * Timing accounting of the benchmark: medians, the tail percentile it
 * reports, and the treatment of failed requests.
 *
 * A latency is reported as the median plus the highest percentile of a
 * fixed grid (p99, p90, p50) that has at least kTailBeyond samples
 * beyond it. With fewer than 2 * kTailBeyond samples no percentile
 * above the median can be resolved, and the tail falls back to p50. A
 * fixed grid (rather than "the highest percentile that fits") keeps the
 * reported percentile from sliding every time the sample count moves a
 * little. Failed or refused requests enter the samples at the latency
 * limit, so they count as misses of any limit and can only push the
 * tail up.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench
{

/** Samples that must lie beyond a reported tail percentile. */
constexpr std::size_t kTailBeyond = 10;

/** Median of @p v (mean of the two middle values when even; 0 when
 *  empty). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return (v[(n - 1) / 2] + v[n / 2]) / 2.0;
}

/** Nearest-rank percentile @p pct (0 < pct <= 100) of sorted @p v. */
inline double
percentileSorted(const std::vector<double> &v, double pct)
{
    if (v.empty())
        return 0.0;
    const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
    const std::size_t k = std::clamp<std::size_t>(
        static_cast<std::size_t>(rank), 1, v.size());
    return v[k - 1];
}

/**
 * The percentile the tail metric reports for @p n samples: the highest
 * of p99/p90/p50 whose nearest rank leaves at least kTailBeyond samples
 * beyond it, else 50.
 */
inline double
tailPercentile(std::size_t n)
{
    for (const double pct : {99.0, 90.0, 50.0}) {
        const auto rank = static_cast<std::size_t>(
            std::ceil(pct / 100.0 * static_cast<double>(n)));
        if (n >= rank + kTailBeyond)
            return pct;
    }
    return 50.0;
}

/** A latency distribution as the benchmark reports it. */
struct LatencySummary
{
    std::size_t samples = 0;  //!< completed + failed
    std::size_t failed = 0;
    double median = 0;
    double tail = 0;
    double tailPct = 50;  //!< which percentile @ref tail is
};

/**
 * Summarize @p completed latencies plus @p failed requests, each of
 * which is entered at @p limit (a failed request misses any limit).
 */
inline LatencySummary
summarize(std::vector<double> completed, std::size_t failed, double limit)
{
    completed.insert(completed.end(), failed, limit);
    std::sort(completed.begin(), completed.end());
    LatencySummary s;
    s.samples = completed.size();
    s.failed = failed;
    s.median = median(completed);
    s.tailPct = tailPercentile(completed.size());
    s.tail = percentileSorted(completed, s.tailPct);
    return s;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
