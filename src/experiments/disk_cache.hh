/**
 * @file
 * On-disk tier of the RunCache (tier 1). One JSON file per
 * (variant, workload, scale) cell under a cache root, keyed by the same
 * canonical mini-spec text runCacheKey() produces for the in-memory
 * tier, so the two tiers answer exactly the same questions.
 *
 * Layout under the root — the directory is its own index:
 *
 *   <root>/<16-hex-fnv64-of-key>.json   — one entry per cell; its file
 *                                         mtime is its recency
 *
 * Each entry is an envelope {"jetty_cache": <version>, "key": "<full
 * canonical key>", "covered": [filter names...], "result": {...}} so a
 * filename hash collision is detected by comparing the embedded key, and
 * a semantic change to the simulator only needs a kDiskCacheVersion bump
 * to invalidate every stale entry. The dist resume ledger
 * (dist/ledger.hh) is a DiskCache too, so a ledger directory and a cache
 * root are interchangeable.
 *
 * Robustness contract: the disk tier is an accelerator, never an
 * authority. Corrupt, truncated, or wrong-version entries are evicted
 * and reported as misses; any other file in the root (a legacy
 * `index.json`, an in-flight temp file) is neither read, counted nor
 * evicted; every publish goes through util/atomic_file.hh so a writer
 * killed mid-publish leaves nothing readable at the final path. No
 * failure in this tier is ever fatal to the caller.
 *
 * Concurrency: one DiskCache object is not thread-safe (RunCache calls
 * it under its own mutex). Any number of objects and processes may
 * share a root: no file is ever read-modified-written, so the worst a
 * race costs is an entry evicted slightly early.
 */

#ifndef JETTY_EXPERIMENTS_DISK_CACHE_HH
#define JETTY_EXPERIMENTS_DISK_CACHE_HH

#include <cstdint>
#include <set>
#include <string>

#include "experiments/experiments.hh"

namespace jetty::experiments
{

/** Entry-format version; bump when AppRunResult serialization or the
 *  simulator's semantics change so stale entries read as misses. */
constexpr std::uint64_t kDiskCacheVersion = 1;

/** Default byte budget for LRU eviction (overridable via
 *  JETTY_CACHE_BYTES or RunCache::setDiskBudget). */
constexpr std::uint64_t kDefaultDiskBudgetBytes = 256ull << 20;

class DiskCache
{
  public:
    /** Open (creating directories as needed) the cache at @p root. */
    DiskCache(std::string root, std::uint64_t budgetBytes);

    DiskCache(const DiskCache &) = delete;
    DiskCache &operator=(const DiskCache &) = delete;

    /**
     * Look up the cell for canonical key @p key. On a hit, fills
     * @p result / @p covered, stamps the entry's mtime with the current
     * time (its only write), and returns true. Corrupt, truncated, or
     * wrong-version entries are unlinked and read as misses; a
     * filename-collision entry (embedded key differs) is a miss but is
     * left in place.
     */
    bool lookup(const std::string &key, AppRunResult &result,
                std::set<std::string> &covered);

    /**
     * Publish (or overwrite) the cell for @p key atomically and stamp
     * it most recent. If the root's entries then exceed the byte
     * budget, unlink the least recent (oldest mtime, then name) until
     * they fit; the just-published entry is never evicted.
     * @return "" on success, else the I/O diagnostic. Best effort: the
     * tier simply misses next time.
     */
    std::string publish(const std::string &key, const AppRunResult &result,
                        const std::set<std::string> &covered);

    const std::string &root() const { return root_; }
    std::uint64_t budgetBytes() const { return budget_; }

    /** Entry filename (relative to the root) for a canonical key —
     *  16 hex digits of FNV-1a plus ".json". Exposed for tests. */
    static std::string entryFileFor(const std::string &key);

  private:
    /** Evict least-recent entries until the root fits the budget,
     *  sparing @p keep. */
    void evictOver(const std::string &keep);

    std::string root_;
    std::uint64_t budget_;
};

} // namespace jetty::experiments

#endif // JETTY_EXPERIMENTS_DISK_CACHE_HH
