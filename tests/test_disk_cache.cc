/**
 * @file
 * Tests for the RunCache's persistent tier (experiments/disk_cache.hh)
 * and its AppRunResult JSON payload (run_result_json.hh): lossless
 * round-trip, publish/lookup, the corrupt-entries-are-misses contract,
 * LRU eviction under a byte budget (recency kept in file mtimes, so it
 * holds across DiskCache objects and across concurrent publishers on
 * one root), a legacy index.json left alone, cross-"process" reuse
 * (tier 0 dropped via clear(), everything answered from disk), and a
 * multi-threaded subset/superset stress over the shared cache.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "experiments/disk_cache.hh"
#include "experiments/experiments.hh"
#include "experiments/run_result_json.hh"
#include "trace/apps.hh"
#include "util/json.hh"

using namespace jetty;
using experiments::AppRunResult;
using experiments::DiskCache;
using experiments::RunCache;
using experiments::RunRequest;

namespace
{

/** Fresh per-test cache root under the gtest temp dir. */
std::string
freshRoot(const std::string &name)
{
    const std::string root = ::testing::TempDir() + name;
    std::string cmd = "rm -rf '" + root + "'";
    if (std::system(cmd.c_str()) != 0)
        ADD_FAILURE() << "could not clear " << root;
    return root;
}

/** A small real simulation to serialize (deterministic). */
AppRunResult
sampleResult()
{
    experiments::SystemVariant variant;
    return experiments::runApp(trace::appByName("ff"), variant,
                               {"EJ-16x2", "IJ-8x4x7"}, 0.01);
}

RunRequest
sampleRequest(const char *app, std::vector<std::string> filters)
{
    RunRequest req;
    req.app = trace::appByName(app);
    req.filterSpecs = std::move(filters);
    req.accessScale = 0.01;
    return req;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

bool
fileExists(const std::string &path)
{
    struct stat st = {};
    return ::stat(path.c_str(), &st) == 0;
}

/** Bytes of @p result's published entry, measured from a real publish
 *  (the envelope is pretty-printed, so the canonical text undercounts). */
std::uint64_t
entryBytes(const AppRunResult &result, const std::set<std::string> &covered)
{
    const std::string root = freshRoot("jetty_dc_probe");
    DiskCache(root, experiments::kDefaultDiskBudgetBytes)
        .publish("probe", result, covered);
    struct stat st = {};
    EXPECT_EQ(
        ::stat((root + "/" + DiskCache::entryFileFor("probe")).c_str(), &st),
        0);
    return static_cast<std::uint64_t>(st.st_size);
}

/** Total bytes of the entry files (16 hex digits + ".json") in @p root. */
std::uint64_t
rootEntryBytes(const std::string &root)
{
    std::uint64_t total = 0;
    for (const auto &ent : std::filesystem::directory_iterator(root)) {
        const std::string name = ent.path().filename().string();
        if (name.size() == 21 && name.substr(16) == ".json")
            total += ent.file_size();
    }
    return total;
}

/** runResultFromJson through a reader at @p path: "" or its failure. */
std::string
decodeRunResult(const json::Value &v, AppRunResult &out,
                const char *path = "result")
{
    json::FieldReader rd(path);
    experiments::runResultFromJson(rd, v, out);
    return rd.error();
}

/** Copy of @p v without the member at @p path: object keys, and
 *  decimal indexes into arrays. */
json::Value
withoutMember(const json::Value &v, const std::vector<std::string> &path,
              std::size_t at = 0)
{
    if (v.isArray()) {
        json::Value out = json::Value::array();
        const std::size_t idx = std::stoul(path[at]);
        for (std::size_t i = 0; i < v.items().size(); ++i) {
            out.push(i == idx ? withoutMember(v.items()[i], path, at + 1)
                              : v.items()[i]);
        }
        return out;
    }
    json::Value out = json::Value::object();
    for (const auto &[key, member] : v.members()) {
        if (key != path[at])
            out.set(key, member);
        else if (at + 1 < path.size())
            out.set(key, withoutMember(member, path, at + 1));
    }
    return out;
}

} // namespace

TEST(RunResultJson, RoundTripIsLossless)
{
    const AppRunResult original = sampleResult();
    const json::Value encoded = experiments::runResultToJson(original);

    AppRunResult restored;
    const std::string err = decodeRunResult(encoded, restored);
    ASSERT_EQ(err, "");

    // Value identity through a second encode: canonical text equality
    // covers every serialized counter and double at once.
    const json::Value reencoded = experiments::runResultToJson(restored);
    EXPECT_EQ(encoded.dumpCanonical(), reencoded.dumpCanonical());
    EXPECT_EQ(restored.appName, original.appName);
    EXPECT_EQ(restored.totalRefs, original.totalRefs);
    EXPECT_EQ(restored.simSeconds, original.simSeconds);
    EXPECT_EQ(restored.filterNames, original.filterNames);
    EXPECT_EQ(restored.stats.procs.size(), original.stats.procs.size());
}

TEST(RunResultJson, ReaderRejectsMalformedPayloads)
{
    AppRunResult out;
    EXPECT_NE(decodeRunResult(json::Value::object(), out), "");
    json::Value half = experiments::runResultToJson(sampleResult());
    half.set("totalRefs", "not a number");
    EXPECT_NE(decodeRunResult(half, out), "");
    // The first failure, named by its dotted path.
    EXPECT_EQ(decodeRunResult(half, out, "entry.result"),
              "entry.result.totalRefs: not a u64");
}

TEST(RunResultJson, NestedFailuresNameTheirIndexedPath)
{
    AppRunResult result;
    result.stats = sim::SimStats(4, 2);
    for (const char *name : {"EJ-32x4", "EJ-16x2", "VEJ-32x4-8", "NULL"}) {
        result.filterNames.push_back(name);
        result.filterStats.emplace_back();
        result.filterCosts.emplace_back();
    }
    const json::Value encoded = experiments::runResultToJson(result);
    const auto errorWithout = [&](const std::vector<std::string> &path) {
        AppRunResult out;
        return decodeRunResult(withoutMember(encoded, path), out);
    };
    AppRunResult whole;
    EXPECT_EQ(decodeRunResult(encoded, whole), "");
    EXPECT_EQ(errorWithout({"filters", "3", "stats", "snoopAllocs"}),
              "result.filters[3].stats.snoopAllocs: missing field");
    EXPECT_EQ(errorWithout({"filters", "1", "costs", "probe"}),
              "result.filters[1].costs.probe: missing field");
    EXPECT_EQ(errorWithout({"filters", "0", "name"}),
              "result.filters[0].name: missing field");
    for (const char *field : {"accesses", "l1Misses", "wbDrains"}) {
        EXPECT_EQ(errorWithout({"stats", "procs", "2", field}),
                  std::string("result.stats.procs[2].") + field +
                      ": missing field");
    }
    EXPECT_EQ(errorWithout({"stats", "procs", "0", "traffic",
                            "snoopTagProbes"}),
              "result.stats.procs[0].traffic.snoopTagProbes: missing field");
    EXPECT_EQ(errorWithout({"stats", "perBus", "1", "readXs"}),
              "result.stats.perBus[1].readXs: missing field");
    EXPECT_EQ(errorWithout({"stats", "remoteHits", "total"}),
              "result.stats.remoteHits.total: missing field");
    EXPECT_EQ(errorWithout({"traffic", "localDataReads"}),
              "result.traffic.localDataReads: missing field");
}

TEST(DiskCacheTest, PublishThenLookupRoundTrips)
{
    const std::string root = freshRoot("jetty_dc_roundtrip");
    DiskCache cache(root, experiments::kDefaultDiskBudgetBytes);

    const AppRunResult result = sampleResult();
    const std::set<std::string> covered = {"EJ-16x2", "IJ-8x4x7"};
    EXPECT_EQ(cache.publish("key-a", result, covered), "");

    AppRunResult got;
    std::set<std::string> gotCovered;
    ASSERT_TRUE(cache.lookup("key-a", got, gotCovered));
    EXPECT_EQ(gotCovered, covered);
    EXPECT_EQ(experiments::runResultToJson(got).dumpCanonical(),
              experiments::runResultToJson(result).dumpCanonical());

    // Unknown key: clean miss.
    EXPECT_FALSE(cache.lookup("key-b", got, gotCovered));
}

TEST(DiskCacheTest, CorruptEntriesAreEvictedMisses)
{
    const std::string root = freshRoot("jetty_dc_corrupt");
    DiskCache cache(root, experiments::kDefaultDiskBudgetBytes);
    const AppRunResult result = sampleResult();
    cache.publish("key-a", result, {"EJ-16x2"});
    const std::string file = root + "/" + DiskCache::entryFileFor("key-a");
    ASSERT_TRUE(fileExists(file));

    AppRunResult got;
    std::set<std::string> covered;

    // Truncated mid-file: miss, and the entry is unlinked.
    const std::string bytes = slurp(file);
    {
        std::ofstream out(file, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size() / 2));
    }
    EXPECT_FALSE(cache.lookup("key-a", got, covered));
    EXPECT_FALSE(fileExists(file));

    // Wrong envelope version: same contract.
    cache.publish("key-a", result, {"EJ-16x2"});
    {
        std::string err;
        json::Value v = json::parse(slurp(file), &err);
        ASSERT_EQ(err, "");
        v.set("jetty_cache", experiments::kDiskCacheVersion + 1);
        std::ofstream out(file, std::ios::binary | std::ios::trunc);
        const std::string text = v.dumpCanonical();
        out.write(text.data(), static_cast<std::streamsize>(text.size()));
    }
    EXPECT_FALSE(cache.lookup("key-a", got, covered));
    EXPECT_FALSE(fileExists(file));

    // A covered name without its filter row: same contract, so no
    // caller ever projects onto a row the result lacks.
    cache.publish("key-a", result, {"EJ-16x2", "EJ-32x4"});
    EXPECT_FALSE(cache.lookup("key-a", got, covered));
    EXPECT_FALSE(fileExists(file));

    // Filename collision (embedded key differs): miss, but the foreign
    // entry is left in place — it is some other key's valid data.
    cache.publish("key-a", result, {"EJ-16x2"});
    {
        std::string err;
        json::Value v = json::parse(slurp(file), &err);
        ASSERT_EQ(err, "");
        v.set("key", "some-other-key");
        std::ofstream out(file, std::ios::binary | std::ios::trunc);
        const std::string text = v.dumpCanonical();
        out.write(text.data(), static_cast<std::streamsize>(text.size()));
    }
    EXPECT_FALSE(cache.lookup("key-a", got, covered));
    EXPECT_TRUE(fileExists(file));
}

TEST(DiskCacheTest, LruEvictionHonorsRecencyAndBudget)
{
    const std::string root = freshRoot("jetty_dc_lru");
    const AppRunResult result = sampleResult();
    const std::set<std::string> covered = {"EJ-16x2"};
    // Budget for roughly two entries. Every operation goes through its
    // own DiskCache, as separate processes sharing the root would: the
    // recency lives in the directory, not in any one object.
    const std::uint64_t budget = entryBytes(result, covered) * 5 / 2;
    const auto publish = [&](const std::string &key) {
        EXPECT_EQ(DiskCache(root, budget).publish(key, result, covered),
                  "");
    };
    const auto found = [&](const std::string &key) {
        AppRunResult got;
        std::set<std::string> gotCovered;
        return DiskCache(root, budget).lookup(key, got, gotCovered);
    };

    publish("key-1");
    publish("key-2");

    // Touch key-1 so key-2 becomes the least recently used...
    ASSERT_TRUE(found("key-1"));

    // ...then publishing key-3 must evict key-2, not key-1.
    publish("key-3");
    EXPECT_TRUE(found("key-1"));
    EXPECT_FALSE(found("key-2"));
    EXPECT_TRUE(found("key-3"));
}

TEST(DiskCacheTest, LegacyIndexFileIsNeitherReadNorEvicted)
{
    // A root written by a build that kept an index.json beside the
    // entries: the file is garbage to this build, and larger than the
    // whole budget. Lookups still answer, and eviction neither counts
    // its bytes (which would evict live entries) nor unlinks it.
    const std::string root = freshRoot("jetty_dc_index");
    const AppRunResult result = sampleResult();
    const std::set<std::string> covered = {"EJ-16x2"};
    const std::uint64_t budget = entryBytes(result, covered) * 5 / 2;
    DiskCache cache(root, budget);
    ASSERT_EQ(cache.publish("key-a", result, covered), "");
    const std::string index = root + "/index.json";
    {
        std::ofstream out(index, std::ios::binary | std::ios::trunc);
        out << "{{{ not json" << std::string(budget * 2, ' ');
    }
    const std::string legacy = slurp(index);

    AppRunResult got;
    std::set<std::string> gotCovered;
    EXPECT_TRUE(cache.lookup("key-a", got, gotCovered));
    ASSERT_EQ(cache.publish("key-b", result, covered), "");
    EXPECT_TRUE(cache.lookup("key-a", got, gotCovered));
    EXPECT_TRUE(cache.lookup("key-b", got, gotCovered));
    EXPECT_EQ(slurp(index), legacy);
}

TEST(DiskCacheTest, SharedRootKeepsItsBudget)
{
    // Four publishers on one root, each with its own DiskCache, as
    // `sweep --workers 4` runs them. Whatever the interleaving, the
    // next publish scans the directory itself and trims it to budget.
    const std::string root = freshRoot("jetty_dc_shared");
    const AppRunResult result = sampleResult();
    const std::set<std::string> covered = {"EJ-16x2"};
    const std::uint64_t budget = entryBytes(result, covered) * 20;

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 4; ++t) {
        threads.emplace_back([&, t]() {
            DiskCache cache(root, budget);
            for (unsigned i = 0; i < 40; ++i) {
                cache.publish("key-" + std::to_string(t) + "-" +
                                  std::to_string(i),
                              result, covered);
            }
        });
    }
    for (auto &t : threads)
        t.join();

    DiskCache(root, budget).publish("key-last", result, covered);
    EXPECT_LE(rootEntryBytes(root), budget);
    AppRunResult got;
    std::set<std::string> gotCovered;
    EXPECT_TRUE(DiskCache(root, budget).lookup("key-last", got, gotCovered));
}

TEST(RunCacheDiskTier, FreshProcessAnswersEntirelyFromDisk)
{
    const std::string root = freshRoot("jetty_dc_process");
    auto &cache = RunCache::instance();
    cache.clear();
    cache.setDiskRoot(root);

    const std::vector<RunRequest> requests = {
        sampleRequest("lu", {"EJ-16x2", "IJ-8x4x7"}),
        sampleRequest("ff", {"EJ-16x2"}),
    };
    const auto first = experiments::runMany(requests);
    EXPECT_EQ(cache.simulations(), 2u);
    EXPECT_EQ(cache.diskHits(), 0u);

    // clear() models a fresh process: tier 0 and the digest memo are
    // gone, the disk tier survives.
    cache.clear();
    const auto second = experiments::runMany(requests);
    EXPECT_EQ(cache.simulations(), 0u);
    EXPECT_EQ(cache.diskHits(), 2u);
    EXPECT_EQ(cache.hits(), 2u);

    // Bit-identical results, timing included (cache hits carry the
    // originating run's timing).
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(experiments::runResultToJson(first[i]).dumpCanonical(),
                  experiments::runResultToJson(second[i]).dumpCanonical());
    }

    cache.setDiskRoot("");
    cache.clear();
}

TEST(RunCacheDiskTier, SupersetOnDiskAnswersSubsetAndSubsetMerges)
{
    const std::string root = freshRoot("jetty_dc_superset");
    auto &cache = RunCache::instance();
    cache.clear();
    cache.setDiskRoot(root);

    // Publish a two-filter superset, then ask for a subset from a
    // "fresh process": covered from disk, no simulation.
    experiments::runMany({sampleRequest("lu", {"EJ-16x2", "IJ-8x4x7"})});
    cache.clear();
    experiments::runMany({sampleRequest("lu", {"IJ-8x4x7"})});
    EXPECT_EQ(cache.simulations(), 0u);
    EXPECT_EQ(cache.diskHits(), 1u);

    // A strict superset simulates only the filter the disk entry lacks,
    // folds its row into the two cached ones and republishes; the next
    // fresh process sees all three filters covered.
    cache.clear();
    experiments::runMany(
        {sampleRequest("lu", {"EJ-16x2", "IJ-8x4x7", "EJ-32x4"})});
    EXPECT_EQ(cache.simulations(), 1u);
    cache.clear();
    experiments::runMany(
        {sampleRequest("lu", {"EJ-32x4", "EJ-16x2", "IJ-8x4x7"})});
    EXPECT_EQ(cache.simulations(), 0u);
    EXPECT_EQ(cache.diskHits(), 1u);

    cache.setDiskRoot("");
    cache.clear();
}

TEST(RunCacheDiskTier, ConcurrentSubsetSupersetStress)
{
    const std::string root = freshRoot("jetty_dc_stress");
    auto &cache = RunCache::instance();
    cache.clear();
    cache.setDiskRoot(root);

    // Many threads hammering overlapping subset/superset requests for
    // the same cells: the shared two-tier cache must stay consistent
    // and every answer must carry the filters it was asked for.
    const std::vector<std::vector<std::string>> asks = {
        {"EJ-16x2"},
        {"IJ-8x4x7"},
        {"EJ-16x2", "IJ-8x4x7"},
        {"IJ-8x4x7", "EJ-16x2", "EJ-32x4"},
    };
    std::vector<std::thread> threads;
    std::vector<int> failures(8, 0);
    for (unsigned t = 0; t < 8; ++t) {
        threads.emplace_back([&, t]() {
            for (unsigned round = 0; round < 6; ++round) {
                const auto &filters = asks[(t + round) % asks.size()];
                const auto runs = experiments::runMany(
                    {sampleRequest("lu", filters),
                     sampleRequest("ff", filters)});
                for (const auto &run : runs) {
                    for (const auto &name : filters) {
                        // statsFor fatal()s on a missing filter; probe
                        // membership by hand instead.
                        bool found = false;
                        for (const auto &have : run.filterNames)
                            found = found || have == name;
                        if (!found)
                            ++failures[t];
                    }
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();
    for (unsigned t = 0; t < 8; ++t)
        EXPECT_EQ(failures[t], 0) << "thread " << t;

    // Serial answers after the storm match a cold re-simulation.
    const auto cached =
        experiments::runMany({sampleRequest("lu", {"EJ-16x2"})}).front();
    cache.setDiskRoot("");
    cache.clear();
    const auto fresh =
        experiments::runMany({sampleRequest("lu", {"EJ-16x2"})}).front();
    EXPECT_EQ(cached.statsFor("EJ-16x2").probes,
              fresh.statsFor("EJ-16x2").probes);
    EXPECT_EQ(cached.statsFor("EJ-16x2").filtered,
              fresh.statsFor("EJ-16x2").filtered);
    cache.clear();
}
