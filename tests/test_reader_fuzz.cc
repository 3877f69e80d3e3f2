/**
 * @file
 * Deterministic mutation fuzzing of the validating readers. Every
 * example spec (the .spec.json files of examples/), one published
 * disk-tier entry and two run responses are mutated — a member or item
 * dropped, duplicated or replaced by another type, a negative, 2^64, a
 * fraction or a number spelled as a string, or the text truncated —
 * and each reader must answer every mutant without taking the process
 * down:
 *  - ExperimentSpec::parse accepts (and the result round-trips) or
 *    fails "spec: <dotted path>: <what>" ("spec: line N: ..." for text
 *    that is not JSON);
 *  - DiskCache::lookup is a hit whose covered filters all have rows,
 *    or a miss;
 *  - service::readRunResponse reads the answer or names its field.
 * The mutants come from util/random.hh with fixed seeds, so a failure
 * reproduces exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/experiment_spec.hh"
#include "experiments/disk_cache.hh"
#include "experiments/experiments.hh"
#include "service/client.hh"
#include "trace/apps.hh"
#include "util/json.hh"
#include "util/random.hh"

using namespace jetty;

namespace
{

/** One edit of a document: in the container reached by @p path (child
 *  indices, outermost first), drop, duplicate or replace child
 *  @p index. */
struct Mutation
{
    enum Op
    {
        Drop,
        Duplicate,
        Replace,
    };
    Op op = Drop;
    std::vector<std::size_t> path;
    std::size_t index = 0;
    std::string replacement;  //!< Replace: the child's new JSON text
};

/** What a replaced member becomes: other types, negatives, 2^64 and
 *  its neighbour, fractions, numbers spelled as strings, and values at
 *  and past the schema's range bounds. */
const char *const kJunk[] = {
    "-1",   "-4096", "18446744073709551616", "18446744073709551615",
    "0.5",  "2.5",   "1e300",                "-0.0",
    "0",    "1",     "2",                    "4097",
    "257",  "65537", "\"4\"",                "\"\"",
    "true", "null",  "[]",                   "[-1]",
    "[\"x\"]", "{}", "{\"x\":1}",
};

const json::Value &
child(const json::Value &v, std::size_t i)
{
    return v.isObject() ? v.members()[i].second : v.items()[i];
}

/** Append the child-index path of every container in @p v. */
void
containers(const json::Value &v, std::vector<std::size_t> &path,
           std::vector<std::vector<std::size_t>> &out)
{
    if (!v.isObject() && !v.isArray())
        return;
    out.push_back(path);
    for (std::size_t i = 0; i < v.size(); ++i) {
        path.push_back(i);
        containers(child(v, i), path, out);
        path.pop_back();
    }
}

/** Compact text of @p v with @p m applied (written by hand, so an
 *  object member can appear twice). */
std::string
render(const json::Value &v, const Mutation &m, std::size_t depth = 0)
{
    if (!v.isObject() && !v.isArray())
        return v.dumpCompact();
    const bool here = depth == m.path.size();
    std::string out(1, v.isObject() ? '{' : '[');
    for (std::size_t i = 0; i < v.size(); ++i) {
        std::string text = !here && m.path[depth] == i
                               ? render(child(v, i), m, depth + 1)
                               : child(v, i).dumpCompact();
        int copies = 1;
        if (here && i == m.index) {
            copies = m.op == Mutation::Drop        ? 0
                     : m.op == Mutation::Duplicate ? 2
                                                   : 1;
            if (m.op == Mutation::Replace)
                text = m.replacement;
        }
        for (int c = 0; c < copies; ++c) {
            if (out.size() > 1)
                out += ',';
            if (v.isObject())
                out += '"' + json::escape(v.members()[i].first) + "\":";
            out += text;
        }
    }
    out += v.isObject() ? '}' : ']';
    return out;
}

/** @p count mutants of @p doc, each one edit or one truncation. The
 *  top-level container is edited a third of the time, so envelopes
 *  are exercised even under a deep payload. */
std::vector<std::string>
mutants(const json::Value &doc, std::size_t count, std::uint64_t seed)
{
    std::vector<std::vector<std::size_t>> sites;
    std::vector<std::size_t> path;
    containers(doc, path, sites);
    Rng rng(seed);
    const std::string whole = doc.dumpCompact();
    std::vector<std::string> out;
    while (out.size() < count) {
        if (rng.chance(0.1)) {
            out.push_back(whole.substr(0, rng.below(whole.size())));
            continue;
        }
        Mutation m;
        m.path = rng.chance(1.0 / 3) ? sites[0]
                                     : sites[rng.below(sites.size())];
        const json::Value *at = &doc;
        for (const std::size_t i : m.path)
            at = &child(*at, i);
        if (at->size() == 0)
            continue;
        m.index = rng.below(at->size());
        m.op = static_cast<Mutation::Op>(rng.below(3));
        m.replacement = kJunk[rng.below(std::size(kJunk))];
        out.push_back(render(doc, m));
    }
    return out;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

json::Value
parsed(const std::string &text)
{
    std::string err;
    json::Value v = json::parse(text, &err);
    EXPECT_EQ(err, "");
    return v;
}

/** The .spec.json files of examples/, in name order. */
std::vector<std::string>
exampleSpecs()
{
    std::vector<std::string> paths;
    for (const auto &ent : std::filesystem::directory_iterator(
             std::string(JETTY_SOURCE_DIR) + "/examples")) {
        const std::string path = ent.path().string();
        if (path.size() > 10 &&
            path.compare(path.size() - 10, 10, ".spec.json") == 0)
            paths.push_back(path);
    }
    std::sort(paths.begin(), paths.end());
    return paths;
}

} // namespace

TEST(ReaderFuzz, SpecMutantsFailWithADottedPathOrRoundTrip)
{
    const std::regex shape("spec: (line [0-9]+|[a-z0-9_]+(\\.[a-z0-9_]+)*)"
                           ": .+");
    const std::vector<std::string> specs = exampleSpecs();
    ASSERT_GE(specs.size(), 4u);
    std::size_t accepted = 0, rejected = 0;
    for (std::size_t f = 0; f < specs.size(); ++f) {
        const json::Value doc = parsed(slurp(specs[f]));
        for (const std::string &text : mutants(doc, 500, 1000 + f)) {
            std::string err;
            const api::ExperimentSpec spec =
                api::ExperimentSpec::parse(text, &err);
            if (!err.empty()) {
                ++rejected;
                EXPECT_TRUE(std::regex_match(err, shape))
                    << err << "\n  from: " << text;
                continue;
            }
            ++accepted;
            const api::ExperimentSpec again =
                api::ExperimentSpec::parse(spec.emit(), &err);
            EXPECT_EQ(err, "") << text;
            EXPECT_EQ(again.canonicalText(), spec.canonicalText()) << text;
        }
    }
    std::printf("spec mutants: %zu accepted, %zu rejected\n", accepted,
                rejected);
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(ReaderFuzz, DiskEntryMutantsAreHitsOrMisses)
{
    const std::string root = ::testing::TempDir() + "jetty_reader_fuzz";
    std::filesystem::remove_all(root);
    const std::string key = "fuzz-key";
    experiments::DiskCache cache(root, experiments::kDefaultDiskBudgetBytes);
    const experiments::AppRunResult sample = experiments::runApp(
        trace::appByName("ff"), experiments::SystemVariant(),
        {"EJ-16x2", "IJ-8x4x7"}, 0.01);
    ASSERT_EQ(cache.publish(key, sample, {"EJ-16x2", "IJ-8x4x7"}), "");
    const std::string path =
        root + "/" + experiments::DiskCache::entryFileFor(key);
    const json::Value entry = parsed(slurp(path));

    experiments::AppRunResult result;
    std::set<std::string> covered;
    ASSERT_TRUE(cache.lookup(key, result, covered));  // the control

    std::size_t hits = 0, misses = 0;
    for (const std::string &text : mutants(entry, 600, 2000)) {
        std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
        if (!cache.lookup(key, result, covered)) {
            ++misses;
            continue;
        }
        ++hits;
        for (const auto &name : covered) {
            EXPECT_NE(std::find(result.filterNames.begin(),
                                result.filterNames.end(), name),
                      result.filterNames.end())
                << name << " covered without a row; from: " << text;
        }
    }
    std::printf("disk-entry mutants: %zu hits, %zu misses\n", hits,
                misses);
    EXPECT_GT(hits, 0u);
    EXPECT_GT(misses, 0u);
    std::filesystem::remove_all(root);
}

TEST(ReaderFuzz, RunResponseMutantsNeverAbortTheClient)
{
    const char *const answers[] = {
        R"({"jetty_response":1,"ok":true,"kind":"sweep","simulated":3,)"
        R"("disk_hits":1,"mem_hits":2,)"
        R"("report":{"jetty_report":1,"kind":"sweep","results":[]}})",
        R"({"jetty_response":1,"ok":false,"error":"spec: machine: bad"})",
    };
    std::size_t read = 0, refused = 0;
    for (std::size_t a = 0; a < std::size(answers); ++a) {
        for (const std::string &text :
             mutants(parsed(answers[a]), 400, 3000 + a)) {
            std::string err;
            const json::Value resp = json::parse(text, &err);
            if (!err.empty())
                continue;  // the client reports a parse error first
            service::RunResponse run;
            err = service::readRunResponse(resp, run);
            if (err.empty()) {
                ++read;
                ASSERT_NE(run.report, nullptr) << text;
                EXPECT_TRUE(run.report->isObject()) << text;
                continue;
            }
            ++refused;
            EXPECT_TRUE(err.rfind("response", 0) == 0 ||
                        err.rfind("server error: ", 0) == 0)
                << err << "\n  from: " << text;
        }
    }
    std::printf("run-response mutants: %zu read, %zu refused\n", read,
                refused);
    EXPECT_GT(read, 0u);
    EXPECT_GT(refused, 0u);
}
