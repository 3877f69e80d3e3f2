/**
 * @file
 * The declarative API layer: util/json writer/parser round trips,
 * ExperimentSpec parse/emit identity, unknown-key / version-mismatch /
 * range rejection with descriptive messages, canonicalization stability
 * (reordered keys -> the same RunCache key), Report schema goldens, and
 * the machine <-> SmpConfig mapping.
 *
 * The golden fixtures live in tests/golden/ (JETTY_SOURCE_DIR is
 * injected by the build): emitted bytes are compared against checked-in
 * files, so any schema or formatting drift fails CI until the goldens
 * are deliberately regenerated.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "api/experiment_spec.hh"
#include "api/report.hh"
#include "util/json.hh"
#include "util/random.hh"

using namespace jetty;
using api::ExperimentSpec;

namespace
{

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return "";
    std::string text;
    char buf[4096];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, got);
    std::fclose(f);
    return text;
}

std::string
goldenPath(const std::string &name)
{
    return std::string(JETTY_SOURCE_DIR) + "/tests/golden/" + name;
}

} // namespace

// ---- util/json -------------------------------------------------------

TEST(Json, ScalarRoundTrips)
{
    std::string err;
    const json::Value v = json::parse(
        "{\"i\": -3, \"u\": 18446744073709551615, \"d\": 0.25, "
        "\"s\": \"hi\", \"b\": true, \"n\": null, \"a\": [1, 2]}",
        &err);
    ASSERT_EQ(err, "");
    EXPECT_EQ(v.find("i")->asI64(), -3);
    EXPECT_EQ(v.find("u")->asU64(), 18446744073709551615ULL);
    EXPECT_EQ(v.find("d")->asDouble(), 0.25);
    EXPECT_EQ(v.find("s")->asString(), "hi");
    EXPECT_TRUE(v.find("b")->asBool());
    EXPECT_TRUE(v.find("n")->isNull());
    EXPECT_EQ(v.find("a")->items().size(), 2u);

    // parse(dump()) is the identity (canonical and pretty agree on
    // content, differ only in layout).
    const json::Value again = json::parse(v.dump(), &err);
    ASSERT_EQ(err, "");
    EXPECT_EQ(again.dumpCanonical(), v.dumpCanonical());
}

TEST(Json, StringEscapingRoundTrips)
{
    // The fix the shared writer brings over the fprintf emitters: every
    // hostile character survives a write/parse cycle.
    const std::string hostile =
        "quote\" backslash\\ newline\n tab\t ctrl\x01 done";
    json::Value v = json::Value::object();
    v.set("s", hostile);
    std::string err;
    const json::Value back = json::parse(v.dump(), &err);
    ASSERT_EQ(err, "");
    EXPECT_EQ(back.find("s")->asString(), hostile);
    // And \u escapes decode (including a surrogate pair).
    const json::Value uni =
        json::parse("\"a\\u00e9b\\ud83d\\ude00c\"", &err);
    ASSERT_EQ(err, "");
    EXPECT_EQ(uni.asString(), "a\xc3\xa9"
                              "b\xf0\x9f\x98\x80"
                              "c");
}

namespace
{

/** The reference json::formatDouble must reproduce byte for byte: the
 *  shortest "%.*g" precision that strtod() parses back exactly. */
std::string
referenceFormatDouble(double v)
{
    char buf[40];
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

} // namespace

TEST(Json, DoubleFormattingIsShortestExact)
{
    EXPECT_EQ(json::formatDouble(0.25), "0.25");
    EXPECT_EQ(json::formatDouble(1.0), "1");
    const double awkward = 0.1 + 0.2;  // 0.30000000000000004
    const std::string s = json::formatDouble(awkward);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), awkward);

    // Edge values, every power of two (where the rounding interval is
    // asymmetric), then a seeded sample of finite bit patterns, scaled
    // uniforms and integers: the emitted bytes — and so every cache key
    // and report — must not change.
    std::vector<double> values = {0.0,      -0.0,     100.0,   1e21,
                                  1e-7,     DBL_MAX,  -DBL_MAX, DBL_MIN,
                                  -DBL_MIN, DBL_TRUE_MIN};
    for (int e = -1074; e <= 1023; ++e) {
        values.push_back(std::ldexp(1.0, e));
        values.push_back(std::nextafter(std::ldexp(1.0, e), 0.0));
    }
    Rng rng(20261017);
    while (values.size() < 150000) {
        const std::uint64_t bits = rng.next();
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        if (std::isfinite(d))
            values.push_back(d);
        values.push_back(rng.uniform() *
                         std::pow(10.0, static_cast<int>(rng.below(40)) -
                                            20));
        values.push_back(static_cast<double>(
            static_cast<std::int64_t>(rng.next()) >> rng.below(64)));
    }
    std::size_t mismatches = 0;
    for (const double v : values) {
        const std::string got = json::formatDouble(v);
        const std::string want = referenceFormatDouble(v);
        if (got != want && ++mismatches <= 5)
            ADD_FAILURE() << std::hexfloat << v << ": " << got << " vs "
                          << want;
    }
    EXPECT_EQ(mismatches, 0u) << "of " << values.size();
}

TEST(Json, CanonicalFormSortsKeysAndStripsWhitespace)
{
    std::string err;
    const json::Value a = json::parse(
        "{\"zeta\": 1, \"alpha\": {\"b\": 2, \"a\": [3]}}", &err);
    ASSERT_EQ(err, "");
    const json::Value b = json::parse(
        "{ \"alpha\" : { \"a\":[3], \"b\": 2 }, \"zeta\": 1 }", &err);
    ASSERT_EQ(err, "");
    EXPECT_EQ(a.dumpCanonical(), b.dumpCanonical());
    EXPECT_EQ(a.dumpCanonical(),
              "{\"alpha\":{\"a\":[3],\"b\":2},\"zeta\":1}");
}

TEST(Json, ErrorsNameTheLineAndProblem)
{
    std::string err;
    json::parse("{\n  \"a\": 1,\n  \"a\": 2\n}", &err);
    EXPECT_NE(err.find("line 3"), std::string::npos) << err;
    EXPECT_NE(err.find("duplicate object key \"a\""), std::string::npos)
        << err;

    json::parse("{\"a\": 1} trailing", &err);
    EXPECT_NE(err.find("trailing"), std::string::npos) << err;

    json::parse("{\"a\": 01x}", &err);
    EXPECT_FALSE(err.empty());
}

// ---- ExperimentSpec: round trips -------------------------------------

TEST(Spec, ParseEmitParseIsTheIdentity)
{
    const std::string text = readFile(
        std::string(JETTY_SOURCE_DIR) + "/examples/quickstart.spec.json");
    ASSERT_FALSE(text.empty());

    std::string err;
    const ExperimentSpec one = ExperimentSpec::parse(text, &err);
    ASSERT_EQ(err, "") << err;
    const std::string emitted = one.emit();
    const ExperimentSpec two = ExperimentSpec::parse(emitted, &err);
    ASSERT_EQ(err, "") << err;
    // Bit-equal re-emission: the schema has one normal form.
    EXPECT_EQ(two.emit(), emitted);
    EXPECT_EQ(two.canonicalText(), one.canonicalText());
}

TEST(Spec, FuzzGeometrySpecRoundTrips)
{
    const std::string text = readFile(
        std::string(JETTY_SOURCE_DIR) + "/examples/fuzz_smoke.spec.json");
    ASSERT_FALSE(text.empty());
    std::string err;
    const ExperimentSpec spec = ExperimentSpec::parse(text, &err);
    ASSERT_EQ(err, "") << err;
    EXPECT_TRUE(spec.machine.hasGeometry);
    EXPECT_EQ(spec.machine.l1.sizeBytes, 1024u);
    EXPECT_EQ(spec.machine.l2.subblocks, 2u);
    EXPECT_TRUE(spec.hasFuzz);
    EXPECT_EQ(spec.fuzz.seed, 12345u);
    EXPECT_FALSE(spec.fuzz.randomizeBuses);

    const ExperimentSpec again = ExperimentSpec::parse(spec.emit(), &err);
    ASSERT_EQ(err, "") << err;
    EXPECT_EQ(again.emit(), spec.emit());

    // machine -> SmpConfig -> machine is lossless.
    const sim::SmpConfig cfg = spec.smpConfig();
    EXPECT_EQ(cfg.l1.sizeBytes, 1024u);
    EXPECT_EQ(cfg.l2.sizeBytes, 8192u);
    EXPECT_EQ(cfg.wbEntries, 4u);
    EXPECT_EQ(cfg.snoopBuses, 2u);
    const api::MachineSpec back = api::MachineSpec::fromSmpConfig(cfg);
    ExperimentSpec echo;
    echo.machine = back;
    ExperimentSpec reparsed = ExperimentSpec::parse(echo.emit(), &err);
    ASSERT_EQ(err, "") << err;
    EXPECT_EQ(reparsed.machine.l1.sizeBytes, spec.machine.l1.sizeBytes);
    EXPECT_EQ(reparsed.machine.l2.blockBytes,
              spec.machine.l2.blockBytes);
    EXPECT_EQ(reparsed.machine.wbEntries, spec.machine.wbEntries);
}

// ---- ExperimentSpec: rejection with descriptive messages -------------

TEST(Spec, UnknownKeysAreNamedWithTheValidSet)
{
    std::string err;
    ExperimentSpec::parse(
        "{\"jetty_spec\": 1, \"machine\": {\"procss\": 4}}", &err);
    EXPECT_NE(err.find("machine.procss"), std::string::npos) << err;
    EXPECT_NE(err.find("valid:"), std::string::npos) << err;
    EXPECT_NE(err.find("procs"), std::string::npos) << err;

    ExperimentSpec::parse("{\"jetty_spec\": 1, \"machien\": {}}", &err);
    EXPECT_NE(err.find("machien"), std::string::npos) << err;
    EXPECT_NE(err.find("valid:"), std::string::npos) << err;
}

TEST(Spec, VersionMismatchIsRejected)
{
    std::string err;
    ExperimentSpec::parse("{\"jetty_spec\": 2}", &err);
    EXPECT_NE(err.find("unsupported version"), std::string::npos) << err;
    EXPECT_NE(err.find("reads version 1"), std::string::npos) << err;

    ExperimentSpec::parse("{\"machine\": {}}", &err);
    EXPECT_NE(err.find("jetty_spec"), std::string::npos) << err;
    EXPECT_NE(err.find("missing"), std::string::npos) << err;
}

TEST(Spec, RangeViolationsAreRejectedDescriptively)
{
    std::string err;
    ExperimentSpec::parse(
        "{\"jetty_spec\": 1, \"machine\": {\"buses\": 0}}", &err);
    EXPECT_NE(err.find("machine.buses"), std::string::npos) << err;
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;

    ExperimentSpec::parse(
        "{\"jetty_spec\": 1, \"workload\": {\"scale\": -0.5}}", &err);
    EXPECT_NE(err.find("workload.scale"), std::string::npos) << err;

    ExperimentSpec::parse(
        "{\"jetty_spec\": 1, \"sweep\": {\"procs\": [4, 1]}}", &err);
    EXPECT_NE(err.find("sweep.procs"), std::string::npos) << err;
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;

    // A one-processor "SMP" fails at parse, not in SmpSystem.
    ExperimentSpec::parse(
        "{\"jetty_spec\": 1, \"machine\": {\"procs\": 1}}", &err);
    EXPECT_NE(err.find("machine.procs"), std::string::npos) << err;
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;

    // Both workload kinds at once would silently drop the apps half.
    ExperimentSpec::parse(
        "{\"jetty_spec\": 1, \"workload\": {\"apps\": [\"lu\"], "
        "\"trace_files\": [\"t.jtt\"]}}",
        &err);
    EXPECT_NE(err.find("mutually exclusive"), std::string::npos) << err;

    // Half a geometry is no geometry.
    ExperimentSpec::parse(
        "{\"jetty_spec\": 1, \"machine\": {\"l1\": {\"size_bytes\": 1024, "
        "\"assoc\": 1, \"block_bytes\": 32}}}",
        &err);
    EXPECT_NE(err.find("both l1 and l2"), std::string::npos) << err;
}

TEST(Spec, FilterAndAppTyposFailThroughTheRegistries)
{
    std::string err;
    ExperimentSpec::parse(
        "{\"jetty_spec\": 1, \"filters\": [\"BOGUS-1\"]}", &err);
    EXPECT_NE(err.find("unknown filter family"), std::string::npos) << err;

    ExperimentSpec::parse(
        "{\"jetty_spec\": 1, \"workload\": {\"apps\": [\"nosuch\"]}}",
        &err);
    EXPECT_NE(err.find("unknown application 'nosuch'"), std::string::npos)
        << err;
}

// ---- Canonicalization is the RunCache key ----------------------------

TEST(Spec, ReorderedKeysCanonicalizeIdentically)
{
    std::string err;
    const ExperimentSpec a = ExperimentSpec::parse(
        "{\"jetty_spec\": 1,\n"
        " \"machine\": {\"procs\": 4, \"buses\": 2, \"subblocked\": true},\n"
        " \"workload\": {\"apps\": [\"lu\"], \"scale\": 0.25},\n"
        " \"filters\": [\"EJ-32x4\"]}",
        &err);
    ASSERT_EQ(err, "") << err;
    const ExperimentSpec b = ExperimentSpec::parse(
        "{\"filters\": [\"EJ-32x4\"],\n"
        " \"workload\": {\"scale\": 0.25, \"apps\": [\"lu\"]},\n"
        " \"machine\": {\"subblocked\": true, \"buses\": 2, \"procs\": 4},\n"
        " \"jetty_spec\": 1}",
        &err);
    ASSERT_EQ(err, "") << err;
    EXPECT_EQ(a.canonicalText(), b.canonicalText());

    // ... and therefore the expanded requests key the RunCache
    // identically: same cell, same canonical key, one simulation.
    const auto ra = a.expand();
    const auto rb = b.expand();
    ASSERT_EQ(ra.size(), 1u);
    ASSERT_EQ(rb.size(), 1u);
    EXPECT_EQ(experiments::runCacheKey(ra[0], a.scale),
              experiments::runCacheKey(rb[0], b.scale));
}

TEST(Spec, RunCacheKeySeparatesWhatMustBeSeparate)
{
    std::string err;
    const ExperimentSpec base = ExperimentSpec::parse(
        "{\"jetty_spec\": 1, \"workload\": {\"apps\": [\"lu\"], "
        "\"scale\": 0.25}}",
        &err);
    ASSERT_EQ(err, "") << err;
    const auto req = base.expand().at(0);

    // Scale splits profile-backed keys.
    EXPECT_NE(experiments::runCacheKey(req, 0.25), experiments::runCacheKey(req, 0.5));

    // A different variant splits keys.
    auto other = req;
    other.variant.snoopBuses = 4;
    EXPECT_NE(experiments::runCacheKey(req, 0.25),
              experiments::runCacheKey(other, 0.25));

    // A different app splits keys (content fingerprint, not name).
    ExperimentSpec fm = base;
    fm.apps = {"fm"};
    EXPECT_NE(experiments::runCacheKey(fm.expand().at(0), 0.25),
              experiments::runCacheKey(req, 0.25));

    // Filters deliberately do NOT join the key: the bank is a passive
    // observer, so a superset simulation answers any subset request.
    auto filtered = req;
    filtered.filterSpecs = {"EJ-32x4"};
    EXPECT_EQ(experiments::runCacheKey(req, 0.25),
              experiments::runCacheKey(filtered, 0.25));
}

// ---- expansion -------------------------------------------------------

TEST(Spec, ExpandIsTheSweepCrossProduct)
{
    std::string err;
    const ExperimentSpec spec = ExperimentSpec::parse(
        "{\"jetty_spec\": 1,\n"
        " \"workload\": {\"apps\": [\"lu\", \"fm\"], \"scale\": 0.01},\n"
        " \"sweep\": {\"procs\": [4, 8], \"buses\": [1, 2]}}",
        &err);
    ASSERT_EQ(err, "") << err;
    const auto requests = spec.expand();
    ASSERT_EQ(requests.size(), 8u);  // 2 apps x 2 procs x 2 buses
    // Axis order: procs-major, then buses, then apps (the CLI's table
    // order).
    EXPECT_EQ(requests[0].variant.nprocs, 4u);
    EXPECT_EQ(requests[0].variant.snoopBuses, 1u);
    EXPECT_EQ(requests[0].app.abbrev, "lu");
    EXPECT_EQ(requests[1].app.abbrev, "fm");
    EXPECT_EQ(requests[2].variant.snoopBuses, 2u);
    EXPECT_EQ(requests[4].variant.nprocs, 8u);
    for (const auto &req : requests)
        EXPECT_EQ(req.accessScale, 0.01);
}

// ---- Report schema golden --------------------------------------------

TEST(Report, HostIsaProvenanceIsPaired)
{
    // simd_isa/simd_width name the host's vector ISA and its 64-bit lane
    // count; perfbench digests hash both, so the pairing is fixed.
    const api::Report report("provenance");
    const json::Value *isa = report.root().find("simd_isa");
    const json::Value *width = report.root().find("simd_width");
    ASSERT_NE(isa, nullptr);
    ASSERT_NE(width, nullptr);
    const std::string name = isa->asString();
    const std::uint64_t lanes = width->asU64();
    if (name == "avx2")
        EXPECT_EQ(lanes, 4u);
    else if (name == "sse2" || name == "neon")
        EXPECT_EQ(lanes, 2u);
    else {
        EXPECT_EQ(name, "scalar");
        EXPECT_EQ(lanes, 1u);
    }
}

TEST(Report, GoldenFixturePinsTheSchema)
{
    // A fully deterministic report: fixed spec, fixed stats. Emitted
    // bytes must match the checked-in golden; regenerate it consciously
    // (see tests/golden/README) when the schema changes.
    std::string err;
    const ExperimentSpec spec = ExperimentSpec::parse(
        readFile(std::string(JETTY_SOURCE_DIR) +
                 "/examples/quickstart.spec.json"),
        &err);
    ASSERT_EQ(err, "") << err;

    sim::SimStats stats(2, 2);
    stats.procs[0].accesses = 100;
    stats.procs[0].reads = 60;
    stats.procs[0].writes = 40;
    stats.procs[0].l1Hits = 90;
    stats.procs[0].l1Misses = 10;
    stats.procs[1].accesses = 100;
    stats.procs[1].snoopTagProbes = 7;
    stats.procs[1].snoopMisses = 5;
    stats.snoopTransactions = 7;
    stats.perBus[0].transactions = 4;
    stats.perBus[0].reads = 4;
    stats.perBus[1].transactions = 3;
    stats.perBus[1].upgrades = 3;
    stats.busSnoopTagProbes = {4, 3};

    api::Report report("golden");
    // The envelope's ISA provenance is resolved from the running host;
    // pin it so the golden bytes stay machine-independent
    // (set() replaces in place, keeping the envelope field order).
    report.root().set("simd_isa", "scalar");
    report.root().set("simd_width", 1);
    report.echoSpec(spec);
    report.root().set("arch", api::Report::archNode(stats));
    report.root().set("per_bus", api::Report::perBusNode(stats));
    report.root().set("timing",
                      api::Report::timingNode(200, 0.5, false));
    report.root().set("short_run",
                      api::Report::timingNode(10, 0.0, true));

    const std::string golden = readFile(goldenPath("report_fixture.json"));
    ASSERT_FALSE(golden.empty())
        << "missing golden: " << goldenPath("report_fixture.json");
    EXPECT_EQ(report.emit(), golden)
        << "Report schema drifted; regenerate tests/golden/"
           "report_fixture.json deliberately if this is intended";
}

TEST(Spec, GoldenCanonicalFormIsStable)
{
    // The canonical serialization IS the RunCache key, so its exact
    // bytes are a compatibility surface; pin them.
    std::string err;
    const ExperimentSpec spec = ExperimentSpec::parse(
        readFile(std::string(JETTY_SOURCE_DIR) +
                 "/examples/quickstart.spec.json"),
        &err);
    ASSERT_EQ(err, "") << err;
    const std::string golden =
        readFile(goldenPath("quickstart.canonical.json"));
    ASSERT_FALSE(golden.empty())
        << "missing golden: " << goldenPath("quickstart.canonical.json");
    // The golden file has a trailing newline (editors insist); the
    // canonical form itself has none.
    EXPECT_EQ(spec.canonicalText() + "\n", golden)
        << "canonical spec form drifted; RunCache keys would change";
}
