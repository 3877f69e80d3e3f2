/**
 * @file
 * Unit tests for the util library: bit helpers, deterministic RNG,
 * statistics primitives, table formatting, string parsing, and the
 * validating JSON field reader.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/bits.hh"
#include "util/json.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "util/string_utils.hh"
#include "util/table.hh"

using namespace jetty;

TEST(Bits, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_TRUE(isPowerOfTwo(1ull << 40));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(6));
}

TEST(Bits, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(floorLog2(1ull << 63), 63u);
}

TEST(Bits, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(1025), 11u);
}

TEST(Bits, BitField)
{
    EXPECT_EQ(bitField(0xff00, 8, 8), 0xffull);
    EXPECT_EQ(bitField(0xabcd, 0, 4), 0xdull);
    EXPECT_EQ(bitField(0xabcd, 4, 4), 0xcull);
    EXPECT_EQ(bitField(~0ull, 60, 10), 0xfull);  // truncated at bit 63
    EXPECT_EQ(bitField(0xff, 0, 0), 0ull);
    EXPECT_EQ(bitField(0xff, 64, 4), 0ull);
}

TEST(Bits, MaskAndAlign)
{
    EXPECT_EQ(maskBits(0), 0ull);
    EXPECT_EQ(maskBits(8), 0xffull);
    EXPECT_EQ(maskBits(64), ~0ull);
    EXPECT_EQ(alignDown(0x1234, 0x100), 0x1200ull);
    EXPECT_EQ(alignDown(0x1200, 0x100), 0x1200ull);
}

TEST(Bits, FindEqU64FirstMatch)
{
    // Packed (tag << 1) | valid words with full 56-bit tags, so a key
    // differing only in a high bit must not match.
    const std::uint64_t top = std::uint64_t{1} << 55;
    std::vector<std::uint64_t> words;
    for (std::size_t n = 0; n <= 9; ++n) {
        words.assign(n, 0);
        for (std::size_t i = 0; i < n; ++i)
            words[i] = ((top | (i * 0x9e3779b9ull)) << 1) | 1;
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(findEqU64(words.data(), n, words[i]),
                      static_cast<int>(i))
                << "n=" << n;
            // Misses: the tag's top bit, or the valid bit, differs.
            EXPECT_EQ(findEqU64(words.data(), n, words[i] ^ (top << 1)), -1)
                << "n=" << n;
            EXPECT_EQ(findEqU64(words.data(), n, words[i] ^ 1), -1)
                << "n=" << n;
        }
        EXPECT_EQ(findEqU64(words.data(), n, ~std::uint64_t{0}), -1)
            << "n=" << n;
        if (n >= 3) {
            // A repeated key reports its lowest index.
            words[n - 1] = words[1];
            EXPECT_EQ(findEqU64(words.data(), n, words[1]), 1) << "n=" << n;
        }
    }
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool differs = false;
    Rng a2(42);
    for (int i = 0; i < 100; ++i)
        differs |= a2.next() != c.next();
    EXPECT_TRUE(differs);
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.below(37);
        EXPECT_LT(v, 37u);
    }
}

TEST(Rng, BelowCoversRange)
{
    Rng r(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(r.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(5);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, HotIndexBiased)
{
    Rng r(13);
    // With strong bias the mean index is far below uniform's n/2.
    double hot_sum = 0, uni_sum = 0;
    const std::uint64_t n = 1000;
    for (int i = 0; i < 20000; ++i) {
        hot_sum += static_cast<double>(r.hotIndex(n, 0.7));
        uni_sum += static_cast<double>(r.hotIndex(n, 0.0));
    }
    EXPECT_LT(hot_sum, uni_sum * 0.6);
}

TEST(Rng, HotIndexInRange)
{
    Rng r(17);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.hotIndex(33, 0.5), 33u);
}

TEST(Stats, Counter)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    Counter d;
    d.inc(7);
    c.merge(d);
    EXPECT_EQ(c.value(), 12u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, MedianInPlace)
{
    std::vector<double> empty;
    EXPECT_DOUBLE_EQ(medianInPlace(empty), 0.0);

    // Single sample takes the direct path: the value comes back as-is
    // and the vector is untouched.
    std::vector<double> one = {42.5};
    EXPECT_DOUBLE_EQ(medianInPlace(one), 42.5);
    EXPECT_EQ(one.size(), 1u);
    EXPECT_DOUBLE_EQ(one[0], 42.5);

    // Odd count: the middle element after sorting.
    std::vector<double> odd = {3.0, 1.0, 2.0};
    EXPECT_DOUBLE_EQ(medianInPlace(odd), 2.0);

    // Even count: the lower-middle element (no averaging).
    std::vector<double> even = {4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(medianInPlace(even), 2.0);
}

TEST(Stats, Ratios)
{
    EXPECT_DOUBLE_EQ(ratio(1, 2), 0.5);
    EXPECT_DOUBLE_EQ(ratio(1, 0), 0.0);
    EXPECT_DOUBLE_EQ(percent(1, 4), 25.0);
}

TEST(Stats, HistogramBasics)
{
    Histogram h(4);
    h.sample(0);
    h.sample(1);
    h.sample(1);
    h.sample(9);  // clamped into the last bucket
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(1), 2u);
    EXPECT_EQ(h.count(3), 1u);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.5);
}

TEST(Stats, HistogramMerge)
{
    Histogram a(3), b(3);
    a.sample(0);
    b.sample(2);
    b.sample(2);
    a.merge(b);
    EXPECT_EQ(a.total(), 3u);
    EXPECT_EQ(a.count(2), 2u);
}

TEST(Stats, HistogramReset)
{
    Histogram h(2);
    h.sample(1);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.count(1), 0u);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(TextTable::num(1.5, 1), "1.5");
    EXPECT_EQ(TextTable::pct(12.34, 1), "12.3%");
    EXPECT_EQ(TextTable::count(42), "42");
}

TEST(Table, PrintDoesNotCrash)
{
    TextTable t;
    t.header({"a", "b"});
    t.row({"1", "longer"});
    t.row({"x"});
    std::FILE *dev_null = std::fopen("/dev/null", "w");
    ASSERT_NE(dev_null, nullptr);
    t.print(dev_null);
    std::fclose(dev_null);
}

TEST(Strings, Split)
{
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
    EXPECT_EQ(split("", 'x').size(), 1u);
}

TEST(Strings, StartsWith)
{
    EXPECT_TRUE(startsWith("EJ-32x4", "EJ-"));
    EXPECT_FALSE(startsWith("EJ", "EJ-"));
}

TEST(Strings, ParseUnsigned)
{
    unsigned v = 0;
    EXPECT_TRUE(parseUnsigned("123", v));
    EXPECT_EQ(v, 123u);
    EXPECT_FALSE(parseUnsigned("", v));
    EXPECT_FALSE(parseUnsigned("12a", v));
    EXPECT_FALSE(parseUnsigned("-3", v));
    EXPECT_FALSE(parseUnsigned("99999999999", v));

    std::uint64_t w = 0;
    EXPECT_TRUE(parseUnsigned("99999999999", w));
    EXPECT_EQ(w, 99999999999ull);
    EXPECT_TRUE(parseUnsigned("18446744073709551615", w));
    EXPECT_EQ(w, ~0ull);
    EXPECT_FALSE(parseUnsigned("18446744073709551616", w));
    EXPECT_EQ(w, ~0ull);  // untouched on failure
}

TEST(Strings, ParseDouble)
{
    double d = 7;
    EXPECT_TRUE(parseDouble("0.25", d));
    EXPECT_EQ(d, 0.25);
    EXPECT_TRUE(parseDouble("-1e3", d));
    EXPECT_EQ(d, -1000.0);
    // Garbage is refused, never read as 0 the way atof() would.
    for (const char *bad : {"", "abc", "1.5x", " 1", "nan", "inf", "1e999",
                            "0x10"})
        EXPECT_FALSE(parseDouble(bad, d)) << bad;
    EXPECT_EQ(d, -1000.0);
}

TEST(Strings, TrimAndUpper)
{
    EXPECT_EQ(trim("  hi "), "hi");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(toUpper("ba"), "BA");
}

// ---- json::FieldReader ------------------------------------------------

namespace
{

json::Value
doc(const char *text)
{
    std::string err;
    json::Value v = json::parse(text, &err);
    EXPECT_EQ(err, "") << text;
    return v;
}

} // namespace

TEST(FieldReader, UnknownMembersAreNamedWithTheValidSet)
{
    const json::Value v = doc(R"({"procs": 4, "bsues": 2})");
    json::FieldReader r("machine");
    r.only(v, {"procs", "buses"});
    EXPECT_EQ(r.error(),
              "machine.bsues: unknown key (valid: procs, buses)");

    json::FieldReader known("machine");
    known.only(v, {"procs", "bsues"});
    EXPECT_TRUE(known.ok()) << known.error();

    json::FieldReader notObject("machine");
    notObject.only(doc("[1]"), {"procs"});
    EXPECT_EQ(notObject.error(), "machine: not an object");

    // With an empty path the member name alone is the dotted path.
    json::FieldReader root("");
    root.only(v, {"procs"});
    EXPECT_EQ(root.error(), "bsues: unknown key (valid: procs)");
}

TEST(FieldReader, OptionalMembersKeepTheirDefaults)
{
    const json::Value v = doc(R"({"present": 7})");
    std::uint64_t present = 1;
    std::uint64_t absent = 5;
    bool flag = true;

    json::FieldReader keep("s", json::FieldReader::Absent::Keep);
    keep.u64(v, "present", present);
    keep.u64(v, "absent", absent);
    keep.boolean(v, "flag", flag);
    EXPECT_EQ(keep.get(v, "absent"), nullptr);
    EXPECT_EQ(keep.obj(v, "absent"), nullptr);
    EXPECT_TRUE(keep.ok()) << keep.error();
    EXPECT_EQ(present, 7u);
    EXPECT_EQ(absent, 5u);
    EXPECT_TRUE(flag);

    json::FieldReader required("s");
    required.u64(v, "present", present);
    required.u64(v, "absent", absent);
    EXPECT_EQ(required.error(), "s.absent: missing field");
    EXPECT_EQ(absent, 5u);
}

TEST(FieldReader, BoundsHoldAtBothEnds)
{
    const json::Value v =
        doc(R"({"lo_1": 1, "lo": 2, "hi": 4096, "hi_1": 4097})");
    const auto read = [&v](const char *key) {
        json::FieldReader r("m");
        unsigned out = 0;
        r.u32(v, key, out, 2, 4096);
        return r.ok() ? std::to_string(out) : r.error();
    };
    EXPECT_EQ(read("lo_1"), "m.lo_1: 1 is out of range (valid: 2..4096)");
    EXPECT_EQ(read("lo"), "2");
    EXPECT_EQ(read("hi"), "4096");
    EXPECT_EQ(read("hi_1"),
              "m.hi_1: 4097 is out of range (valid: 2..4096)");

    // A bounded list checks every element, and holds at least one.
    std::vector<unsigned> list = {9};
    json::FieldReader good("s");
    good.u32Vector(doc(R"({"procs": [2, 4096]})"), "procs", list, 2, 4096);
    EXPECT_TRUE(good.ok()) << good.error();
    EXPECT_EQ(list, (std::vector<unsigned>{2, 4096}));
    json::FieldReader high("s");
    high.u32Vector(doc(R"({"procs": [4, 4097]})"), "procs", list, 2, 4096);
    EXPECT_EQ(high.error(),
              "s.procs: 4097 is out of range (valid: 2..4096)");
    json::FieldReader empty("s");
    empty.u32Vector(doc(R"({"procs": []})"), "procs", list, 2, 4096);
    EXPECT_EQ(empty.error(), "s.procs: is empty");
    EXPECT_EQ(list, (std::vector<unsigned>{2, 4096}));
}

TEST(FieldReader, NegativesAndFractionsAreNotUnsigned)
{
    const json::Value v = doc(
        R"({"neg": -1, "frac": 2.5, "big": 18446744073709551616,
            "whole": 3.0, "text": "3", "list": [1, -2]})");
    for (const char *key : {"neg", "frac", "big", "text"}) {
        json::FieldReader r("m");
        std::uint64_t out = 11;
        r.u64(v, key, out);
        EXPECT_EQ(r.error(), std::string("m.") + key + ": not a u64");
        EXPECT_EQ(out, 11u);
    }
    json::FieldReader whole("m");
    std::uint64_t out = 0;
    whole.u64(v, "whole", out);
    EXPECT_TRUE(whole.ok()) << whole.error();
    EXPECT_EQ(out, 3u);

    json::FieldReader list("m");
    std::vector<std::uint64_t> items;
    list.u64Vector(v, "list", items);
    EXPECT_EQ(list.error(), "m.list: holds a non-u64 element");
}

TEST(FieldReader, ArrayItemsAreNamedByIndex)
{
    const json::Value v = doc(R"({"filters": [{"stats": {"snoopAllocs": 1}},
                                              {"stats": {"snoopAllocs": 2}},
                                              {"stats": {"snoopAllocs": 3}},
                                              {"stats": {}}],
                                  "perBus": [{}, 7]})");
    json::FieldReader r("result");
    std::vector<std::uint64_t> allocs;
    r.items(v, "filters", [&](const json::Value &f) {
        r.nested(f, "stats", [&](const json::Value &st) {
            r.u64(st, "snoopAllocs", allocs.emplace_back());
        });
    });
    EXPECT_EQ(r.error(),
              "result.filters[3].stats.snoopAllocs: missing field");
    EXPECT_EQ(allocs, (std::vector<std::uint64_t>{1, 2, 3, 0}));

    // Past the array the path is the reader's own again.
    json::FieldReader after("result");
    std::uint64_t n = 0;
    after.items(v, "filters", [](const json::Value &) {});
    after.u64(v, "absent", n);
    EXPECT_EQ(after.error(), "result.absent: missing field");

    // An item that is not an object is named by its index, and the
    // items after a failure are not read.
    json::FieldReader bus("stats");
    std::size_t read = 0;
    bus.items(v, "perBus", [&](const json::Value &) { ++read; });
    EXPECT_EQ(bus.error(), "stats.perBus[1]: not an object");
    EXPECT_EQ(read, 1u);

    json::FieldReader root("");
    root.items(v, "missing", [](const json::Value &) {});
    EXPECT_EQ(root.error(), "missing: missing field");
}

TEST(FieldReader, TheFirstFailureWins)
{
    const json::Value v =
        doc(R"({"a": "x", "b": -1, "c": {"d": true}, "e": 1})");
    json::FieldReader r("m", json::FieldReader::Absent::Keep);
    std::uint64_t a = 0, b = 0, e = 0;
    r.u64(v, "a", a);
    r.u64(v, "b", b);
    r.only(v, {"a"});
    r.fail("z", "late");
    r.u64(v, "e", e);
    EXPECT_EQ(r.error(), "m.a: not a u64");
    EXPECT_EQ(e, 0u);  // reads after a failure are no-ops

    // A failure inside a nested object names the full dotted path.
    json::FieldReader n("m");
    bool d = false;
    n.nested(v, "c", [&](const json::Value &c) {
        n.boolean(c, "d", d);
        n.u64(c, "missing", e);
    });
    n.u64(v, "e", e);
    EXPECT_TRUE(d);
    EXPECT_EQ(n.error(), "m.c.missing: missing field");
    EXPECT_EQ(e, 0u);
}
