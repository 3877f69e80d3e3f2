/**
 * @file
 * The paper's evaluation (service/paper.hh) at smoke scale: every table
 * renders through the shared executor, and the paper's claims are
 * checked against the panels. Each claim reports its text, the paper's
 * value, the measured value, a tolerance and a status, and every status
 * is pinned here: a claim that flips fails by name.
 *
 * Tolerances: the paper's approximate figures ("~45%") get +-5 points,
 * its printed ranges half of their last digit, published data (Table 1)
 * one point of the paper's rounding, and orderings or signs none.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "experiments/experiments.hh"
#include "service/paper.hh"
#include "util/table.hh"

using namespace jetty;
namespace paper = jetty::service::paper;
using paper::Panel;

namespace
{

constexpr double kSmokeScale = 0.02;

enum class Bound
{
    Near,     //!< |measured - paper| <= tolerance
    AtLeast,  //!< measured >= paper - tolerance
    AtMost,   //!< measured <= paper + tolerance
};

/** A claim's pinned status at smoke scale. */
enum class Status
{
    Holds,
    Deviation,  //!< a recorded deviation of the reproduction
    Cold,       //!< holds at scale 0.25, not in a run this short
};

// The recorded deviations' reasons (DESIGN.md, "The paper's evaluation").
const char *const kUntuned =
    "the synthetic profiles are tuned to Tables 2 and 3 only";
const char *const kSubblocked =
    "the profiles' sharing is tuned on the subblocked machine";
const char *const kCounters =
    "counters are 16 bits here (cnt bits/entry), the paper's 14";
const char *const kBarnes =
    "the synthetic Barnes profile does not thrash VEJ's set index";
const char *const kCold =
    "holds at scale 0.25; a smoke run is dominated by cold misses";

struct Claim
{
    std::string table;
    std::string text;
    Bound bound;
    double paper;
    double tolerance;
    double measured;
    Status pinned;
    const char *why;

    bool
    holds() const
    {
        const double d = measured - paper;
        return bound == Bound::Near      ? std::fabs(d) <= tolerance
               : bound == Bound::AtLeast ? d >= -tolerance
                                         : d <= tolerance;
    }
};

using Tables = std::map<std::string, std::vector<Panel>>;

/** Every table of the catalogue at smoke scale, rendered once. */
const Tables &
tables()
{
    static const Tables kTables = [] {
        Tables t;
        for (const auto &name : paper::tableNames()) {
            const std::string err =
                paper::runTable(name, kSmokeScale, 0, t[name]);
            EXPECT_EQ(err, "") << name;
        }
        return t;
    }();
    return kTables;
}

/** The largest step of @p p's cells down each column (Figure 2). */
double
largestRise(const Panel &p)
{
    double rise = -HUGE_VAL;
    for (std::size_t r = 1; r < p.rows.size(); ++r) {
        for (std::size_t c = 1; c < p.rows[r].size(); ++c)
            rise = std::max(rise, p.rows[r][c].value - p.rows[r - 1][c].value);
    }
    return rise;
}

/** How far column @p best's AVG leads the best of the other columns. */
double
lead(const Panel &p, const std::string &best)
{
    double next = -HUGE_VAL;
    for (std::size_t c = 1; c < p.header.size(); ++c) {
        if (p.header[c] != best)
            next = std::max(next, p.at("AVG", p.header[c]));
    }
    return p.at("AVG", best) - next;
}

/** Column @p col's smallest (or, @p largest, largest) value. */
double
extreme(const Panel &p, const std::string &col, bool largest)
{
    double v = largest ? -HUGE_VAL : HUGE_VAL;
    for (const auto &row : p.rows) {
        const double x = p.at(row.front().text, col);
        v = largest ? std::max(v, x) : std::min(v, x);
    }
    return v;
}

std::vector<Claim>
claims(const Tables &t)
{
    const auto &f2 = t.at("figure2");
    const auto &f4 = t.at("figure4");
    const auto &f5 = t.at("figure5");
    const auto &f6 = t.at("figure6");
    const auto &t1 = t.at("table1")[0];
    const auto &t2 = t.at("table2")[0];
    const auto &t3 = t.at("table3")[0];
    const auto &t4 = t.at("table4")[0];
    const auto &w8 = t.at("8way")[0];
    const auto &nsb = t.at("nosubblock")[0];

    double vejWins = 0;
    for (std::size_t r = 0; r + 1 < f4[1].rows.size(); ++r) {
        const std::string &app = f4[1].rows[r][0].text;
        vejWins += f4[1].at(app, "VEJ-32x4-8") > f4[1].at(app, "EJ-32x4");
    }
    // A hybrid against its parts: IJ coverage from Figure 5(a), EJ
    // coverage from Figure 4(a), the same cells.
    double margin = HUGE_VAL;
    const char *ij[] = {"IJ-10x4x7", "IJ-9x4x7", "IJ-8x4x7"};
    const char *ej[] = {"EJ-32x4", "EJ-16x2"};
    for (std::size_t r = 0; r < f5[1].rows.size(); ++r) {
        const std::string &app = f5[1].rows[r][0].text;
        for (std::size_t h = 0; h < 6; ++h) {
            const double parts = std::max(f5[0].at(app, ij[h % 3]),
                                          f4[0].at(app, ej[h / 3]));
            margin = std::min(margin,
                              f5[1].at(app, f5[1].header[h + 1]) - parts);
        }
    }
    const auto f6avg = [&f6](int panel) {
        return f6[panel].at("AVG", "(Ia,Ea)");
    };
    const auto &a1 = t.at("ablation_index")[0];
    double overlapped = -HUGE_VAL;
    for (int s : {4, 5, 6, 7, 8})
        overlapped =
            std::max(overlapped, a1.at("AVG", "IJ-10x4x" + std::to_string(s)));
    const auto &a2 = t.at("ablation_sizes")[0];
    const std::string saved = a2.header.back();
    const std::string nb = "32B, whole-block";

    using B = Bound;
    using S = Status;
    std::vector<Claim> out = {
        {"figure2", "32B lines: snoop-miss tag energy at L=0.5, R=0.1 (%)",
         B::Near, 33, 5, f2[0].at("0.5", "R=10%"), S::Holds, ""},
        {"figure2", "64B sits below 32B at L=0.5, R=0.1 (64B - 32B, points)",
         B::AtMost, 0, 0, f2[1].at("0.5", "R=10%") - f2[0].at("0.5", "R=10%"),
         S::Holds, ""},
        {"figure2", "curves fall as the local hit rate rises (largest rise)",
         B::AtMost, 0, 0, std::max(largestRise(f2[0]), largestRise(f2[1])),
         S::Holds, ""},
        {"figure4", "EJ-32x4 average coverage (%)", B::Near, 45, 5,
         f4[0].at("AVG", "EJ-32x4"), S::Deviation, kUntuned},
        {"figure4", "EJ-32x4 is the best EJ (lead over the next, points)",
         B::AtLeast, 0, 0, lead(f4[0], "EJ-32x4"), S::Holds, ""},
        {"figure4", "VEJ-32x4-8 beats EJ-32x4 on most apps (apps of 10)",
         B::AtLeast, 6, 0, vejWins, S::Holds, ""},
        {"figure4", "VEJ-32x4-8 loses to EJ-32x4 on Barnes (VEJ - EJ)",
         B::AtMost, 0, 0, f4[1].at("ba", "VEJ-32x4-8") - f4[1].at("ba", "EJ-32x4"),
         S::Deviation, kBarnes},
        {"figure5", "IJ-10x4x7 average coverage (%)", B::Near, 57, 5,
         f5[0].at("AVG", "IJ-10x4x7"), S::Deviation, kUntuned},
        {"figure5", "IJ-10x4x7 is the best IJ (lead over the next, points)",
         B::AtLeast, 0, 0, lead(f5[0], "IJ-10x4x7"), S::Holds, ""},
        {"figure5", "HJ(IJ-10x4x7,EJ-32x4) average coverage (%)", B::Near, 76,
         5, f5[1].at("AVG", "(Ia,Ea)"), S::Deviation, kUntuned},
        {"figure5", "HJ(IJ-8x4x7,EJ-16x2) average coverage (%)", B::Near, 65,
         5, f5[1].at("AVG", "(Ic,Eb)"), S::Cold, kCold},
        {"figure5", "a hybrid covers at least both parts (least margin)",
         B::AtLeast, 0, 0, margin, S::Holds, ""},
        {"figure6", "(Ia,Ea) saves over snoops, serial (%)", B::Near, 56, 5,
         f6avg(0), S::Deviation, kUntuned},
        {"figure6", "(Ia,Ea) saves over all L2 accesses, serial (%)", B::Near,
         30, 5, f6avg(1), S::Deviation, kUntuned},
        {"figure6", "(Ia,Ea) saves over snoops, parallel (%)", B::Near, 63, 5,
         f6avg(2), S::Deviation, kUntuned},
        {"figure6", "(Ia,Ea) saves over all L2 accesses, parallel (%)",
         B::Near, 41, 5, f6avg(3), S::Deviation, kUntuned},
        {"figure6", "parallel tag/data saves more than serial ((c) - (a))",
         B::AtLeast, 0, 0, f6avg(2) - f6avg(0), S::Holds, ""},
        {"table2", "lowest L1 hit rate (%)", B::AtLeast, 76.5, 0.05,
         extreme(t2, "L1 hit", false), S::Holds, ""},
        {"table2", "highest L1 hit rate (%)", B::AtMost, 99.6, 0.05,
         extreme(t2, "L1 hit", true), S::Holds, ""},
        {"table2", "lowest L2 local hit rate (%)", B::AtLeast, 23.3, 0.05,
         extreme(t2, "L2 hit", false), S::Cold, kCold},
        {"table2", "highest L2 local hit rate (%)", B::AtMost, 82.5, 0.05,
         extreme(t2, "L2 hit", true), S::Holds, ""},
        {"table3", "snoops finding no remote copy, average (%)", B::Near,
         79.6, 5, t3.at("AVERAGE", "0"), S::Cold, kCold},
        {"table3", "Unstructured: snoops finding no remote copy (%)", B::Near,
         33, 5, t3.at("Unstructured", "0"), S::Cold, kCold},
        {"table3", "snoop-induced tag accesses that miss, average (%)",
         B::Near, 91, 5, t3.at("AVERAGE", "miss%ofSnoops"), S::Cold, kCold},
        {"table3", "snoop misses among all L2 accesses, average (%)", B::Near,
         55, 5, t3.at("AVERAGE", "miss%ofAllL2"), S::Cold, kCold},
        {"table4", "IJ-10x4x7 presence bits (4 arrays of 32x32)", B::Near,
         4096, 0, t4.at("IJ-10x4x7", "p-bits"), S::Holds, ""},
        {"table4", "IJ-10x4x7 total storage (bytes)", B::Near, 7168,
         0.05 * 7168, t4.at("IJ-10x4x7", "total bytes"), S::Deviation,
         kCounters},
        {"8way", "4-way: snoop misses among all L2 accesses (%)", B::Near,
         54.5, 5, w8.at("4", "snoopMiss % of all L2"), S::Cold, kCold},
        {"8way", "8-way: snoop misses among all L2 accesses (%)", B::Near,
         76.4, 5, w8.at("8", "snoopMiss % of all L2"), S::Cold, kCold},
        {"8way", "8-way: best HJ average coverage (%)", B::Near, 79, 5,
         w8.at("8", "HJ coverage"), S::Deviation, kUntuned},
        {"8way", "8 ways raise the best HJ's coverage (points)", B::AtLeast,
         0, 0, w8.at("8", "HJ coverage") - w8.at("4", "HJ coverage"),
         S::Holds, ""},
        {"nosubblock", "whole-block: snoop tag accesses that miss (%)",
         B::Near, 68, 5, nsb.at(nb, "snoopMiss % of snoops"), S::Deviation,
         kSubblocked},
        {"nosubblock", "whole-block: snoop misses among all L2 (%)", B::Near,
         46, 5, nsb.at(nb, "snoopMiss % of all L2"), S::Deviation,
         kSubblocked},
        {"nosubblock", "whole-block: best HJ average coverage (%)", B::Near,
         68, 5, nsb.at(nb, "HJ coverage"), S::Deviation, kUntuned},
        {"nosubblock", "subblocking raises the best HJ's coverage (points)",
         B::AtLeast, 0, 0,
         nsb.at("64B, 2 subblocks", "HJ coverage") - nsb.at(nb, "HJ coverage"),
         S::Holds, ""},
        {"latency", "mean snoop response with JETTY, average change (%)",
         B::AtMost, 0, 0, t.at("latency")[0].at("AVG", "mean change"),
         S::Holds, ""},
        {"ablation_index", "partial overlap beats none (best S<10 - S=10)",
         B::AtLeast, 0, 0, overlapped - a1.at("AVG", "IJ-10x4x10"), S::Holds,
         ""},
        {"ablation_sizes", "Raytrace: (IJ-8x4x7,EJ-16x2) saves more than "
                           "(IJ-10x4x7,EJ-32x4)",
         B::AtLeast, 0, 0,
         a2.at("HJ(IJ-8x4x7,EJ-16x2)", saved) -
             a2.at("HJ(IJ-10x4x7,EJ-32x4)", saved),
         S::Holds, ""},
    };
    // Table 1 is published data: the paper's rounding, one point.
    const double shares[3][2] = {{14, 16}, {23, 28}, {34, 43}};
    for (int i = 0; i < 3; ++i) {
        const std::string size = t1.rows[i][0].text;
        out.push_back({"table1", size + " L2: share of peak power (%)",
                       B::Near, shares[i][0], 1, t1.at(size, "L2 %"),
                       S::Holds, ""});
        out.push_back({"table1", size + " L2: share without pads (%)",
                       B::Near, shares[i][1], 1, t1.at(size, "L2 w/o pads %"),
                       S::Holds, ""});
    }
    return out;
}

} // namespace

TEST(Paper, EveryTableRenders)
{
    for (const auto &[name, panels] : tables()) {
        SCOPED_TRACE(name);
        ASSERT_FALSE(panels.empty());
        for (const auto &p : panels) {
            EXPECT_FALSE(p.title.empty());
            EXPECT_FALSE(p.rows.empty());
            for (const auto &row : p.rows)
                EXPECT_EQ(row.size(), p.header.size()) << p.title;
        }
    }
}

TEST(Paper, EveryClaimStatusIsPinned)
{
    const auto all = claims(tables());
    TextTable report;
    report.header({"table", "claim", "paper", "measured", "tolerance",
                   "status"});
    static const char *const kRelation[] = {"~", ">= ", "<= "};
    for (const Claim &c : all) {
        const char *status = c.holds()                  ? "holds"
                             : c.pinned == Status::Cold ? "cold at smoke"
                                                        : "known deviation";
        report.row({c.table, c.text,
                    kRelation[static_cast<int>(c.bound)] +
                        TextTable::num(c.paper, 1),
                    TextTable::num(c.measured, 2),
                    TextTable::num(c.tolerance, 2), status});
        EXPECT_EQ(c.holds(), c.pinned == Status::Holds)
            << c.table << ": " << c.text << ": measured " << c.measured
            << " against " << c.paper << " +- " << c.tolerance
            << " was pinned as "
            << (c.pinned == Status::Holds ? std::string("holding")
                                          : std::string("not holding: ") +
                                                c.why);
    }
    report.print();
    EXPECT_EQ(all.size(), 44u);
}

TEST(Paper, SpecsAreSweepsOfTheSharedExecutor)
{
    std::vector<api::ExperimentSpec> specs;
    ASSERT_EQ(paper::tableSpecs("figure4", 0.25, specs), "");
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].apps.size(), 10u);
    EXPECT_EQ(specs[0].filters.size(), 10u);
    EXPECT_EQ(specs[0].scale, 0.25);
    EXPECT_EQ(specs[0].sweepProcs, std::vector<unsigned>{4});

    // 8-way issues twice the references: the table runs at half scale.
    ASSERT_EQ(paper::tableSpecs("8way", 0.25, specs), "");
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].scale, 0.125);
    EXPECT_EQ(specs[0].sweepProcs, (std::vector<unsigned>{4, 8}));

    // subblocked is not a sweep axis: one spec per machine.
    ASSERT_EQ(paper::tableSpecs("nosubblock", 0.25, specs), "");
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_TRUE(specs[0].machine.subblocked);
    EXPECT_FALSE(specs[1].machine.subblocked);

    for (const char *analytical : {"figure2", "table1", "table4"}) {
        ASSERT_EQ(paper::tableSpecs(analytical, 0.25, specs), "");
        EXPECT_TRUE(specs.empty()) << analytical;
    }
}

TEST(Paper, UnknownTableNamesTheValidSet)
{
    std::vector<api::ExperimentSpec> specs;
    const std::string err = paper::tableSpecs("figure3", 1.0, specs);
    EXPECT_NE(err.find("unknown table 'figure3'"), std::string::npos) << err;
    EXPECT_NE(err.find("figure2, figure4"), std::string::npos) << err;
    std::vector<Panel> panels;
    EXPECT_EQ(paper::runTable("figure3", 1.0, 0, panels), err);
}

TEST(Paper, TablesShareCellsThroughTheRunCache)
{
    tables();
    auto &cache = experiments::RunCache::instance();
    const std::uint64_t sims = cache.simulations();
    std::vector<Panel> again;
    ASSERT_EQ(paper::runTable("table3", kSmokeScale, 0, again), "");
    EXPECT_EQ(cache.simulations(), sims);
    EXPECT_EQ(again[0].rows.size(), 11u);  // ten apps and the average
}
