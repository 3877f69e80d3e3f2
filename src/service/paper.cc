#include "service/paper.hh"

#include <algorithm>
#include <functional>

#include "core/filter_spec.hh"
#include "core/include_jetty.hh"
#include "energy/analytical.hh"
#include "energy/xeon_power.hh"
#include "service/executor.hh"
#include "sim/latency.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace jetty::service::paper
{

namespace
{

using experiments::AppRunResult;
using Cells = std::vector<ExecuteResult>;
using Names = std::vector<std::string>;
using Panels = std::vector<Panel>;

const std::string kBest = "HJ(IJ-10x4x7,EJ-32x4)";

/** Figure 5(b)/6's labels for paperHybridSpecs(), in its order. */
const Names kHybridLabels{"(Ia,Ea)", "(Ib,Ea)", "(Ic,Ea)",
                          "(Ia,Eb)", "(Ib,Eb)", "(Ic,Eb)"};
const std::string kHybridKey =
    "Ia=IJ-10x4x7 Ib=IJ-9x4x7 Ic=IJ-8x4x7 Ea=EJ-32x4 Eb=EJ-16x2";

Cell
pct(double v, int prec = 1)
{
    return Cell(TextTable::pct(v, prec), v);
}

Cell
num(double v, int prec)
{
    return Cell(TextTable::num(v, prec), v);
}

Names
concat(Names a, const Names &b)
{
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

/** The paper's base L2 (1 MB, 4-way, no subblocks) at @p blockBytes. */
energy::CacheGeometry
baseL2(unsigned blockBytes)
{
    energy::CacheGeometry geom;
    geom.sizeBytes = 1024 * 1024;
    geom.assoc = 4;
    geom.blockBytes = blockBytes;
    geom.subblocks = 1;
    geom.physAddrBits = 36;
    return geom;
}

/** One row per application and one column per label, plus the AVG
 *  row: the panel of Figures 4-6 and the ablations. */
Panel
perApp(std::string title, const ExecuteResult &cells, const Names &labels,
       const std::function<double(const AppRunResult &, std::size_t)> &value)
{
    Panel p{std::move(title), concat({"App"}, labels), {}, ""};
    std::vector<double> avg(labels.size(), 0.0);
    for (const auto &run : cells.runs) {
        std::vector<Cell> row{run.abbrev};
        for (std::size_t i = 0; i < labels.size(); ++i) {
            row.push_back(pct(value(run, i)));
            avg[i] += row.back().value;
        }
        p.rows.push_back(std::move(row));
    }
    std::vector<Cell> row{"AVG"};
    for (const double a : avg)
        row.push_back(pct(a / static_cast<double>(cells.runs.size())));
    p.rows.push_back(std::move(row));
    return p;
}

/** perApp() of the coverage of @p specs, headed by @p labels (the
 *  specs themselves when empty). */
Panel
coverage(std::string title, const ExecuteResult &cells, const Names &specs,
         const Names &labels = {})
{
    return perApp(std::move(title), cells, labels.empty() ? specs : labels,
                  [&specs](const AppRunResult &run, std::size_t i) {
                      return 100.0 * run.statsFor(specs[i]).coverage();
                  });
}

// ---- the views ---------------------------------------------------------

Panels
figure2(const Cells &)
{
    Panels out;
    for (unsigned block : {32u, 64u}) {
        const auto model =
            energy::AnalyticalSnoopModel::forCache(baseL2(block), 4);
        Panel p{"Figure 2 (" + std::to_string(block) +
                    "B lines): snoop-miss tag energy as % of all L2 energy",
                {"local L"}, {}, ""};
        for (int r = 0; r <= 90; r += 10)
            p.header.push_back("R=" + std::to_string(r) + "%");
        for (int l = 0; l <= 10; ++l) {
            std::vector<Cell> row{TextTable::num(l / 10.0, 1)};
            for (int r = 0; r <= 90; r += 10) {
                row.push_back(pct(100.0 * model.evaluate(l / 10.0, r / 100.0)
                                              .snoopMissFraction));
            }
            p.rows.push_back(std::move(row));
        }
        p.note = "At L=0.5, R=0.1: " + TextTable::pct(p.at("0.5", "R=10%")) +
                 " (paper cites ~33% for 32B blocks)";
        out.push_back(std::move(p));
    }
    return out;
}

Panels
table1(const Cells &)
{
    Panel p{"Table 1: Xeon peak power breakdown (source data: "
            "Microprocessor Report 12(9), via the paper)",
            {"L2 size", "Core W", "L2 W", "L2 pads W", "L2 %",
             "L2 w/o pads %"},
            {},
            "Paper values: 14%/16%, 23%/28%, 34%/43%.\n"};
    for (const auto &row : energy::xeonPowerTable) {
        const bool mb = row.l2KBytes >= 1024;
        p.rows.push_back({std::to_string(row.l2KBytes / (mb ? 1024 : 1)) +
                              (mb ? "M" : "K"),
                          num(row.coreWatts, 1), num(row.l2Watts, 1),
                          num(row.l2PadWatts, 1),
                          pct(100.0 * row.l2FractionWithPads(), 0),
                          pct(100.0 * row.l2FractionWithoutPads(), 0)});
    }
    // This library's estimate of the tag-array share for the same L2.
    for (unsigned block : {32u, 64u}) {
        const energy::CacheEnergyModel model(baseL2(block));
        const auto &e = model.energies();
        char line[160];
        std::snprintf(line, sizeof line,
                      "\n1MB 4-way, %uB blocks: tag probe %.1f pJ, block "
                      "read %.1f pJ (tag/data ratio %.2f; tag banks %u, "
                      "data banks %u)",
                      block, e.tagRead * 1e12, e.dataReadUnit * 1e12,
                      e.tagRead / e.dataReadUnit, model.tagBanks(),
                      model.dataBanks());
        p.note += line;
    }
    return {p};
}

Panels
table4(const Cells &)
{
    Panel p{"Table 4: Include-JETTY storage requirements",
            {"IJ", "p-bits", "p-bit org", "cnt bits/entry", "cnt bits",
             "total bytes"},
            {},
            "Paper values (14-bit counters): 7168 / 3548 / 1792 / 869 / 448 "
            "bytes."};
    const auto amap = experiments::SystemVariant().smpConfig().addressMap();
    for (const auto &spec : filter::paperIncludeSpecs()) {
        const auto f = filter::makeFilter(spec, amap);
        const auto &ij = dynamic_cast<const filter::IncludeJetty &>(*f);
        const auto s = ij.storage();
        std::uint64_t rows = 0, cols = 0;
        ij.pbitArrayShape(rows, cols);
        p.rows.push_back({ij.name(),
                          num(static_cast<double>(s.presenceBits), 0),
                          std::to_string(rows) + "x" + std::to_string(cols),
                          num(ij.counterBits(), 0),
                          num(static_cast<double>(s.counterBits), 0),
                          num(s.totalBytes(), 0)});
    }
    return {p};
}

Panels
figure4(const Cells &cells)
{
    Panels out{coverage("Figure 4(a): Exclude-JETTY coverage", cells[0],
                        filter::paperExcludeSpecs()),
               coverage("Figure 4(b): Vector-Exclude-JETTY coverage",
                        cells[0],
                        {"VEJ-32x4-8", "VEJ-32x4-4", "EJ-32x4", "VEJ-16x4-8",
                         "VEJ-16x4-4", "EJ-16x4"})};
    out.back().note = "Paper reference: EJ-32x4 best with ~45% average "
                      "coverage; VEJ a slight improvement on most apps.";
    return out;
}

Panels
figure5(const Cells &cells)
{
    Panels out{coverage("Figure 5(a): Include-JETTY coverage", cells[0],
                        filter::paperIncludeSpecs()),
               coverage("Figure 5(b): Hybrid-JETTY coverage\n" + kHybridKey,
                        cells[0], filter::paperHybridSpecs(), kHybridLabels)};
    out.back().note = "Paper reference: IJ-10x4x7 ~57% avg; "
                      "HJ(IJ-10x4x7,EJ-32x4) ~76% avg; HJ(IJ-8x4x7,EJ-16x2) "
                      "~65% avg.";
    return out;
}

Panels
figure6(const Cells &cells)
{
    const auto &variant = cells[0].requests.front().variant;
    const Names hybrids = filter::paperHybridSpecs();
    Panels out;
    for (const char *panel : {"a", "b", "c", "d"}) {
        // (a) shows every hybrid; (b)-(d) the three built on EJ-32x4.
        const bool all = *panel == 'b' || *panel == 'd';
        const auto mode = *panel < 'c' ? energy::AccessMode::Serial
                                       : energy::AccessMode::Parallel;
        const std::size_t n = *panel == 'a' ? hybrids.size() : 3;
        out.push_back(perApp(
            std::string(*panel == 'a' ? kHybridKey + "\n\n" : "") +
                "Figure 6(" + panel + "): energy reduction over " +
                (all ? "all L2" : "snoop") + " accesses (" +
                (*panel < 'c' ? "serial" : "parallel") + " tag/data)",
            cells[0], Names(kHybridLabels.begin(), kHybridLabels.begin() + n),
            [&](const AppRunResult &run, std::size_t i) {
                const auto e = experiments::evaluateEnergy(run, variant,
                                                           hybrids[i], mode);
                return all ? e.reductionOverAllPct
                           : e.reductionOverSnoopsPct;
            }));
    }
    out.back().note = "Paper reference: (Ia,Ea) ~56% over snoops / ~30% over "
                      "all (serial); ~63% / ~41% (parallel).";
    return out;
}

Panels
table2(const Cells &cells)
{
    Panel p{"Table 2: application characteristics (4-way SMP, subblocked "
            "1MB L2)",
            {"App", "Ab", "Accesses(M)", "MA(MB)", "L1 hit", "L2 hit",
             "L2 Snoop Accesses(M)"},
            {},
            "Paper regime: L1 hit 76.5%-99.6%; L2 local hit 23.3%-82.5%; "
            "snoops roughly double L2 accesses."};
    for (const auto &run : cells[0].runs) {
        const auto agg = run.stats.aggregate();
        p.rows.push_back(
            {run.appName, run.abbrev,
             num(static_cast<double>(agg.accesses) / 1e6, 1),
             num(static_cast<double>(run.memoryAllocated) / (1024.0 * 1024.0),
                 1),
             pct(percent(agg.l1Hits, agg.accesses)),
             pct(percent(agg.l2LocalHits, agg.l2LocalAccesses)),
             num(static_cast<double>(agg.snoopTagProbes) / 1e6, 1)});
    }
    return {p};
}

Panels
table3(const Cells &cells)
{
    Panel p{"Table 3: snoop hit distribution (4-way SMP)",
            {"App", "0", "1", "2", "3", "miss%ofSnoops", "miss%ofAllL2"},
            {},
            "Paper averages: 79.6% / 15.6% / 2.6% / 1% remote-hit "
            "distribution; 91% of snoop accesses miss; 55% of all L2 "
            "accesses are snoop misses."};
    double avg[6] = {0, 0, 0, 0, 0, 0};
    for (const auto &run : cells[0].runs) {
        const auto agg = run.stats.aggregate();
        double v[6];
        for (unsigned b = 0; b < 4; ++b)
            v[b] = 100.0 * run.stats.remoteHits.fraction(b);
        v[4] = percent(agg.snoopMisses, agg.snoopTagProbes);
        v[5] = percent(agg.snoopMisses,
                       agg.l2LocalAccesses + agg.snoopTagProbes);
        std::vector<Cell> row{run.appName};
        for (unsigned i = 0; i < 6; ++i) {
            avg[i] += v[i];
            row.push_back(pct(v[i], 0));
        }
        p.rows.push_back(std::move(row));
    }
    std::vector<Cell> row{"AVERAGE"};
    for (unsigned i = 0; i < 6; ++i) {
        row.push_back(pct(avg[i] / static_cast<double>(cells[0].runs.size()),
                          i < 4 ? 1 : 0));
    }
    p.rows.push_back(std::move(row));
    return {p};
}

/** One row of the 8-way and non-subblocked summaries: averages over the
 *  @p nprocs-processor cells of @p cells. */
std::vector<Cell>
summary(std::string label, const ExecuteResult &cells, unsigned nprocs,
        bool withEj)
{
    double sum[4] = {0, 0, 0, 0}, n = 0;
    for (std::size_t i = 0; i < cells.runs.size(); ++i) {
        if (cells.requests[i].variant.nprocs != nprocs)
            continue;
        const auto &run = cells.runs[i];
        const auto agg = run.stats.aggregate();
        sum[0] += percent(agg.snoopMisses, agg.snoopTagProbes);
        sum[1] += percent(agg.snoopMisses,
                          agg.l2LocalAccesses + agg.snoopTagProbes);
        sum[2] += 100.0 * run.statsFor(kBest).coverage();
        sum[3] += withEj ? 100.0 * run.statsFor("EJ-32x4").coverage() : 0;
        n += 1;
    }
    std::vector<Cell> row{std::move(label)};
    for (int i = 0; i < (withEj ? 4 : 3); ++i)
        row.push_back(pct(sum[i] / n));
    return row;
}

Panels
eightWay(const Cells &cells)
{
    return {{"Section 4.3.4: 8-way SMP summary (best HJ = " + kBest + ")",
             {"procs", "snoopMiss % of snoops", "snoopMiss % of all L2",
              "HJ coverage"},
             {summary("4", cells[0], 4, false),
              summary("8", cells[0], 8, false)},
             "Paper: snoop misses 54.5% -> 76.4% of all L2 accesses going "
             "4-way -> 8-way; HJ coverage ~76% -> ~79%."}};
}

Panels
noSubblock(const Cells &cells)
{
    return {{"Sections 4.2/4.3: subblocked vs non-subblocked L2",
             {"L2 blocks", "snoopMiss % of snoops", "snoopMiss % of all L2",
              "HJ coverage", "EJ-32x4 cov"},
             {summary("64B, 2 subblocks", cells[0], 4, true),
              summary("32B, whole-block", cells[1], 4, true)},
             "Paper: snoop-miss rate 91% -> 68% of snoops and 54.5% -> 46% "
             "of all accesses without subblocking; best HJ coverage 76% -> "
             "68%."}};
}

Panels
latency(const Cells &cells)
{
    const sim::LatencyParams params;
    char title[200];
    std::snprintf(title, sizeof title,
                  "Section 2.2: snoop-latency impact of %s\n(JETTY probe "
                  "%.1f cycles, L2 tags %.1f cycles, bus %.0fx slower than "
                  "the core)",
                  kBest.c_str(), params.jettyCycles, params.l2TagCycles,
                  params.busClockRatio);
    Panel p{title,
            {"App", "baseline (cyc)", "with JETTY (cyc)", "mean change",
             "worst-case add (bus cycles)"},
            {},
            "Paper claim: no performance loss -- the serial JETTY probe is "
            "an insignificant\nfraction of snoop latency, and filtered snoops "
            "answer earlier than the tag\narray would have. A negative mean "
            "change confirms it."};
    double change = 0;
    for (const auto &run : cells[0].runs) {
        const auto impact = sim::evaluateLatency(run.statsFor(kBest), params);
        change += impact.meanChangePct();
        p.rows.push_back({run.abbrev, num(impact.baselineMeanCycles, 1),
                          num(impact.jettyMeanCycles, 1),
                          pct(impact.meanChangePct()),
                          num(impact.worstCaseBusCycleFraction(params), 3)});
    }
    p.rows.push_back(
        {"AVG", "", "",
         pct(change / static_cast<double>(cells[0].runs.size())), ""});
    return {p};
}

/** Ablation A1: the IJ-10x4xS skip distances, then the unit-granular
 *  index base. */
const Names kSkipSpecs{"IJ-10x4x4", "IJ-10x4x5",  "IJ-10x4x6", "IJ-10x4x7",
                       "IJ-10x4x8", "IJ-10x4x10", "IJ-10x4x7u"};

Panels
ablationIndex(const Cells &cells)
{
    Panel p = coverage("Ablation A1: IJ index skip distance (IJ-10x4xS) and "
                       "unit-granular indexing",
                       cells[0], kSkipSpecs);
    p.note = "Expectation: overlap (S < E=10) changes accuracy; the paper "
             "found partial overlap best.";
    return {p};
}

const Names kRegionSpecs{"RF-8x12",  "RF-10x12",  "RF-10x10",
                         "IJ-8x4x7", "IJ-10x4x7", kBest};

Panels
ablationRegion(const Cells &cells)
{
    return {coverage("Ablation A3: coarse region filters "
                     "(RF-EntriesxRegionBits) vs include-JETTYs",
                     cells[0], kRegionSpecs)};
}

const Names kSizeSpecs{"HJ(IJ-10x4x7,EJ-32x4)", "HJ(IJ-9x4x7,EJ-32x4)",
                       "HJ(IJ-8x4x7,EJ-16x2)", "HJ(IJ-7x5x6,EJ-16x2)",
                       "HJ(IJ-6x5x6,EJ-8x2)"};

Panels
ablationSizes(const Cells &cells)
{
    const AppRunResult &run = cells[0].runs.front();
    const auto &variant = cells[0].requests.front().variant;
    Panel p{"Ablation A2: JETTY size vs energy on Raytrace "
            "(coverage-saturated)",
            {"config", "storage bytes", "coverage",
             "energy reduction over snoops (serial)"},
            {},
            "Expectation: equal coverage, so smaller organizations save "
            "more energy -- the paper's raytrace effect."};
    for (const auto &spec : kSizeSpecs) {
        const auto f =
            filter::makeFilter(spec, variant.smpConfig().addressMap());
        p.rows.push_back(
            {spec, num(f->storage().totalBytes(), 0),
             pct(100.0 * run.statsFor(spec).coverage()),
             pct(experiments::evaluateEnergy(run, variant, spec,
                                             energy::AccessMode::Serial)
                     .reductionOverSnoopsPct)});
    }
    return {p};
}

// ---- the catalogue -----------------------------------------------------

struct Entry
{
    const char *name;
    Panels (*view)(const Cells &cells);
    Names filters;  //!< of every spec; none: an analytical table
};

const std::vector<Entry> &
catalogue()
{
    static const std::vector<Entry> kEntries = {
        {"figure2", figure2, {}},
        {"figure4", figure4,
         concat(filter::paperExcludeSpecs(),
                filter::paperVectorExcludeSpecs())},
        {"figure5", figure5,
         concat(filter::paperIncludeSpecs(), filter::paperHybridSpecs())},
        {"figure6", figure6, filter::paperHybridSpecs()},
        {"table1", table1, {}},
        {"table2", table2, {"NULL"}},
        {"table3", table3, {"NULL"}},
        {"table4", table4, {}},
        {"8way", eightWay, {kBest}},
        {"nosubblock", noSubblock, {kBest, "EJ-32x4"}},
        {"latency", latency, {kBest}},
        {"ablation_index", ablationIndex, kSkipSpecs},
        {"ablation_region", ablationRegion, kRegionSpecs},
        {"ablation_sizes", ablationSizes, kSizeSpecs},
    };
    return kEntries;
}

const Entry *
find(const std::string &name)
{
    for (const Entry &e : catalogue()) {
        if (name == e.name)
            return &e;
    }
    return nullptr;
}

/** The unresolved specs of @p e: a sweep of its filters over the ten
 *  paper applications (sweep's default), but for the three tables that
 *  need more. */
std::vector<api::ExperimentSpec>
specsOf(const Entry &e, double scale)
{
    if (e.filters.empty())
        return {};
    api::ExperimentSpec spec;
    spec.filters = e.filters;
    spec.scale = scale;
    const std::string name = e.name;
    if (name == "8way") {
        // Eight processors issue twice the references: half scale.
        spec.scale = 0.5 * scale;
        spec.sweepProcs = {4, 8};
    } else if (name == "ablation_sizes") {
        spec.apps = {"rt"};
    } else if (name == "nosubblock") {
        // subblocked is not a sweep axis: one spec per machine.
        api::ExperimentSpec whole = spec;
        whole.machine.subblocked = false;
        return {spec, whole};
    }
    return {spec};
}

} // namespace

double
Panel::at(const std::string &row, const std::string &col) const
{
    const auto c = std::find(header.begin(), header.end(), col);
    for (const auto &r : rows) {
        if (c != header.end() && r.front().text == row)
            return r.at(static_cast<std::size_t>(c - header.begin())).value;
    }
    panic("paper: no cell (" + row + ", " + col + ") in '" + title + "'");
}

std::vector<std::string>
tableNames()
{
    Names names;
    for (const Entry &e : catalogue())
        names.push_back(e.name);
    return names;
}

std::string
tableSpecs(const std::string &name, double scale,
           std::vector<api::ExperimentSpec> &out)
{
    const Entry *e = find(name);
    if (!e) {
        std::string valid;
        for (const auto &n : tableNames())
            valid += n + ", ";
        return "paper: unknown table '" + name + "' (valid: " + valid +
               "all)";
    }
    out = specsOf(*e, scale);
    for (auto &spec : out) {
        const std::string err = resolveSpec(spec, "sweep");
        if (!err.empty())
            return err;
    }
    return "";
}

std::string
runTable(const std::string &name, double scale, unsigned jobs,
         std::vector<Panel> &out)
{
    std::vector<api::ExperimentSpec> specs;
    std::string err = tableSpecs(name, scale, specs);
    Cells cells(specs.size());
    for (std::size_t i = 0; err.empty() && i < specs.size(); ++i)
        err = executeResolved(specs[i], "sweep", jobs, cells[i]);
    if (err.empty())
        out = find(name)->view(cells);
    return err;
}

void
print(const std::vector<Panel> &panels, std::FILE *out)
{
    for (std::size_t i = 0; i < panels.size(); ++i) {
        const Panel &p = panels[i];
        TextTable text;
        text.header(p.header);
        for (const auto &row : p.rows) {
            Names cells;
            for (const auto &c : row)
                cells.push_back(c.text);
            text.row(std::move(cells));
        }
        std::fprintf(out, "%s%s\n\n", i ? "\n" : "", p.title.c_str());
        text.print(out);
        if (!p.note.empty())
            std::fprintf(out, "\n%s\n", p.note.c_str());
    }
}

} // namespace jetty::service::paper
