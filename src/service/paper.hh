/**
 * @file
 * The paper's evaluation as a catalogue: for each of JETTY's figures and
 * tables, the sweep spec(s) it needs and a view that turns the executed
 * cells into the paper's numeric panels.
 *
 * A simulated table runs through service::executeResolved(spec,
 * "sweep"), the executor, RunCache and disk tier of every other verb,
 * so `jetty_cli paper NAME --dump-spec` hands any table to `sweep
 * --spec`, `sweep --workers N` or `submit` unchanged. Figure 2 and
 * Tables 1 and 4 are analytical and execute no spec. Views render from
 * the executed cells, not from a Report: Tables 2 and 3 need the
 * allocated memory and the remote-hit histogram, which a Report lacks.
 * tests/test_paper.cc checks the paper's claims against the panels.
 */

#ifndef JETTY_SERVICE_PAPER_HH
#define JETTY_SERVICE_PAPER_HH

#include <cstdio>
#include <string>
#include <vector>

#include "api/experiment_spec.hh"

namespace jetty::service::paper
{

/** One printed cell: its text and, when numeric, the value behind it. */
struct Cell
{
    Cell(std::string t, double v = 0) : text(std::move(t)), value(v) {}
    Cell(const char *t) : text(t), value(0) {}

    std::string text;
    double value;
};

/** One panel of a table: a title, rows whose first cell labels the
 *  row, and a note printed under them (the paper's reference). */
struct Panel
{
    std::string title;
    std::vector<std::string> header;
    std::vector<std::vector<Cell>> rows;
    std::string note;

    /** The value in the row labelled @p row, column @p col; panic()s
     *  when either is absent. */
    double at(const std::string &row, const std::string &col) const;
};

/** The catalogue's table names, in print order. */
std::vector<std::string> tableNames();

/**
 * The resolved sweep specs table @p name executes at @p scale (none for
 * an analytical table) into @p out.
 * @return "" on success, else the diagnostic naming the valid tables.
 */
std::string tableSpecs(const std::string &name, double scale,
                       std::vector<api::ExperimentSpec> &out);

/**
 * Execute tableSpecs(@p name, @p scale) through executeResolved() and
 * render table @p name's panels into @p out.
 * @param jobs SweepRunner worker override (0 = SweepRunner default).
 * @return "" on success, else the diagnostic.
 */
std::string runTable(const std::string &name, double scale, unsigned jobs,
                     std::vector<Panel> &out);

/** Print @p panels through TextTable, as the paper's tables. */
void print(const std::vector<Panel> &panels, std::FILE *out = stdout);

} // namespace jetty::service::paper

#endif // JETTY_SERVICE_PAPER_HH
