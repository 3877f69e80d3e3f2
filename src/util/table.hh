/**
 * @file
 * Plain-text table formatter used by jetty_cli to print its results and
 * every paper table and figure (service/paper.hh).
 */

#ifndef JETTY_UTIL_TABLE_HH
#define JETTY_UTIL_TABLE_HH

#include <cstdio>
#include <string>
#include <vector>

namespace jetty
{

/**
 * A simple column-aligned text table. Build it row by row, then print to a
 * stream. Cells are strings; helpers format numbers/percentages.
 */
class TextTable
{
  public:
    /** Set the header row. */
    void
    header(std::vector<std::string> cells)
    {
        header_ = std::move(cells);
    }

    /** Append a data row. */
    void
    row(std::vector<std::string> cells)
    {
        rows_.push_back(std::move(cells));
    }

    /** Format a double with @p prec decimals. */
    static std::string
    num(double v, int prec = 2)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.*f", prec, v);
        return buf;
    }

    /** Format a percentage like "74.3%". */
    static std::string
    pct(double v, int prec = 1)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.*f%%", prec, v);
        return buf;
    }

    /** Format an integer count. */
    static std::string
    count(std::uint64_t v)
    {
        return std::to_string(v);
    }

    /** Print aligned columns to @p out (default stdout). */
    void print(std::FILE *out = stdout) const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace jetty

#endif // JETTY_UTIL_TABLE_HH
