#include "util/table.hh"

#include <algorithm>

namespace jetty
{

void
TextTable::print(std::FILE *out) const
{
    // Compute per-column widths over header and all rows.
    std::vector<std::size_t> width;
    auto widen = [&](const std::vector<std::string> &cells) {
        if (cells.size() > width.size())
            width.resize(cells.size(), 0);
        for (std::size_t i = 0; i < cells.size(); ++i)
            width[i] = std::max(width[i], cells[i].size());
    };
    widen(header_);
    for (const auto &r : rows_)
        widen(r);

    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            std::fprintf(out, "%-*s", static_cast<int>(width[i]) + 2,
                         cells[i].c_str());
        }
        std::fprintf(out, "\n");
    };

    if (!header_.empty()) {
        emit(header_);
        std::size_t total = 0;
        for (auto w : width)
            total += w + 2;
        std::string rule(total, '-');
        std::fprintf(out, "%s\n", rule.c_str());
    }
    for (const auto &r : rows_)
        emit(r);
}

} // namespace jetty
