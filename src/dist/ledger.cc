#include "dist/ledger.hh"

#include <sys/stat.h>

#include <limits>

namespace jetty::dist
{

std::string
Ledger::open(const std::string &dir)
{
    if (dir.empty())
        return "ledger: empty directory path";
    // Every entry is a finished cell a later campaign may resume, so a
    // ledger's own publishes never evict.
    auto store = std::make_unique<experiments::DiskCache>(
        dir, std::numeric_limits<std::uint64_t>::max());
    struct stat st;
    if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
        return "ledger: cannot create directory " + dir;
    dir_ = dir;
    store_ = std::move(store);
    return "";
}

bool
Ledger::lookup(const std::string &key, ShardResponse &out,
               std::set<std::string> *covered)
{
    ShardCell cell;
    std::set<std::string> cov;
    if (!isOpen() || !store_->lookup(key, cell.result, cov))
        return false;
    cell.key = key;
    out = ShardResponse();
    out.ok = true;
    out.results.push_back(std::move(cell));
    if (covered)
        *covered = std::move(cov);
    return true;
}

std::string
Ledger::publish(const std::string &key, const ShardResponse &resp)
{
    if (!isOpen())
        return "ledger: not open";
    for (const auto &cell : resp.results) {
        if (cell.key == key) {
            const auto &names = cell.result.filterNames;
            return store_->publish(
                key, cell.result,
                std::set<std::string>(names.begin(), names.end()));
        }
    }
    return "ledger: response carries no cell for the key";
}

} // namespace jetty::dist
