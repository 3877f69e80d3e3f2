#include "experiments/disk_cache.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <tuple>
#include <utility>
#include <vector>

#include <dirent.h>

#include "experiments/run_result_json.hh"
#include "util/json.hh"

namespace jetty::experiments
{

namespace
{

/** mkdir -p. Best effort: the cache degrades to all-miss if it fails. */
void
makeDirs(const std::string &path)
{
    std::string partial;
    for (std::size_t i = 0; i <= path.size(); ++i) {
        if (i < path.size() && path[i] != '/') {
            partial += path[i];
            continue;
        }
        if (!partial.empty())
            ::mkdir(partial.c_str(), 0755);
        if (i < path.size())
            partial += '/';
    }
}

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** Entry files are exactly 16 hex digits + ".json"; nothing else in a
 *  root (temp files, a legacy index.json) is the tier's to touch. */
bool
isEntryFile(const std::string &name)
{
    return name.size() == 21 && name.compare(16, 5, ".json") == 0 &&
           name.find_first_not_of("0123456789abcdef") == 16;
}

/** Stamp @p path's mtime with CLOCK_REALTIME at full precision (the
 *  kernel's own timestamps can be a tick coarse, which would tie
 *  back-to-back uses). Best effort: a lost stamp only ages the entry. */
void
stampRecent(const std::string &path)
{
    struct timespec times[2];
    times[0].tv_sec = 0;
    times[0].tv_nsec = UTIME_OMIT;  // atime untouched
    ::clock_gettime(CLOCK_REALTIME, &times[1]);
    ::utimensat(AT_FDCWD, path.c_str(), times, 0);
}

} // namespace

DiskCache::DiskCache(std::string root, std::uint64_t budgetBytes)
    : root_(std::move(root)), budget_(budgetBytes)
{
    makeDirs(root_);
}

std::string
DiskCache::entryFileFor(const std::string &key)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(key)));
    return std::string(hex) + ".json";
}

bool
DiskCache::lookup(const std::string &key, AppRunResult &result,
                  std::set<std::string> &covered)
{
    const std::string path = root_ + "/" + entryFileFor(key);

    std::string err;
    json::Value v = json::parseFile(path, &err);
    if (!err.empty()) {
        ::unlink(path.c_str());  // readable-but-corrupt: evict (or absent)
        return false;
    }

    json::FieldReader rd("entry");
    std::uint64_t version = 0;
    std::string storedKey;
    std::vector<std::string> names;
    rd.u64(v, "jetty_cache", version);
    if (version != kDiskCacheVersion)
        rd.fail("jetty_cache", "unsupported version");
    rd.str(v, "key", storedKey);
    rd.strVector(v, "covered", names);
    rd.get(v, "result");  // present; read after the key check below
    if (!rd.ok()) {
        ::unlink(path.c_str());  // wrong version / malformed envelope
        return false;
    }
    if (storedKey != key)
        return false;  // filename hash collision: miss, leave in place

    AppRunResult res;
    rd.nested(v, "result", [&](const json::Value &resultObj) {
        runResultFromJson(rd, resultObj, res);
    });
    bool ok = rd.ok();
    for (const auto &name : names) {
        // Every covered name must have its row, or a caller projecting
        // onto covered names would ask the result for a missing filter.
        ok = ok && std::find(res.filterNames.begin(), res.filterNames.end(),
                             name) != res.filterNames.end();
    }
    if (!ok) {
        ::unlink(path.c_str());
        return false;
    }

    stampRecent(path);
    result = std::move(res);
    covered = std::set<std::string>(names.begin(), names.end());
    return true;
}

std::string
DiskCache::publish(const std::string &key, const AppRunResult &result,
                   const std::set<std::string> &covered)
{
    const std::string file = entryFileFor(key);
    const std::string path = root_ + "/" + file;

    json::Value entry = json::Value::object();
    entry.set("jetty_cache", kDiskCacheVersion);
    entry.set("key", key);
    json::Value cov = json::Value::array();
    for (const auto &spec : covered)
        cov.push(spec);
    entry.set("covered", std::move(cov));
    entry.set("result", runResultToJson(result));

    const std::string why = json::writeFileErr(path, entry);
    if (!why.empty())
        return why;
    // rename(2) keeps the temp file's (coarse) write time: restamp.
    stampRecent(path);
    evictOver(file);
    return "";
}

void
DiskCache::evictOver(const std::string &keep)
{
    struct Entry
    {
        struct timespec mtime;
        std::string name;
        std::uint64_t bytes;
    };
    std::vector<Entry> entries;
    std::uint64_t total = 0;
    DIR *dir = ::opendir(root_.c_str());
    if (!dir)
        return;
    while (const dirent *ent = ::readdir(dir)) {
        const std::string name = ent->d_name;
        struct stat st;
        // A failed stat is an entry another publisher just evicted.
        if (!isEntryFile(name) ||
            ::fstatat(::dirfd(dir), ent->d_name, &st, 0) != 0)
            continue;
        const auto bytes = static_cast<std::uint64_t>(st.st_size);
        entries.push_back({st.st_mtim, name, bytes});
        total += bytes;
    }
    ::closedir(dir);
    if (total <= budget_)
        return;

    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return std::tie(a.mtime.tv_sec, a.mtime.tv_nsec, a.name) <
                         std::tie(b.mtime.tv_sec, b.mtime.tv_nsec, b.name);
              });
    for (const auto &e : entries) {
        if (total <= budget_)
            break;
        if (e.name == keep)
            continue;
        // ENOENT means a concurrent publisher evicted it first; the
        // bytes are gone either way.
        ::unlink((root_ + "/" + e.name).c_str());
        total -= e.bytes;
    }
}

} // namespace jetty::experiments
