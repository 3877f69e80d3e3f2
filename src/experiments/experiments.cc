#include "experiments/experiments.hh"

#include <sys/stat.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <set>

#include "core/filter_spec.hh"
#include "experiments/disk_cache.hh"
#include "trace/trace_file.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"

namespace jetty::experiments
{

sim::SmpConfig
SystemVariant::smpConfig() const
{
    sim::SmpConfig cfg;
    cfg.nprocs = nprocs;
    cfg.l1.sizeBytes = 64 * 1024;
    cfg.l1.assoc = 1;
    cfg.l1.blockBytes = 32;
    cfg.l2.sizeBytes = 1024 * 1024;
    cfg.l2.assoc = 1;
    if (subblocked) {
        cfg.l2.blockBytes = 64;
        cfg.l2.subblocks = 2;
    } else {
        // The paper's "NSB" comparison system: coherence at whole-block
        // granularity. We keep 32 B blocks so the L1 line still equals
        // the coherence unit.
        cfg.l2.blockBytes = 32;
        cfg.l2.subblocks = 1;
    }
    cfg.wbEntries = 8;
    cfg.physAddrBits = 40;
    cfg.snoopBuses = snoopBuses;
    return cfg;
}

energy::CacheGeometry
SystemVariant::l2EnergyGeometry() const
{
    const sim::SmpConfig cfg = smpConfig();
    energy::CacheGeometry geom;
    geom.sizeBytes = cfg.l2.sizeBytes;
    // The paper's energy analysis (Sections 2.1 and 4.4) assumes a 4-way
    // set-associative 1MB L2 -- wide-tag lookups are the motivation for
    // filtering -- even though the WWT2-style functional simulation uses
    // a SPARC-like direct-mapped L2. We follow the same split.
    geom.assoc = 4;
    geom.blockBytes = cfg.l2.blockBytes;
    geom.subblocks = cfg.l2.subblocks;
    geom.physAddrBits = cfg.physAddrBits;
    geom.stateBitsPerUnit = 3;  // MOESI
    return geom;
}

std::vector<std::string>
allPaperFilterSpecs()
{
    std::vector<std::string> specs;
    for (const auto &s : filter::paperExcludeSpecs())
        specs.push_back(s);
    for (const auto &s : filter::paperVectorExcludeSpecs())
        specs.push_back(s);
    for (const auto &s : filter::paperIncludeSpecs())
        specs.push_back(s);
    for (const auto &s : filter::paperHybridSpecs())
        specs.push_back(s);
    return specs;
}

const filter::FilterStats &
AppRunResult::statsFor(const std::string &name) const
{
    for (std::size_t i = 0; i < filterNames.size(); ++i) {
        if (filterNames[i] == name)
            return filterStats[i];
    }
    fatal("AppRunResult: unknown filter '" + name + "'");
}

const energy::FilterEnergyCosts &
AppRunResult::costsFor(const std::string &name) const
{
    for (std::size_t i = 0; i < filterNames.size(); ++i) {
        if (filterNames[i] == name)
            return filterCosts[i];
    }
    fatal("AppRunResult: unknown filter '" + name + "'");
}

// ---- The keyed run cache ---------------------------------------------

namespace
{

/** FNV-1a over the fields that determine a profile's reference streams. */
class Fnv
{
  public:
    void
    mix(std::uint64_t v)
    {
        hash_ ^= v;
        hash_ *= 0x100000001b3ULL;
    }

    void
    mix(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        mix(bits);
    }

    void
    mix(const std::string &s)
    {
        mix(static_cast<std::uint64_t>(s.size()));
        for (char c : s)
            mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t
profileFingerprint(const trace::AppProfile &app)
{
    Fnv fnv;
    fnv.mix(app.name);
    fnv.mix(app.seed);
    fnv.mix(app.accessesPerProc);
    fnv.mix(app.reuseProb);
    fnv.mix(static_cast<std::uint64_t>(app.wordBytes));
    for (const auto &s : app.streams) {
        fnv.mix(static_cast<std::uint64_t>(s.kind));
        fnv.mix(s.weight);
        fnv.mix(s.bytes);
        fnv.mix(s.writeFraction);
        fnv.mix(s.residentBytes);
        fnv.mix(s.residentFraction);
        fnv.mix(s.residentHotBias);
        fnv.mix(static_cast<std::uint64_t>(s.burstBytes));
        fnv.mix(static_cast<std::uint64_t>(s.epochLen));
        fnv.mix(static_cast<std::uint64_t>(s.objectBytes));
        fnv.mix(s.hotBias);
        fnv.mix(s.remoteFraction);
        fnv.mix(s.boundaryBytes);
    }
    return fnv.value();
}

/**
 * Cache key: the canonical serialization of one simulated
 * (machine, workload, scale) cell (runCacheKey). Canonical text
 * equality is simulation identity, and the std::map's byte order keeps
 * the pending-job batch deterministic.
 */
using RunKey = std::string;

/** (size, nanosecond-mtime) identity of a file at one instant.
 *  Nanosecond mtime: a same-size rewrite within one second must not
 *  serve a stale digest. */
struct DigestStamp
{
    std::uint64_t size = 0;
    std::int64_t mtime = 0;

    bool
    operator==(const DigestStamp &o) const
    {
        return size == o.size && mtime == o.mtime;
    }
};

struct MemoizedDigest
{
    DigestStamp stamp;
    std::uint64_t digest = 0;
};

/** The trace-digest memo behind traceFileDigestCached(), with the test
 *  seams RunCache::clear() and the TOCTOU regression tests need. */
struct DigestMemo
{
    std::mutex mu;
    std::map<std::string, MemoizedDigest> entries;
    std::function<void(const std::string &)> preHashHook;
};

DigestMemo &
digestMemo()
{
    static DigestMemo memo;
    return memo;
}

DigestStamp
statStamp(const std::string &path)
{
    struct ::stat st = {};
    if (::stat(path.c_str(), &st) != 0)
        fatal("traceFileDigest: cannot stat '" + path + "'");
    DigestStamp stamp;
    stamp.size = static_cast<std::uint64_t>(st.st_size);
    stamp.mtime =
        static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1'000'000'000 +
        static_cast<std::int64_t>(st.st_mtim.tv_nsec);
    return stamp;
}

/** One cached simulation: the full result plus the specs it covers. */
struct CacheEntry
{
    AppRunResult result{0};
    std::set<std::string> covered;  //!< canonical names in result
};

AppRunResult
fromSweep(const trace::AppProfile &app, sim::SweepResult &&sweep)
{
    // The stats assignment below carries the variant's true processor
    // count (SmpSystem built it), so no explicit sizing is needed here.
    AppRunResult res;
    res.appName = app.name;
    res.abbrev = app.abbrev;
    res.memoryAllocated = sweep.memoryAllocated;
    res.totalRefs = sweep.totalRefs;
    res.simSeconds = sweep.elapsedSeconds;
    res.refsTooFewForRate = sweep.refsTooFewForRate;
    res.stats = std::move(sweep.stats);
    res.filterNames = std::move(sweep.filterNames);
    res.filterStats = std::move(sweep.filterStats);
    res.filterCosts = std::move(sweep.filterCosts);
    res.traffic = sweep.traffic;
    return res;
}

/** Restrict @p full to @p names (each present in full.filterNames). */
AppRunResult
project(const AppRunResult &full, const std::vector<std::string> &names)
{
    AppRunResult out = full;
    out.filterNames.clear();
    out.filterStats.clear();
    out.filterCosts.clear();
    for (const auto &name : names) {
        out.filterNames.push_back(name);
        out.filterStats.push_back(full.statsFor(name));
        out.filterCosts.push_back(full.costsFor(name));
    }
    return out;
}

/** Append to @p into every filter row of @p from that it lacks. Exact
 *  for two results of one key: filters are passive observers, so the
 *  simulations agree on every row they share. */
void
foldFilterRows(AppRunResult &into, const AppRunResult &from)
{
    auto &names = into.filterNames;
    for (std::size_t f = 0; f < from.filterNames.size(); ++f) {
        if (std::find(names.begin(), names.end(), from.filterNames[f]) ==
            names.end()) {
            names.push_back(from.filterNames[f]);
            into.filterStats.push_back(from.filterStats[f]);
            into.filterCosts.push_back(from.filterCosts[f]);
        }
    }
}

} // namespace

std::uint64_t
traceFileDigestCached(const std::string &path)
{
    auto &memo = digestMemo();
    // The naive memoization is a TOCTOU: stat, hash, then memoize the
    // digest under the *pre-hash* stamp. A file rewritten between the
    // stat and the hash poisons the memo — the new content's digest
    // sits under the old content's stamp, and once the file is restored
    // the stale entry matches again and serves the wrong digest forever.
    // So: memoize only when a *post-hash* re-stat shows the same stamp,
    // retrying a few times, and fall through to an unmemoized hash when
    // the file will not hold still.
    for (int attempt = 0; attempt < 3; ++attempt) {
        const DigestStamp before = statStamp(path);
        std::function<void(const std::string &)> hook;
        {
            std::lock_guard<std::mutex> lock(memo.mu);
            const auto it = memo.entries.find(path);
            if (it != memo.entries.end() && it->second.stamp == before)
                return it->second.digest;
            hook = memo.preHashHook;
        }
        if (hook)
            hook(path);  // test seam: the stat-to-hash race window
        const std::uint64_t digest = trace::traceFileDigest(path);
        const DigestStamp after = statStamp(path);
        if (after == before) {
            std::lock_guard<std::mutex> lock(memo.mu);
            memo.entries[path] = {after, digest};
            return digest;
        }
        // The file changed underneath the hash: the digest matches
        // neither stamp reliably. Try again against the new stamp.
    }
    return trace::traceFileDigest(path);
}

void
invalidateTraceDigestMemo()
{
    auto &memo = digestMemo();
    std::lock_guard<std::mutex> lock(memo.mu);
    memo.entries.clear();
}

void
setTraceDigestPreHashHook(std::function<void(const std::string &)> hook)
{
    auto &memo = digestMemo();
    std::lock_guard<std::mutex> lock(memo.mu);
    memo.preHashHook = std::move(hook);
}

std::uint64_t
workloadFingerprint(const RunRequest &req)
{
    if (!req.traceFiles.empty()) {
        // File-backed workload: identity is what the files *contain*,
        // not where they live or what profile labels them.
        Fnv fnv;
        fnv.mix(static_cast<std::uint64_t>(req.traceFiles.size()));
        for (const auto &file : req.traceFiles)
            fnv.mix(traceFileDigestCached(file));
        return fnv.value();
    }
    return profileFingerprint(req.app);
}

std::string
runCacheKey(const RunRequest &req, double scale)
{
    // The key is a canonical mini-spec of the simulated cell: the
    // variant machine plus the workload's content identity. Everything
    // that changes the simulation is in here; nothing else is — filter
    // specs in particular stay out (the bank is a passive observer, so
    // a superset simulation answers any subset request).
    json::Value machine = json::Value::object();
    machine.set("procs", req.variant.nprocs);
    machine.set("buses", req.variant.snoopBuses);
    machine.set("subblocked", req.variant.subblocked);

    json::Value workload = json::Value::object();
    char fp[32];
    std::snprintf(fp, sizeof(fp), "0x%016llx",
                  static_cast<unsigned long long>(
                      workloadFingerprint(req)));
    workload.set("fingerprint", fp);
    if (req.traceFiles.empty()) {
        workload.set("kind", "profile");
        // accessScale does not apply to file replays (the capture's
        // length is the capture's length), so it must not split their
        // keys — it only joins profile-backed identities.
        workload.set("scale", scale);
    } else {
        workload.set("kind", "files");
    }

    json::Value root = json::Value::object();
    root.set("machine", std::move(machine));
    root.set("workload", std::move(workload));
    return root.dumpCanonical();
}

struct RunCache::Impl
{
    mutable std::mutex mu;
    std::map<RunKey, CacheEntry> entries;
    std::uint64_t sims = 0;
    std::uint64_t hits = 0;
    std::uint64_t diskHits = 0;
    std::uint64_t diskBudget = kDefaultDiskBudgetBytes;
    std::unique_ptr<DiskCache> disk;  //!< tier 1; null = memory only
};

RunCache::RunCache() : impl_(std::make_unique<Impl>())
{
    // Library default: no disk tier (tests and benches stay hermetic).
    // The environment opts a whole process tree in; jetty_cli layers its
    // own default root on top via setDiskRoot().
    if (const char *env = std::getenv("JETTY_CACHE_BYTES")) {
        std::uint64_t v = 0;
        if (parseUnsigned(env, v) && v >= 1)
            impl_->diskBudget = v;
        else
            warn("ignoring JETTY_CACHE_BYTES: not a byte count >= 1");
    }
    if (const char *env = std::getenv("JETTY_CACHE_DIR")) {
        const std::string root = env;
        if (!root.empty() && root != "off")
            impl_->disk =
                std::make_unique<DiskCache>(root, impl_->diskBudget);
    }
}

RunCache::~RunCache() = default;

RunCache &
RunCache::instance()
{
    static RunCache cache;
    return cache;
}

void
RunCache::clear()
{
    {
        std::lock_guard<std::mutex> lock(impl_->mu);
        impl_->entries.clear();
        impl_->sims = 0;
        impl_->hits = 0;
        impl_->diskHits = 0;
    }
    // The digest memo is keyed by (size, mtime) stamps, and mtime
    // granularity is filesystem-dependent: a test that rewrites a trace
    // file between runs cannot rely on the stamp changing. clear() is
    // the "start from nothing" seam, so it drops the memo too.
    invalidateTraceDigestMemo();
}

std::uint64_t
RunCache::simulations() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->sims;
}

std::uint64_t
RunCache::hits() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->hits;
}

std::uint64_t
RunCache::diskHits() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->diskHits;
}

void
RunCache::setDiskRoot(const std::string &root)
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (root.empty() || root == "off")
        impl_->disk.reset();
    else
        impl_->disk = std::make_unique<DiskCache>(root, impl_->diskBudget);
}

std::string
RunCache::diskRoot() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->disk ? impl_->disk->root() : std::string();
}

void
RunCache::setDiskBudget(std::uint64_t bytes)
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->diskBudget = bytes;
    if (impl_->disk)
        impl_->disk =
            std::make_unique<DiskCache>(impl_->disk->root(), bytes);
}

// ---- Declarative runs ------------------------------------------------

std::vector<AppRunResult>
runMany(const std::vector<RunRequest> &requests, unsigned jobs)
{
    auto &cache = *RunCache::instance().impl_;

    // Resolve each request: scale, cache key, canonical spec names
    // (deduplicated, first-occurrence order). Canonical names round-trip
    // through the registry, so they double as the simulation's spec list.
    struct Prepared
    {
        RunKey key;
        std::vector<std::string> names;
    };
    // Canonicalization builds a filter to read its name; memoize per
    // (spec, address-map geometry) so a sweep over many apps pays it
    // once per spec, not once per request.
    std::map<std::string, std::string> canon;
    const auto canonical = [&canon](const std::string &spec,
                                    const filter::AddressMap &amap) {
        std::string memo_key = spec;
        for (std::uint64_t v :
             {static_cast<std::uint64_t>(amap.unitOffsetBits),
              static_cast<std::uint64_t>(amap.blockOffsetBits),
              static_cast<std::uint64_t>(amap.physAddrBits),
              amap.l2CapacityUnits}) {
            memo_key += '|' + std::to_string(v);
        }
        auto it = canon.find(memo_key);
        if (it == canon.end()) {
            it = canon.emplace(memo_key,
                               filter::canonicalFilterName(spec, amap))
                     .first;
        }
        return it->second;
    };

    std::vector<Prepared> prepared(requests.size());
    for (std::size_t r = 0; r < requests.size(); ++r) {
        const RunRequest &req = requests[r];
        const double scale =
            req.accessScale > 0 ? req.accessScale : 1.0;
        const filter::AddressMap amap =
            req.variant.smpConfig().addressMap();
        prepared[r].key = runCacheKey(req, scale);
        for (const auto &spec : req.filterSpecs) {
            const std::string name = canonical(spec, amap);
            auto &names = prepared[r].names;
            if (std::find(names.begin(), names.end(), name) == names.end())
                names.push_back(name);
        }
    }

    // Decide, under the lock, which keys need a simulation. A key
    // simulates when no entry covers the requested names; the job
    // evaluates only the names this batch requests for the key that the
    // entry does not cover, and its rows are folded into the entry.
    // Filters are passive observers, so a filter's row does not depend
    // on which others share its bank.
    struct PendingJob
    {
        std::size_t request = 0;  //!< exemplar request (app/variant/scale)
        std::vector<std::string> names;
    };
    std::map<RunKey, PendingJob> pending;
    {
        std::lock_guard<std::mutex> lock(cache.mu);
        for (std::size_t r = 0; r < requests.size(); ++r) {
            const Prepared &p = prepared[r];
            auto it = cache.entries.find(p.key);
            auto pend_it = pending.find(p.key);
            if (pend_it == pending.end()) {
                const auto coversAll = [&p](const CacheEntry &entry) {
                    for (const auto &name : p.names) {
                        if (!entry.covered.count(name))
                            return false;
                    }
                    return true;
                };
                if (it != cache.entries.end() && coversAll(it->second)) {
                    ++cache.hits;
                    continue;
                }
                // Tier-0 miss (or under-coverage): consult the disk tier
                // and fold whatever it holds into tier 0 — another
                // process may have simulated this cell, possibly with a
                // superset of the specs we need.
                if (cache.disk) {
                    AppRunResult dres;
                    std::set<std::string> dcov;
                    if (cache.disk->lookup(p.key, dres, dcov)) {
                        CacheEntry &entry = cache.entries[p.key];
                        if (entry.covered.empty()) {
                            entry.result = std::move(dres);
                            entry.covered = std::move(dcov);
                        } else {
                            // Merge, never overwrite: tier 0 may hold
                            // filters the disk entry predates.
                            foldFilterRows(entry.result, dres);
                            entry.covered.insert(dcov.begin(), dcov.end());
                        }
                        it = cache.entries.find(p.key);
                        if (coversAll(it->second)) {
                            ++cache.hits;
                            ++cache.diskHits;
                            continue;
                        }
                    }
                }
                pend_it = pending.emplace(p.key, PendingJob{r, {}}).first;
            }
            auto &names = pend_it->second.names;
            for (const auto &name : p.names) {
                if ((it == cache.entries.end() ||
                     !it->second.covered.count(name)) &&
                    std::find(names.begin(), names.end(), name) ==
                        names.end()) {
                    names.push_back(name);
                }
            }
        }
    }

    // One concurrent sweep over the misses. Job order follows the key
    // order (a std::map), so the batch is deterministic however the
    // requests were interleaved and whatever jobs count runs it.
    if (!pending.empty()) {
        std::vector<sim::SweepJob> sweepJobs;
        for (const auto &[key, job] : pending) {
            (void)key;
            const RunRequest &req = requests[job.request];
            sim::SweepJob sj;
            sj.app = req.app;
            sj.cfg = req.variant.smpConfig();
            sj.cfg.filterSpecs = job.names;
            sj.accessScale =
                req.accessScale > 0 ? req.accessScale : 1.0;
            sj.traceFiles = req.traceFiles;
            sweepJobs.push_back(std::move(sj));
        }

        std::vector<sim::SweepResult> results =
            sim::SweepRunner(jobs).run(sweepJobs);

        std::lock_guard<std::mutex> lock(cache.mu);
        std::size_t i = 0;
        for (const auto &[key, job] : pending) {
            const RunRequest &req = requests[job.request];
            AppRunResult merged = fromSweep(req.app, std::move(results[i]));
            // Merge rather than overwrite: a concurrent runMany may have
            // stored filters this job did not evaluate. Simulations of
            // the same key are deterministic and filters are passive
            // observers, so folding their per-filter stats into this
            // run's result is exact; coverage only ever grows, which is
            // what keeps the projection below (and other threads')
            // lookups safe.
            CacheEntry &entry = cache.entries[key];
            foldFilterRows(merged, entry.result);
            entry.result = std::move(merged);
            entry.covered.insert(entry.result.filterNames.begin(),
                                 entry.result.filterNames.end());
            ++cache.sims;
            // Persist the freshly simulated (and merged) cell so any
            // later process starts warm. Best effort by contract.
            if (cache.disk)
                cache.disk->publish(key, entry.result, entry.covered);
            ++i;
        }
    }

    // Assemble the answers in request order, restricted to each
    // request's own specs.
    std::vector<AppRunResult> out;
    out.reserve(requests.size());
    {
        std::lock_guard<std::mutex> lock(cache.mu);
        for (std::size_t r = 0; r < requests.size(); ++r) {
            const auto it = cache.entries.find(prepared[r].key);
            if (it == cache.entries.end())
                panic("runMany: request missing from the run cache");
            out.push_back(project(it->second.result, prepared[r].names));
        }
    }
    return out;
}

AppRunResult
runApp(const trace::AppProfile &app, const SystemVariant &variant,
       const std::vector<std::string> &filterSpecs, double accessScale)
{
    RunRequest req;
    req.app = app;
    req.variant = variant;
    req.filterSpecs = filterSpecs;
    req.accessScale = accessScale;
    std::vector<RunRequest> requests;
    requests.push_back(std::move(req));
    return std::move(runMany(requests).front());
}

EnergyResult
evaluateEnergy(const AppRunResult &run, const SystemVariant &variant,
               const std::string &name, energy::AccessMode mode)
{
    const energy::CacheEnergyModel model(variant.l2EnergyGeometry());
    const energy::EnergyAccountant accountant(model);

    const auto base = accountant.baseline(run.traffic, mode);
    const auto with = accountant.withFilter(
        run.traffic, mode, run.statsFor(name).traffic(), run.costsFor(name));

    EnergyResult res;
    res.reductionOverSnoopsPct =
        energy::EnergyAccountant::snoopReductionPct(base, with);
    res.reductionOverAllPct =
        energy::EnergyAccountant::totalReductionPct(base, with);
    return res;
}

} // namespace jetty::experiments
