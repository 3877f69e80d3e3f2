/**
 * @file
 * serve-mix: an in-process ExperimentServer (one sweep job, disk tier
 * in a fresh temp root) driven by a closed loop of two client
 * connections. Almost nothing is simulated; the workload stresses the
 * protocol, JSON, the RunCache tiers and disk publication, with reads
 * and publishes on one cache side by side.
 *
 * Requests run in rounds. In each round every client sends exactly
 * kRound requests in a seeded order: 70% hot keys (answered from
 * memory), 20% warm keys (on disk only: each warm key is used once per
 * round, and tier 0 is cleared between rounds) and 10% cold keys (unique
 * tiny-scale cells that simulate and publish). Every round starts from a
 * fresh copy of the disk tier as set-up published it. The round boundary
 * is the only point where the clients wait for each other; it lies
 * outside the timed window. The RunCache counters after each round must
 * equal the planned mix exactly.
 */

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <thread>

#include "api/experiment_spec.hh"
#include "experiments/disk_cache.hh"
#include "experiments/experiments.hh"
#include "service/executor.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "stats.hh"
#include "trace/apps.hh"
#include "util/random.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace jetty;

constexpr unsigned kClients = 2;
constexpr unsigned kRound = 100;  //!< requests per client per round
constexpr unsigned kHotPerRound = 70;
constexpr unsigned kWarmPerRound = 20;
constexpr unsigned kColdPerRound = kRound - kHotPerRound - kWarmPerRound;
constexpr int kSetupReps = 3;
constexpr unsigned kResumeEvery = 16;  //!< rounds per second pass
constexpr int kResponseTimeoutMs = 60000;

/** Scale of the hot and warm keys; cold keys add a per-request step so
 *  each is a distinct cell. */
constexpr double kKeyScale = 0.002;
constexpr double kColdScale = 0.001;
constexpr double kColdStep = 1e-7;

enum class Kind
{
    Hot,
    Warm,
    Cold,
};

struct Key
{
    std::string app;
    json::Value request;  //!< the framed "run" request
};

Key
makeKey(const std::string &app, unsigned procs, unsigned buses,
        double scale)
{
    api::ExperimentSpec spec;
    spec.machine.procs = procs;
    spec.machine.buses = buses;
    spec.hasMachine = true;
    spec.apps = {app};
    spec.scale = scale;
    spec.filters = service::defaultFilterSpecs();
    return {app, service::makeRunRequest(spec.toJson())};
}

/** One request a client sends. */
struct Slot
{
    Kind kind = Kind::Hot;
    const Key *key = nullptr;
    Key cold;  //!< the unique key of a cold slot
};

/** A client connection and what it measured in one round. */
struct Client
{
    int fd = -1;
    std::unique_ptr<service::LineReader> reader;
    std::vector<Slot> plan;
    std::vector<double> latencyMs;
    std::size_t failed = 0;
    std::uint64_t coldRefs = 0;
    std::string lastHotLine;  //!< a captured hot response (JSON probes)
};

/** Send @p req and wait for its response. @return false on transport
 *  failure or timeout. */
bool
roundTrip(Client &c, const json::Value &req, std::string &line,
          json::Value &resp)
{
    std::string err;
    if (!service::sendValue(c.fd, req, &err))
        return false;
    if (c.reader->readLineTimeout(line, kResponseTimeoutMs, &err) != 1)
        return false;
    resp = json::parse(line, &err);
    return err.empty();
}

/** Execute this round's plan, closed loop. */
void
runPlan(Tracer &tracer, std::uint64_t parent, Client &c)
{
    Span round(tracer, "bench", "client round", parent);
    std::string line;
    for (const Slot &s : c.plan) {
        const Key &k = s.kind == Kind::Cold ? s.cold : *s.key;
        json::Value resp;
        const auto t0 = Clock::now();
        bool ok;
        {
            Span span(tracer, "service", "request");
            ok = roundTrip(c, k.request, line, resp);
        }
        const double ms = secondsSince(t0) * 1e3;
        const json::Value *okv = ok ? resp.find("ok") : nullptr;
        const json::Value *report = ok ? resp.find("report") : nullptr;
        const json::Value *run0 = report ? report->find("run") : nullptr;
        const json::Value *abbrev = run0 ? run0->find("abbrev") : nullptr;
        ok = okv && okv->isBool() && okv->asBool() && abbrev &&
             abbrev->isString() && abbrev->asString() == k.app;
        if (!ok) {
            ++c.failed;
            continue;
        }
        c.latencyMs.push_back(ms);
        if (s.kind == Kind::Cold) {
            const json::Value *timing = run0->find("timing");
            const json::Value *refs = timing ? timing->find("refs") : nullptr;
            if (refs && refs->isNumber())
                c.coldRefs += refs->asU64();
        } else if (s.kind == Kind::Hot && c.lastHotLine.empty()) {
            c.lastHotLine = line;
        }
    }
}

/** The server, its disk root and the client connections. */
class Rig
{
  public:
    /** Start the server on an empty disk root: the snapshot every
     *  round's disk tier is copied from. */
    Rig(const std::string &tmpRoot)
        : dir_(tmpRoot, "serve"), snapshot_(dir_.sub("snapshot")),
          cacheRoot_(snapshot_)
    {
        auto &cache = experiments::RunCache::instance();
        cache.setDiskRoot(snapshot_);
        cache.clear();
        startServer();
    }

    /**
     * Point the disk tier at a fresh copy of the snapshot. Every round
     * starts from the same disk state, so the tier's size (and the cost
     * of its index) does not grow with the number of rounds a run fits.
     */
    void freshDiskRoot()
    {
        const std::string next =
            dir_.path() + "/round" + std::to_string(rounds_++);
        std::filesystem::copy(snapshot_, next,
                              std::filesystem::copy_options::recursive);
        experiments::RunCache::instance().setDiskRoot(next);
        if (cacheRoot_ != snapshot_)
            std::filesystem::remove_all(cacheRoot_);
        cacheRoot_ = next;
    }

    ~Rig()
    {
        closeClients();
        stopServer();
        experiments::RunCache::instance().setDiskRoot("off");
    }

    Rig(const Rig &) = delete;
    Rig &operator=(const Rig &) = delete;

    /** Stop the server and start a fresh one on the same disk root. */
    void restart()
    {
        closeClients();
        stopServer();
        startServer();
    }

    /** Connect @p n clients. */
    std::string connect(unsigned n)
    {
        for (unsigned i = 0; i < n; ++i) {
            std::string err;
            auto c = std::make_unique<Client>();
            c->fd = service::connectUnix(socket_, &err);
            if (c->fd < 0)
                return err;
            c->reader = std::make_unique<service::LineReader>(c->fd);
            clients_.push_back(std::move(c));
        }
        return "";
    }

    std::vector<std::unique_ptr<Client>> &clients() { return clients_; }
    const std::string &cacheRoot() const { return cacheRoot_; }
    const std::string &dir() const { return dir_.path(); }

  private:
    void startServer()
    {
        service::ServerConfig cfg;
        cfg.socketPath = dir_.path() + "/s" + std::to_string(generation_++) +
                         ".sock";
        cfg.jobs = 1;
        socket_ = cfg.socketPath;
        server_ = std::make_unique<service::ExperimentServer>(cfg);
        const std::string err = server_->start();
        if (!err.empty())
            throw std::runtime_error("serve-mix: " + err);
        thread_ = std::thread([this]() { server_->run(); });
    }

    void stopServer()
    {
        if (!server_)
            return;
        server_->requestStop();
        thread_.join();
        server_.reset();
    }

    void closeClients()
    {
        for (auto &c : clients_)
            ::close(c->fd);
        clients_.clear();
    }

    TempDir dir_;
    std::string snapshot_;
    std::string cacheRoot_;  //!< the attached disk root
    unsigned rounds_ = 0;
    std::string socket_;
    unsigned generation_ = 0;
    std::unique_ptr<service::ExperimentServer> server_;
    std::thread thread_;
    std::vector<std::unique_ptr<Client>> clients_;
};

struct KeySets
{
    std::vector<Key> hot;   //!< the ten paper apps, 4 procs, 1 bus
    std::vector<Key> warm;  //!< the ten apps at procs {2,8} x buses {1,2}
};

KeySets
makeKeySets()
{
    KeySets ks;
    for (const auto &app : trace::paperApps()) {
        ks.hot.push_back(makeKey(app.abbrev, 4, 1, kKeyScale));
        for (const unsigned procs : {2u, 8u}) {
            for (const unsigned buses : {1u, 2u})
                ks.warm.push_back(makeKey(app.abbrev, procs, buses,
                                          kKeyScale));
        }
    }
    return ks;
}

/** Answer every key of @p keys in-process, so the executed cells land
 *  in the RunCache exactly as a served request would put them. */
void
answerInProcess(const std::vector<Key> &keys)
{
    for (const auto &k : keys) {
        service::ExecuteResult res;
        std::string err;
        const api::ExperimentSpec spec =
            api::ExperimentSpec::fromJson(*k.request.find("spec"), &err);
        if (err.empty())
            err = service::executeSpec(spec, 2, res);
        if (!err.empty())
            throw std::runtime_error("serve-mix set-up: " + err);
    }
}

/** Publish the hot and warm keys to the disk snapshot. */
void
populate(const KeySets &ks)
{
    answerInProcess(ks.hot);
    answerInProcess(ks.warm);
}

/** Seeded plans of one round for every client. */
void
planRound(const KeySets &ks, std::vector<std::unique_ptr<Client>> &clients,
          std::uint64_t seed, std::uint64_t round, std::uint64_t &coldSeq)
{
    const auto apps = trace::paperApps();
    for (std::size_t ci = 0; ci < clients.size(); ++ci) {
        Client &c = *clients[ci];
        Rng rng(seed * 1000003ull + round * 7919ull + ci);
        c.plan.clear();
        c.latencyMs.clear();
        c.failed = 0;
        c.coldRefs = 0;
        for (unsigned i = 0; i < kHotPerRound; ++i) {
            Slot s;
            s.kind = Kind::Hot;
            s.key = &ks.hot[rng.below(ks.hot.size())];
            c.plan.push_back(std::move(s));
        }
        // Each client owns its half of the warm keys, one use each.
        for (unsigned i = 0; i < kWarmPerRound; ++i) {
            Slot s;
            s.kind = Kind::Warm;
            s.key = &ks.warm[ci * kWarmPerRound + i];
            c.plan.push_back(std::move(s));
        }
        for (unsigned i = 0; i < kColdPerRound; ++i) {
            Slot s;
            s.kind = Kind::Cold;
            const auto &app = apps[rng.below(apps.size())];
            s.cold = makeKey(app.abbrev, 4, 1,
                             kColdScale + kColdStep * static_cast<double>(
                                                          coldSeq++));
            c.plan.push_back(std::move(s));
        }
        for (std::size_t i = c.plan.size(); i > 1; --i)
            std::swap(c.plan[i - 1], c.plan[rng.below(i)]);
    }
}

/**
 * A restarted server, with tier 0 empty, answers every hot and warm key
 * once, all from disk: the service's second pass. The clients reconnect
 * afterwards.
 */
void
resumePass(Context &ctx, Rig &rig, const KeySets &ks, EndToEnd &e)
{
    auto &cache = experiments::RunCache::instance();
    std::vector<const Key *> keys;
    for (const auto &k : ks.hot)
        keys.push_back(&k);
    for (const auto &k : ks.warm)
        keys.push_back(&k);
    rig.restart();
    rig.freshDiskRoot();
    cache.clear();
    std::string err = rig.connect(1);
    if (!ctx.out.check(err.empty(), "serve-mix: reconnect: " + err))
        return;
    Client &c = *rig.clients().front();
    const std::uint64_t disk0 = cache.diskHits();
    std::size_t ok = 0;
    std::string line;
    {
        Span span(ctx.tracer, "bench", "restart pass");
        const auto t0 = Clock::now();
        for (const Key *k : keys) {
            json::Value resp;
            if (roundTrip(c, k->request, line, resp) && resp.find("ok") &&
                resp.find("ok")->asBool())
                ++ok;
        }
        e.resumeS.push_back(secondsSince(t0));
    }
    ctx.out.check(ok == keys.size() &&
                      cache.diskHits() - disk0 == keys.size(),
                  "serve-mix: the restarted server did not answer every "
                  "key from disk");
    rig.restart();
    err = rig.connect(kClients);
    ctx.out.check(err.empty(), "serve-mix: reconnect: " + err);
}

/** Rounds until @p budget seconds of requests have run; every
 *  kResumeEvery-th round is followed by a second pass. */
void
loopServe(Context &ctx, Rig &rig, const KeySets &ks, double budget,
          EndToEnd &e, std::uint64_t &round, std::uint64_t &coldSeq,
          std::string &hotLine)
{
    auto &cache = experiments::RunCache::instance();
    auto &clients = rig.clients();
    do {
        rig.freshDiskRoot();
        cache.clear();
        answerInProcess(ks.hot);
        const std::uint64_t sims0 = cache.simulations();
        const std::uint64_t hits0 = cache.hits();
        const std::uint64_t disk0 = cache.diskHits();
        planRound(ks, clients, ctx.opts.seed, round++, coldSeq);

        Span span(ctx.tracer, "bench", "round");
        const auto t0 = Clock::now();
        std::vector<std::thread> threads;
        for (auto &c : clients) {
            Client *cp = c.get();
            threads.emplace_back([&ctx, &span, cp]() {
                runPlan(ctx.tracer, span.id(), *cp);
            });
        }
        for (auto &t : threads)
            t.join();
        const double wall = secondsSince(t0);

        std::uint64_t refs = 0;
        std::size_t failed = 0;
        for (auto &c : clients) {
            e.requestMs.insert(e.requestMs.end(), c->latencyMs.begin(),
                               c->latencyMs.end());
            failed += c->failed;
            refs += c->coldRefs;
            if (hotLine.empty())
                hotLine = c->lastHotLine;
        }
        const std::uint64_t n = clients.size();
        const std::uint64_t sims = cache.simulations() - sims0;
        const std::uint64_t disk = cache.diskHits() - disk0;
        const std::uint64_t mem = cache.hits() - hits0 - disk;
        ctx.out.check(sims == n * kColdPerRound &&
                          disk == n * kWarmPerRound &&
                          mem == n * kHotPerRound,
                      "serve-mix: round answered " + std::to_string(sims) +
                          " simulated / " + std::to_string(disk) +
                          " disk / " + std::to_string(mem) +
                          " memory, planned " +
                          std::to_string(n * kColdPerRound) + " / " +
                          std::to_string(n * kWarmPerRound) + " / " +
                          std::to_string(n * kHotPerRound));
        ctx.out.attempted += n * kRound;
        ctx.out.failed += failed;
        e.failedRequests += failed;
        e.windowS += wall;
        e.mrefsPerS.push_back(static_cast<double>(refs) / wall / 1e6);
        if (round % kResumeEvery == 0)
            resumePass(ctx, rig, ks, e);
    } while (e.windowS < budget);
}

/** The stack layers under serve-mix, each timed alone. */
void
addStackProbes(Context &ctx, Rig &rig, const KeySets &ks,
               const std::string &hotLine)
{
    Outcome &out = ctx.out;
    constexpr int kReps = 200;
    std::string err;
    rig.connect(1);
    Client &c = *rig.clients().back();
    {
        Span span(ctx.tracer, "service", "ping");
        const json::Value ping = service::makeRequest("ping");
        std::string line;
        json::Value resp;
        out.add("service.ping_rtt_us",
                medianUs(kReps, [&]() { roundTrip(c, ping, line, resp); }),
                "us");
    }
    {
        Span span(ctx.tracer, "util", "json");
        json::Value parsed;
        out.add("util.json_parse_us", medianUs(kReps, [&]() {
                    parsed = json::parse(hotLine, &err);
                }),
                "us");
        std::string text;
        out.add("util.json_dump_us",
                medianUs(kReps, [&]() { text = parsed.dumpCompact(); }),
                "us");
    }

    // One hot cell, resolved exactly as the server resolves it.
    api::ExperimentSpec spec =
        api::ExperimentSpec::fromJson(*ks.hot.front().request.find("spec"),
                                      &err);
    service::resolveSpec(spec, "run");
    const auto reqs = spec.expand();
    const auto names = service::canonicalFilterNames(spec);
    std::vector<experiments::AppRunResult> runs;
    {
        Span span(ctx.tracer, "experiments", "memory hits");
        out.add("experiments.mem_hit_us", medianUs(kReps, [&]() {
                    runs = experiments::runMany(reqs, 1);
                }),
                "us");
    }
    {
        Span span(ctx.tracer, "api", "buildReport");
        json::Value report;
        out.add("api.build_report_us", medianUs(kReps, [&]() {
                    report = service::buildReport(spec, "run", names, reqs,
                                                  runs);
                }),
                "us");
    }
    {
        Span span(ctx.tracer, "experiments", "disk tier");
        experiments::DiskCache disk(rig.cacheRoot(),
                                    experiments::kDefaultDiskBudgetBytes);
        const std::string key = experiments::runCacheKey(
            reqs.front(), reqs.front().accessScale);
        experiments::AppRunResult hit;
        std::set<std::string> covered;
        bool found = true;
        out.add("experiments.disk_hit_us", medianUs(kReps, [&]() {
                    found &= disk.lookup(key, hit, covered);
                }),
                "us");
        out.check(found, "serve-mix: disk probe missed a published key");

        TempDir pubDir(rig.dir(), "publish");
        experiments::DiskCache pub(pubDir.path(),
                                   experiments::kDefaultDiskBudgetBytes);
        int i = 0;
        out.add("experiments.publish_ms", medianUs(50, [&]() {
                    pub.publish(key + std::to_string(i++), hit, covered);
                }) / 1e3,
                "ms");
    }
}

} // namespace

void
addServiceProbes(Context &ctx)
{
    const KeySets ks = makeKeySets();
    Rig rig(ctx.tmpRoot);
    populate(ks);
    rig.freshDiskRoot();
    const std::string err = rig.connect(1);
    if (!ctx.out.check(err.empty(), "service probes: connect: " + err))
        return;
    // One hot request through the server supplies the response the JSON
    // probes parse and dump.
    Client &c = *rig.clients().front();
    c.plan.resize(1);
    c.plan.front().key = &ks.hot.front();
    runPlan(ctx.tracer, 0, c);
    ctx.out.check(c.failed == 0 && !c.lastHotLine.empty(),
                  "service probes: the hot request failed");
    addStackProbes(ctx, rig, ks, c.lastHotLine);
    ctx.out.add("service.failed", static_cast<double>(c.failed), "count");
}

void
runServeMix(Context &ctx)
{
    EndToEnd e;
    e.limitMs = kResponseTimeoutMs;
    const KeySets ks = makeKeySets();
    std::unique_ptr<Rig> rig;
    for (int i = 0; i < kSetupReps; ++i) {
        rig.reset();
        const auto t0 = Clock::now();
        rig = std::make_unique<Rig>(ctx.tmpRoot);
        populate(ks);
        const std::string err = rig->connect(kClients);
        if (!err.empty())
            throw std::runtime_error("serve-mix: connect: " + err);
        e.setupS.push_back(secondsSince(t0));
    }

    std::uint64_t round = 0;
    std::uint64_t coldSeq = 0;
    std::string hotLine;
    if (!ctx.opts.trace) {
        loopServe(ctx, *rig, ks, ctx.opts.seconds * 0.8, e, round, coldSeq,
                  hotLine);
        emitEndToEnd(ctx, e);
    } else {
        EndToEnd traced;
        loopServe(ctx, *rig, ks, ctx.opts.seconds * 0.3, e, round, coldSeq,
                  hotLine);
        ctx.tracer.setEnabled(true);
        loopServe(ctx, *rig, ks, ctx.opts.seconds * 0.3, traced, round,
                  coldSeq, hotLine);
        addTraceOverhead(ctx, e, traced);
        addStackProbes(ctx, *rig, ks, hotLine);
        ctx.out.add("service.failed",
                    static_cast<double>(e.failedRequests +
                                        traced.failedRequests),
                    "count");
    }

    // The digest covers the simulated content of every hot and warm key
    // (host-time fields blanked), answered in-process from the tiers.
    json::Value all = json::Value::array();
    std::vector<experiments::AppRunResult> runs;
    for (const auto *set : {&ks.hot, &ks.warm}) {
        for (const auto &k : *set) {
            service::ExecuteResult res;
            std::string err;
            const api::ExperimentSpec spec =
                api::ExperimentSpec::fromJson(*k.request.find("spec"), &err);
            if (err.empty())
                err = service::executeSpec(spec, 1, res);
            ctx.out.check(err.empty(), "serve-mix: " + err);
            all.push(normalizeReport(res.report));
            runs.insert(runs.end(), res.runs.begin(), res.runs.end());
        }
    }
    if (ctx.opts.trace)
        addRunCounters(ctx.out, runs);
    checkExpectedDigest(ctx, digestHex(all.dump()));
}

} // namespace perfbench
