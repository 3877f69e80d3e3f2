#include "dist/coordinator.hh"

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <set>
#include <utility>

#include "service/executor.hh"
#include "util/logging.hh"

namespace jetty::dist
{

using Clock = std::chrono::steady_clock;

json::Value
ShardEvent::toJson() const
{
    json::Value v = json::Value::object();
    v.set("type", type);
    v.set("shard", shardId);
    v.set("attempt", attempt);
    v.set("worker", worker);
    v.set("wall_seconds", wallSeconds);
    v.set("simulated", simulated);
    v.set("disk_hits", diskHits);
    v.set("mem_hits", memHits);
    v.set("detail", detail);
    return v;
}

MergeTable::MergeTable(std::vector<std::string> cellKeys)
    : keys_(std::move(cellKeys)), filled_(keys_.size(), false),
      cells_(keys_.size())
{
    for (std::size_t i = 0; i < keys_.size(); ++i)
        index_.emplace(keys_[i], i);
}

std::string
MergeTable::apply(const ShardResponse &resp, std::uint64_t *duplicates)
{
    for (std::size_t i = 0; i < resp.results.size(); ++i) {
        const ShardCell &cell = resp.results[i];
        const auto it = index_.find(cell.key);
        if (it == index_.end()) {
            return "shard_response.results[" + std::to_string(i) +
                   "].key: unknown cell key '" + cell.key + "'";
        }
        if (filled_[it->second]) {
            // First-writer-wins: the earlier answer (same canonical
            // cell, so a value-identical simulation) stays.
            if (duplicates)
                ++*duplicates;
            continue;
        }
        cells_[it->second] = cell.result;
        filled_[it->second] = true;
    }
    return "";
}

bool
MergeTable::complete() const
{
    return std::find(filled_.begin(), filled_.end(), false) ==
           filled_.end();
}

std::vector<std::string>
MergeTable::missingKeys() const
{
    std::vector<std::string> missing;
    for (std::size_t i = 0; i < keys_.size(); ++i) {
        if (!filled_[i])
            missing.push_back(keys_[i]);
    }
    return missing;
}

std::vector<experiments::AppRunResult>
MergeTable::takeRuns()
{
    if (!complete())
        panic("MergeTable::takeRuns() with unfilled cells");
    return std::move(cells_);
}

Coordinator::Coordinator(CoordinatorConfig cfg) : cfg_(std::move(cfg)) {}

Coordinator::~Coordinator()
{
    for (std::size_t w = 0; w < workers_.size(); ++w)
        closeWorker(w);
}

void
Coordinator::attachWorker(const WorkerEndpoint &ep)
{
    Worker wk;
    wk.ep = ep;
    wk.reader = std::make_unique<service::LineReader>(ep.readFd);
    workers_.push_back(std::move(wk));
}

void
Coordinator::closeWorker(std::size_t w)
{
    Worker &wk = workers_[w];
    if (wk.ep.writeFd >= 0)
        ::close(wk.ep.writeFd);
    if (wk.ep.readFd >= 0 && wk.ep.readFd != wk.ep.writeFd)
        ::close(wk.ep.readFd);
    wk.ep.writeFd = wk.ep.readFd = -1;
    if (wk.ep.pid >= 0) {
        // The worker saw EOF on its request fd (or died — that is why
        // we are here); it exits its loop promptly, so a blocking reap
        // is bounded by its in-flight shard.
        int status = 0;
        while (::waitpid(static_cast<pid_t>(wk.ep.pid), &status, 0) < 0 &&
               errno == EINTR) {
        }
        wk.ep.pid = -1;
    }
    wk.alive = false;
}

bool
Coordinator::trySpawn(std::string *err)
{
    if (!cfg_.factory)
        return false;
    WorkerEndpoint ep;
    if (!cfg_.factory(ep, err))
        return false;
    attachWorker(ep);
    return true;
}

void
Coordinator::emit(ShardEvent ev)
{
    if (cfg_.eventSink)
        cfg_.eventSink(ev);
    if (out_)
        out_->events.push_back(std::move(ev));
}

void
Coordinator::assign(std::size_t w, std::size_t s, bool stolen)
{
    Worker &wk = workers_[w];
    ShardState &st = shards_[s];
    ++st.attempts;
    ++st.outstanding;
    wk.busy = true;
    wk.shard = s;
    wk.attempt = st.attempts;
    wk.assignedAt = Clock::now();

    ShardEvent ev;
    ev.type = stolen ? "stolen" : "assigned";
    ev.shardId = s;
    ev.attempt = st.attempts;
    ev.worker = static_cast<int>(w);
    emit(std::move(ev));

    ShardRequest req;
    req.shardId = s;
    req.attempt = st.attempts;
    req.cacheKey = keys_[s];
    req.spec = shardSpecs_[s];
    std::string err;
    if (!service::sendValue(wk.ep.writeFd, shardRequestToJson(req), &err))
        workerDied(w, "send: " + err);
}

void
Coordinator::shardFailed(std::size_t s, int worker, const std::string &why)
{
    ShardState &st = shards_[s];
    ++st.failures;
    if (st.failures > cfg_.maxRetries) {
        if (fail_.empty()) {
            fail_ = "shard " + std::to_string(s) + " failed after " +
                    std::to_string(st.failures) + " attempt(s): " + why;
        }
        return;
    }
    pending_.push_back(s);
    if (out_)
        ++out_->retried;
    ShardEvent ev;
    ev.type = "retried";
    ev.shardId = s;
    ev.attempt = st.attempts;
    ev.worker = worker;
    ev.detail = why;
    emit(std::move(ev));
}

void
Coordinator::workerDied(std::size_t w, const std::string &why)
{
    Worker &wk = workers_[w];
    const bool wasBusy = wk.busy;
    const std::size_t s = wk.shard;
    wk.busy = false;
    closeWorker(w);

    ShardEvent ev;
    ev.type = "worker_died";
    ev.worker = static_cast<int>(w);
    if (wasBusy) {
        ev.shardId = s;
        ev.attempt = wk.attempt;
    }
    ev.detail = why;
    emit(std::move(ev));

    if (wasBusy) {
        ShardState &st = shards_[s];
        --st.outstanding;
        // With a stolen copy still in flight the shard needs no retry
        // yet; if that copy dies too, its own death re-queues it.
        if (!st.done && st.outstanding == 0) {
            shardFailed(s, static_cast<int>(w),
                        "worker died mid-shard: " + why);
        }
    }

    if (respawnsUsed_ < cfg_.maxRespawns && cfg_.factory) {
        std::string err;
        if (trySpawn(&err)) {
            ++respawnsUsed_;
        } else if (!err.empty()) {
            warn("dist: worker respawn failed: " + err);
        }
    }
}

void
Coordinator::handleLine(std::size_t w)
{
    Worker &wk = workers_[w];
    std::string line;
    std::string err;
    const int got = wk.reader->readLine(line, &err);
    if (got == 0) {
        workerDied(w, "connection closed");
        return;
    }
    if (got < 0) {
        workerDied(w, err);
        return;
    }
    const json::Value msg = json::parse(line, &err);
    if (!err.empty()) {
        workerDied(w, "protocol breach (unparseable line): " + err);
        return;
    }
    const std::string type = shardMessageType(msg);
    if (type == "shard_started") {
        ShardEvent ev;
        ev.type = "started";
        ev.shardId = wk.shard;
        ev.attempt = wk.attempt;
        ev.worker = static_cast<int>(w);
        emit(std::move(ev));
        return;
    }
    if (type != "shard_response") {
        workerDied(w, "protocol breach (unexpected message type '" + type +
                          "')");
        return;
    }
    ShardResponse resp;
    const std::string perr = shardResponseFromJson(msg, resp);
    if (!perr.empty()) {
        workerDied(w, perr);
        return;
    }
    if (!wk.busy || resp.shardId != wk.shard) {
        workerDied(w, "protocol breach (response for shard " +
                          std::to_string(resp.shardId) +
                          " it was not assigned)");
        return;
    }

    const std::size_t s = wk.shard;
    wk.busy = false;
    ShardState &st = shards_[s];
    --st.outstanding;

    if (st.done) {
        // A stolen shard completed twice; the first answer already
        // merged (first-writer-wins), this one is logged and dropped.
        if (out_)
            ++out_->duplicates;
        ShardEvent ev;
        ev.type = "duplicate";
        ev.shardId = s;
        ev.attempt = resp.attempt;
        ev.worker = static_cast<int>(w);
        ev.detail = "first-writer-wins; late result discarded";
        emit(std::move(ev));
        return;
    }
    if (!resp.ok) {
        shardFailed(s, static_cast<int>(w), resp.error);
        return;
    }
    std::uint64_t dups = 0;
    const std::string merr = table_->apply(resp, &dups);
    if (!merr.empty()) {
        if (fail_.empty())
            fail_ = merr;
        return;
    }
    st.done = true;
    if (out_) {
        out_->duplicates += dups;
        out_->simulated += resp.simulated;
        out_->diskHits += resp.diskHits;
        out_->memHits += resp.memHits;
    }
    if (ledger_.isOpen()) {
        const std::string lerr = ledger_.publish(keys_[s], resp);
        if (!lerr.empty())
            warn("dist: ledger publish failed: " + lerr);
    }
    ShardEvent ev;
    ev.type = "completed";
    ev.shardId = s;
    ev.attempt = resp.attempt;
    ev.worker = static_cast<int>(w);
    ev.wallSeconds = resp.wallSeconds;
    ev.simulated = resp.simulated;
    ev.diskHits = resp.diskHits;
    ev.memHits = resp.memHits;
    emit(std::move(ev));
}

std::string
Coordinator::run(const api::ExperimentSpec &spec, CampaignResult &out)
{
    const auto tStart = Clock::now();

    out = CampaignResult();
    out_ = &out;
    out.spec = spec;
    out.filterNames = service::canonicalFilterNames(spec);
    out.requests = spec.expand();
    for (auto &req : out.requests)
        req.filterSpecs = out.filterNames;
    if (out.requests.empty())
        return "sweep expands to zero cells";

    const std::size_t n = out.requests.size();
    out.shards = n;
    shards_.assign(n, ShardState());
    keys_.clear();
    shardSpecs_.clear();
    for (const auto &req : out.requests) {
        keys_.push_back(cellCacheKey(req));
        shardSpecs_.push_back(
            shardSpec(spec, out.filterNames, req).toJson());
    }
    table_ = std::make_unique<MergeTable>(keys_);

    if (!cfg_.ledgerDir.empty()) {
        const std::string lerr = ledger_.open(cfg_.ledgerDir);
        if (!lerr.empty())
            return lerr;
    }
    // A journaled cell resumes only if it holds a row for every filter
    // this campaign reports; a cell journaled under another filter list
    // is dispatched again (and its new answer re-journaled).
    const std::set<std::string> wanted(out.filterNames.begin(),
                                       out.filterNames.end());
    for (std::size_t s = 0; s < n; ++s) {
        ShardResponse resumed;
        std::set<std::string> covered;
        if (ledger_.isOpen() &&
            ledger_.lookup(keys_[s], resumed, &covered) &&
            std::includes(covered.begin(), covered.end(), wanted.begin(),
                          wanted.end()) &&
            table_->apply(resumed, nullptr).empty()) {
            shards_[s].done = true;
            ++out.resumed;
            ShardEvent ev;
            ev.type = "resumed";
            ev.shardId = s;
            ev.detail = "loaded from ledger " + ledger_.dir();
            emit(std::move(ev));
            continue;
        }
        pending_.push_back(s);
    }

    for (unsigned i = 0; i < cfg_.spawnWorkers; ++i) {
        std::string serr;
        if (!trySpawn(&serr)) {
            return "failed to spawn worker " + std::to_string(i) + ": " +
                   (serr.empty() ? "no worker factory configured" : serr);
        }
    }

    auto allDone = [this]() {
        for (const auto &st : shards_) {
            if (!st.done)
                return false;
        }
        return true;
    };
    auto nextPending = [this]() -> long {
        while (!pending_.empty()) {
            const std::size_t s = pending_.front();
            if (shards_[s].done) {
                pending_.pop_front();
                continue;
            }
            return static_cast<long>(s);
        }
        return -1;
    };

    while (!allDone() && fail_.empty()) {
        // 1. Dispatch queued shards to idle workers.
        for (std::size_t w = 0; w < workers_.size(); ++w) {
            if (!workers_[w].alive || workers_[w].busy)
                continue;
            const long s = nextPending();
            if (s < 0)
                break;
            pending_.pop_front();
            assign(w, static_cast<std::size_t>(s), false);
        }
        if (fail_.empty() && !allDone() && nextPending() < 0 &&
            cfg_.stealAfterSeconds > 0) {
            // 2. Queue empty, work still in flight: put idle workers on
            // the oldest straggler (one steal per shard at a time).
            for (std::size_t w = 0; w < workers_.size(); ++w) {
                if (!workers_[w].alive || workers_[w].busy)
                    continue;
                long victim = -1;
                for (std::size_t v = 0; v < workers_.size(); ++v) {
                    const Worker &wv = workers_[v];
                    if (!wv.alive || !wv.busy ||
                        shards_[wv.shard].done ||
                        shards_[wv.shard].outstanding != 1)
                        continue;
                    const double elapsed =
                        std::chrono::duration<double>(Clock::now() -
                                                      wv.assignedAt)
                            .count();
                    if (elapsed <= cfg_.stealAfterSeconds)
                        continue;
                    if (victim < 0 ||
                        wv.assignedAt <
                            workers_[static_cast<std::size_t>(victim)]
                                .assignedAt)
                        victim = static_cast<long>(v);
                }
                if (victim < 0)
                    break;
                const std::size_t s =
                    workers_[static_cast<std::size_t>(victim)].shard;
                assign(w, s, true);
                ++out.stolen;
            }
        }
        if (!fail_.empty() || allDone())
            break;

        // 3. Wait for responses (or deaths) on every live worker.
        std::vector<struct pollfd> fds;
        std::vector<std::size_t> fdWorker;
        for (std::size_t w = 0; w < workers_.size(); ++w) {
            if (!workers_[w].alive)
                continue;
            fds.push_back({workers_[w].ep.readFd, POLLIN, 0});
            fdWorker.push_back(w);
        }
        if (fds.empty()) {
            std::string serr;
            if (respawnsUsed_ < cfg_.maxRespawns && trySpawn(&serr)) {
                ++respawnsUsed_;
                continue;
            }
            return "every worker died with " +
                   std::to_string(table_->missingKeys().size()) +
                   " cell(s) unfinished" +
                   (serr.empty() ? "" : " (respawn failed: " + serr + ")");
        }
        const int ready =
            ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 100);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return "poll: " + std::string(std::strerror(errno));
        }
        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            const std::size_t w = fdWorker[i];
            handleLine(w);
            // One read() can buffer several lines (shard_started plus
            // an instant cache-hit response); poll() cannot see the
            // reader's userspace buffer, so drain it before sleeping —
            // an undrained line would wedge the campaign.
            while (workers_[w].alive &&
                   workers_[w].reader->hasBufferedLine())
                handleLine(w);
        }
    }

    // Wind down before reporting: workers see EOF and exit, so callers
    // can join worker threads / reap processes deterministically.
    for (std::size_t w = 0; w < workers_.size(); ++w)
        closeWorker(w);

    if (!fail_.empty())
        return fail_;
    if (!table_->complete()) {
        const auto missing = table_->missingKeys();
        return "campaign finished with " + std::to_string(missing.size()) +
               " unfilled cell(s); first missing key: " + missing.front();
    }
    out.runs = table_->takeRuns();
    out.report = service::buildReport(spec, "sweep", out.filterNames,
                                      out.requests, out.runs);
    out.wallSeconds =
        std::chrono::duration<double>(Clock::now() - tStart).count();
    out_ = nullptr;
    return "";
}

} // namespace jetty::dist
