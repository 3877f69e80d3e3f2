#include "service/server.hh"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "api/experiment_spec.hh"
#include "dist/shard.hh"
#include "service/executor.hh"
#include "service/protocol.hh"
#include "util/logging.hh"

namespace jetty::service
{

namespace
{

/** Answer one parsed single-response request; never throws, never
 *  fatal()s on bad input — the response carries the failure instead. */
json::Value
handleRequest(const json::Value &req, unsigned jobs, bool &shutdown)
{
    std::string verb;
    std::string err =
        readEnvelope(req, "request", "jetty_request", "verb", &verb);
    if (!err.empty())
        return makeErrorResponse(err);

    json::Value resp = json::Value::object();
    resp.set("jetty_response", kProtocolVersion);

    if (verb == "ping") {
        resp.set("ok", true);
        resp.set("pong", true);
        return resp;
    }
    if (verb == "stats") {
        auto &cache = experiments::RunCache::instance();
        resp.set("ok", true);
        resp.set("simulations", cache.simulations());
        resp.set("hits", cache.hits());
        resp.set("disk_hits", cache.diskHits());
        resp.set("disk_root", cache.diskRoot());
        return resp;
    }
    if (verb == "shutdown") {
        shutdown = true;
        resp.set("ok", true);
        resp.set("stopping", true);
        return resp;
    }
    if (verb != "run")
        return makeErrorResponse("request.verb: unknown verb '" + verb +
                                 "'");

    const json::Value *specNode = req.find("spec");
    if (!specNode)
        return makeErrorResponse("request.spec: missing field");
    api::ExperimentSpec spec = api::ExperimentSpec::fromJson(*specNode,
                                                            &err);
    if (!err.empty())
        return makeErrorResponse(err);

    ExecuteResult result;
    err = executeSpec(std::move(spec), jobs, result);
    if (!err.empty())
        return makeErrorResponse(err);

    resp.set("ok", true);
    resp.set("kind", result.kind);
    resp.set("simulated", result.simulated);
    resp.set("disk_hits", result.diskHits);
    resp.set("mem_hits", result.memHits);
    resp.set("report", std::move(result.report));
    return resp;
}

/** serveShard() result: the session goes on. */
constexpr int kKeepServing = -1;

/** The "shard" verb: shard_started, then the shard_response. A request
 *  that does not read (wrong version, malformed field) is answered by
 *  an ok=false shard_response carrying its best-effort id, so the
 *  coordinator decides whether to retry or abort.
 *  @return kKeepServing, or serveSession()'s exit code. */
int
serveShard(const json::Value &req, unsigned jobs, int outFd,
           std::uint64_t received, const SessionFault &fault)
{
    std::string err;
    dist::ShardRequest shard;
    dist::ShardResponse resp;
    resp.error = dist::shardRequestFromJson(req, shard);
    if (resp.error.empty()) {
        if (!sendValue(outFd,
                       dist::shardStartedToJson(shard.shardId,
                                                shard.attempt),
                       &err))
            return 1;
        if (fault && fault(received))
            return 2;
        resp = dist::executeShard(shard, jobs);
    } else {
        // Each id on its own reader: a malformed one reads as 0.
        json::FieldReader("request").u64(req, "shardId", resp.shardId);
        json::FieldReader("request").u64(req, "attempt", resp.attempt);
    }
    return sendValue(outFd, dist::shardResponseToJson(resp), &err)
               ? kKeepServing
               : 1;
}

} // namespace

int
serveSession(int inFd, int outFd, unsigned jobs, std::atomic<bool> &stop,
             const SessionFault &fault)
{
    LineReader reader(inFd);
    std::string line;
    std::string err;
    std::uint64_t received = 0;
    for (;;) {
        // A bounded read keeps an idle (or wedged) peer from pinning
        // the session open across a stop request: a request already
        // being executed always finishes and gets its response, but
        // between requests the stop flag wins.
        const int got = reader.readLineTimeout(line, 200, &err);
        if (got == kReadTimedOut) {
            if (stop.load())
                return 0;
            continue;
        }
        if (got <= 0)
            return got == 0 ? 0 : 1;  // EOF, or a framing error
        ++received;

        const json::Value req = json::parse(line, &err);
        std::string verb;
        json::FieldReader("request").str(req, "verb", verb);
        if (err.empty() && verb == "shard") {
            const int rc = serveShard(req, jobs, outFd, received, fault);
            if (rc != kKeepServing)
                return rc;
            continue;
        }
        bool shutdown = false;
        const json::Value resp =
            err.empty() ? handleRequest(req, jobs, shutdown)
                        : makeErrorResponse("request parse error: " + err);
        if (!sendValue(outFd, resp, &err))
            return 1;
        if (shutdown) {
            stop.store(true);
            return 0;
        }
    }
}

ExperimentServer::ExperimentServer(ServerConfig cfg) : cfg_(std::move(cfg))
{
}

ExperimentServer::~ExperimentServer()
{
    requestStop();
    reap(true);
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        ::unlink(cfg_.socketPath.c_str());
    }
}

std::string
ExperimentServer::start()
{
    std::string err;
    listenFd_ = listenUnix(cfg_.socketPath, &err);
    return listenFd_ >= 0 ? "" : err;
}

void
ExperimentServer::reap(bool all)
{
    for (auto it = connections_.begin(); it != connections_.end();) {
        if (all || it->done.load()) {
            it->thread.join();
            it = connections_.erase(it);
        } else {
            ++it;
        }
    }
}

void
ExperimentServer::run()
{
    if (listenFd_ < 0)
        panic("ExperimentServer::run() before a successful start()");
    while (!stop_.load()) {
        reap(false);
        // A short poll timeout bounds how long a stop request (signal
        // or shutdown verb) waits for the accept loop to notice.
        struct pollfd pfd = {listenFd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 200);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            warn("serve: poll failed; stopping");
            break;
        }
        if (ready == 0)
            continue;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        Connection &conn = connections_.emplace_back();
        conn.thread = std::thread([this, fd, &conn]() {
            serveSession(fd, fd, cfg_.jobs, stop_);
            ::close(fd);
            conn.done.store(true);
        });
    }
    // Drain: refuse new connections immediately (close and unlink the
    // listening socket), then let every session finish its in-flight
    // request — serveSession() notices stop_ between requests via its
    // read timeout, so the join below is bounded by one job.
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        ::unlink(cfg_.socketPath.c_str());
        listenFd_ = -1;
    }
    reap(true);
}

} // namespace jetty::service
