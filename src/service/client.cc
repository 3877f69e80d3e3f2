#include "service/client.hh"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "service/protocol.hh"

namespace jetty::service
{

int
connectWithRetry(const std::string &socketPath, const ClientOptions &opts,
                 std::string *err)
{
    using Clock = std::chrono::steady_clock;
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(opts.timeoutSeconds);
    for (unsigned attempt = 0;; ++attempt) {
        const int fd = connectUnix(socketPath, err);
        if (fd >= 0)
            return fd;
        if (attempt >= opts.retries)
            return -1;
        // Deterministic exponential backoff: 50ms * 2^attempt, capped
        // at 1s and at the remaining budget. No jitter on purpose —
        // identical invocations probe at identical offsets, so a
        // flaking connect is reproducible.
        const long backoff =
            std::min(50L << std::min(attempt, 10u), 1000L);
        const auto now = Clock::now();
        if (now >= deadline)
            return -1;
        const long left = std::chrono::duration_cast<
                              std::chrono::milliseconds>(deadline - now)
                              .count();
        std::this_thread::sleep_for(
            std::chrono::milliseconds(std::min(backoff, left)));
    }
}

std::string
requestResponse(const std::string &socketPath, const json::Value &request,
                json::Value &response, const ClientOptions &opts)
{
    std::string err;
    const int fd = connectWithRetry(socketPath, opts, &err);
    if (fd < 0)
        return err;
    if (!sendValue(fd, request, &err)) {
        ::close(fd);
        return err;
    }
    LineReader reader(fd);
    std::string line;
    const int timeoutMs = static_cast<int>(opts.timeoutSeconds * 1000.0);
    const int got = reader.readLineTimeout(line, timeoutMs, &err);
    ::close(fd);
    if (got == kReadTimedOut) {
        return "timed out waiting for the response after " +
               std::to_string(opts.timeoutSeconds) + "s";
    }
    if (got < 0)
        return err;
    if (got == 0)
        return "server closed the connection without answering";
    response = json::parse(line, &err);
    if (!err.empty())
        return "response parse error: " + err;
    return "";
}

std::string
readRunResponse(const json::Value &resp, RunResponse &out)
{
    std::string err = readEnvelope(resp, "response", "jetty_response");
    if (!err.empty())
        return err;
    json::FieldReader rd("response");
    bool ok = false;
    rd.boolean(resp, "ok", ok);
    if (rd.ok() && !ok) {
        rd.str(resp, "error", err);
        return rd.ok() ? "server error: " + err : rd.error();
    }
    RunResponse got;
    rd.str(resp, "kind", got.kind);
    rd.u64(resp, "simulated", got.simulated);
    rd.u64(resp, "disk_hits", got.diskHits);
    rd.u64(resp, "mem_hits", got.memHits);
    got.report = rd.obj(resp, "report");
    if (!rd.ok())
        return rd.error();
    out = got;
    return "";
}

} // namespace jetty::service
