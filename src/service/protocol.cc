#include "service/protocol.hh"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace jetty::service
{

namespace
{

std::string
errnoString()
{
    return std::strerror(errno);
}

/** A unix stream socket and its address for @p path (unix socket
 *  paths are limited to ~107 bytes). @return the fd, or -1 with @p err
 *  set. */
int
unixSocket(const std::string &path, sockaddr_un &addr, std::string *err)
{
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        if (err)
            *err = "socket path too long (" + std::to_string(path.size()) +
                   " bytes, max " +
                   std::to_string(sizeof(addr.sun_path) - 1) + "): " + path;
        return -1;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0 && err)
        *err = "socket: " + errnoString();
    return fd;
}

/** Close @p fd after @p call failed on it. @return -1. */
int
closeFailed(int fd, const std::string &call, std::string *err)
{
    if (err)
        *err = call + ": " + errnoString();
    ::close(fd);
    return -1;
}

} // namespace

int
listenUnix(const std::string &path, std::string *err)
{
    sockaddr_un addr;
    const int fd = unixSocket(path, addr, err);
    if (fd < 0)
        return -1;
    // A previous daemon's socket file blocks bind(); it is only a
    // rendezvous point, so replacing it is always right.
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return closeFailed(fd, "bind " + path, err);
    if (::listen(fd, 64) != 0)
        return closeFailed(fd, "listen " + path, err);
    return fd;
}

int
connectUnix(const std::string &path, std::string *err)
{
    sockaddr_un addr;
    const int fd = unixSocket(path, addr, err);
    if (fd >= 0 && ::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                             sizeof(addr)) != 0)
        return closeFailed(fd, "connect " + path, err);
    return fd;
}

bool
sendLine(int fd, const std::string &line, std::string *err)
{
    std::string framed = line;
    framed.push_back('\n');
    std::size_t sent = 0;
    while (sent < framed.size()) {
        // MSG_NOSIGNAL: a client hanging up mid-response must surface
        // as EPIPE here, not kill the daemon with SIGPIPE. Non-socket
        // fds (a worker attached over pipes) reject send() with
        // ENOTSOCK and take the write() path — those callers ignore
        // SIGPIPE themselves.
        ssize_t n = ::send(fd, framed.data() + sent, framed.size() - sent,
                           MSG_NOSIGNAL);
        if (n < 0 && errno == ENOTSOCK)
            n = ::write(fd, framed.data() + sent, framed.size() - sent);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (err)
                *err = "send: " + errnoString();
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

bool
sendValue(int fd, const json::Value &v, std::string *err)
{
    return sendLine(fd, v.dumpCompact(), err);
}

int
LineReader::takeBuffered(std::string &line, std::string *err)
{
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
        line.assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return 1;
    }
    if (buf_.size() > kMaxLineBytes) {
        if (err)
            *err = "line exceeds " + std::to_string(kMaxLineBytes) +
                   " bytes";
        return -1;
    }
    return 0;
}

int
LineReader::fill(std::string *err)
{
    char chunk[64 * 1024];
    for (;;) {
        // read(), not recv(): the reader also serves non-socket
        // transports (a worker's stdin).
        const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0) {
            if (err)
                *err = "read: " + errnoString();
            return -1;
        }
        if (n == 0) {
            if (buf_.empty())
                return 0;
            if (err)
                *err = "connection closed mid-line";
            return -1;
        }
        buf_.append(chunk, static_cast<std::size_t>(n));
        return 1;
    }
}

int
LineReader::readLineTimeout(std::string &line, int timeoutMs,
                            std::string *err)
{
    using Clock = std::chrono::steady_clock;
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(std::max(timeoutMs, 0));
    for (;;) {
        const int buffered = takeBuffered(line, err);
        if (buffered != 0)
            return buffered;
        long wait = -1;  // poll() without a deadline
        if (timeoutMs >= 0) {
            wait = std::chrono::duration_cast<std::chrono::milliseconds>(
                       deadline - Clock::now())
                       .count();
            if (wait <= 0)
                return kReadTimedOut;
        }
        struct pollfd pfd = {fd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, static_cast<int>(wait));
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            if (err)
                *err = "poll: " + errnoString();
            return -1;
        }
        if (ready == 0)
            return kReadTimedOut;
        const int got = fill(err);
        if (got <= 0)
            return got;
    }
}

std::string
readEnvelope(const json::Value &msg, const std::string &path,
             const char *versionKey, const char *tagKey, std::string *tag)
{
    if (!msg.isObject())
        return path + ": not a JSON object";
    json::FieldReader rd(path);
    std::uint64_t version = 0;
    rd.u64(msg, versionKey, version);
    if (rd.ok() && version != kProtocolVersion) {
        rd.fail(versionKey, "version " + std::to_string(version) +
                                " not supported (this build speaks " +
                                std::to_string(kProtocolVersion) + ")");
    }
    if (tagKey)
        rd.str(msg, tagKey, *tag);
    return rd.error();
}

json::Value
makeRequest(const std::string &verb)
{
    json::Value req = json::Value::object();
    req.set("jetty_request", kProtocolVersion);
    req.set("verb", verb);
    return req;
}

json::Value
makeRunRequest(json::Value spec)
{
    json::Value req = makeRequest("run");
    req.set("spec", std::move(spec));
    return req;
}

json::Value
makeErrorResponse(const std::string &error)
{
    json::Value resp = json::Value::object();
    resp.set("jetty_response", kProtocolVersion);
    resp.set("ok", false);
    resp.set("error", error);
    return resp;
}

} // namespace jetty::service
