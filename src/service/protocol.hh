/**
 * @file
 * The one wire protocol: newline-delimited compact JSON, one value per
 * line in each direction, over any stream — a unix socket to `jetty_cli
 * serve`, or the stdin/stdout of a `jetty_cli worker` the distributed
 * coordinator forked. Both ends run the same session loop
 * (service::serveSession, server.hh), so they answer the same verbs.
 *
 * Request:  {"jetty_request": 1,
 *            "verb": "run|shard|ping|stats|shutdown", ...}
 *              run:   "spec": {...}
 *              shard: the shard fields of dist/shard.hh
 * Response: {"jetty_response": 1, "ok": true, ...}
 *        or {"jetty_response": 1, "ok": false, "error": "..."}
 *
 * Every verb answers one response line, except "shard", which answers
 * two, tagged "type": "shard_started" (sent before the shard runs),
 * then "shard_response".
 *
 * Values are framed with json::Value::dumpCompact() — no interior
 * newlines, insertion order preserved — so parse(line) on the far side
 * rebuilds the identical tree and a report relayed through the wire
 * still dump()s to the exact bytes the producing process would have
 * written (the serve/submit bit-identity contract).
 *
 * Versioning: kProtocolVersion is echoed in both directions and checked
 * by readEnvelope(); a message with a version this build does not
 * speak is answered ok=false naming both versions. The payload
 * spec/report/results carry their own schema versions (jetty_spec /
 * jetty_report), so the protocol version only guards the framing.
 */

#ifndef JETTY_SERVICE_PROTOCOL_HH
#define JETTY_SERVICE_PROTOCOL_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/json.hh"

namespace jetty::service
{

constexpr std::uint64_t kProtocolVersion = 1;

/** Upper bound on one framed line (a full sweep report is a few MB;
 *  anything beyond this is a protocol error, not an allocation). */
constexpr std::size_t kMaxLineBytes = 64ull << 20;

/** Create, bind and listen on a unix stream socket at @p path,
 *  replacing a stale socket file. @return the listening fd, or -1 with
 *  @p err set. */
int listenUnix(const std::string &path, std::string *err);

/** Connect to the unix stream socket at @p path. @return the connected
 *  fd, or -1 with @p err set. */
int connectUnix(const std::string &path, std::string *err);

/** Send @p line plus the terminating newline, handling short writes;
 *  never raises SIGPIPE. @return false with @p err set on failure. */
bool sendLine(int fd, const std::string &line, std::string *err);

/** Frame @p v and send it. */
bool sendValue(int fd, const json::Value &v, std::string *err);

/** readLineTimeout() result when the deadline passed before a full
 *  line arrived (no buffered bytes are lost; the caller may retry). */
constexpr int kReadTimedOut = -2;

/** Incremental newline-delimited reader over one fd. */
class LineReader
{
  public:
    explicit LineReader(int fd) : fd_(fd) {}

    /** Read one line (without the newline) into @p line, waiting at
     *  most @p timeoutMs (< 0: no limit) for it to complete; buffered
     *  data is served without waiting.
     *  @return 1 on a line, 0 on clean EOF, -1 with @p err set, or
     *  kReadTimedOut when the deadline passed — partial data stays
     *  buffered, so retrying is always safe. */
    int readLineTimeout(std::string &line, int timeoutMs, std::string *err);

    /** readLineTimeout() without a deadline. */
    int readLine(std::string &line, std::string *err)
    {
        return readLineTimeout(line, -1, err);
    }

    /** A complete line is already buffered: readLine() would return
     *  without touching the fd. Poll-driven callers MUST check this
     *  before sleeping — one read() can buffer several lines, and
     *  poll() cannot see this userspace buffer. */
    bool hasBufferedLine() const
    {
        return buf_.find('\n') != std::string::npos;
    }

  private:
    /** Append one read() of the fd to the buffer. @return 1 on data,
     *  0 on clean EOF, -1 with @p err set (EOF mid-line included). */
    int fill(std::string *err);

    /** Pop a buffered line if one is complete; enforce kMaxLineBytes.
     *  @return 1 (line), -1 (too long), 0 (need more data). */
    int takeBuffered(std::string &line, std::string *err);

    int fd_;
    std::string buf_;
};

/** Read the envelope of a parsed message: an object whose
 *  @p versionKey ("jetty_request" / "jetty_response") is
 *  kProtocolVersion and, given a @p tagKey ("verb" / "type"), whose
 *  tag is a string, stored in @p tag.
 *  @return "" or "<path>.<field>: <what>". */
std::string readEnvelope(const json::Value &msg, const std::string &path,
                         const char *versionKey,
                         const char *tagKey = nullptr,
                         std::string *tag = nullptr);

/** Build the envelope of a "run" request around @p spec. */
json::Value makeRunRequest(json::Value spec);

/** Build a verb-only request ("ping", "stats", "shutdown"). */
json::Value makeRequest(const std::string &verb);

/** Build the common failure response. */
json::Value makeErrorResponse(const std::string &error);

} // namespace jetty::service

#endif // JETTY_SERVICE_PROTOCOL_HH
