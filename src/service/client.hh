/**
 * @file
 * Client side of the experiment service (`jetty_cli submit`): connect
 * to a serve daemon's unix socket, send one framed request, read one
 * framed response.
 *
 * Both phases are bounded: connecting retries with deterministic
 * exponential backoff (50 ms doubling per attempt, capped at 1 s —
 * no jitter, so two identical invocations probe at identical offsets)
 * up to `retries` extra attempts within `timeoutSeconds`, and the
 * response read gives up after `timeoutSeconds` — a wedged daemon
 * yields a diagnostic, never a hung client.
 */

#ifndef JETTY_SERVICE_CLIENT_HH
#define JETTY_SERVICE_CLIENT_HH

#include <cstdint>
#include <string>

#include "util/json.hh"

namespace jetty::service
{

struct ClientOptions
{
    /** Budget for the connect phase AND for awaiting the response. */
    double timeoutSeconds = 10.0;

    /** Connect attempts beyond the first (each preceded by the
     *  deterministic backoff sleep). */
    unsigned retries = 8;
};

/**
 * Connect to @p socketPath, retrying with bounded deterministic
 * backoff (a just-launched daemon needs a moment to bind).
 * @return the connected fd, or -1 with @p err set.
 */
int connectWithRetry(const std::string &socketPath,
                     const ClientOptions &opts, std::string *err);

/**
 * One request/response round trip on a fresh connection.
 * @return "" with @p response filled on success (the response may still
 *         carry ok=false — a server-side failure is the caller's to
 *         inspect); a transport failure or timeout otherwise.
 */
std::string requestResponse(const std::string &socketPath,
                            const json::Value &request,
                            json::Value &response,
                            const ClientOptions &opts = ClientOptions());

/** The answer to a "run" request. */
struct RunResponse
{
    std::string kind;  //!< the executed verb ("run" / "sweep")
    std::uint64_t simulated = 0;
    std::uint64_t diskHits = 0;
    std::uint64_t memHits = 0;
    const json::Value *report = nullptr;  //!< into the read response
};

/**
 * Read the answer to a "run" request: its envelope (readEnvelope),
 * then ok and either error or kind/simulated/disk_hits/mem_hits/report
 * through json::FieldReader("response"). An ok=false answer reads as
 * "server error: <error>".
 * @return "" with @p out filled, or the first failure
 *         ("response.<field>: <what>"); no answer aborts the process.
 */
std::string readRunResponse(const json::Value &resp, RunResponse &out);

} // namespace jetty::service

#endif // JETTY_SERVICE_CLIENT_HH
