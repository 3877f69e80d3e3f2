/**
 * @file
 * The experiment service: serveSession(), the one loop that answers
 * protocol.hh requests on an fd pair, and the daemon behind `jetty_cli
 * serve`, which runs one session per unix-socket connection. A forked
 * `jetty_cli worker` is the same session on its stdin/stdout, so the
 * daemon and a distributed-sweep worker answer the same verbs through
 * one shared two-tier RunCache — N clients asking for overlapping
 * sweeps simulate each distinct cell once. Each request's sweep runs on
 * threads of its own (sim/sweep.hh), so k concurrent requests may run
 * up to k x jobs sweep threads.
 *
 * Verbs: "run" (execute a spec, stream the report back), "shard" (one
 * distributed-sweep cell, dist/shard.hh), "ping", "stats" (cache
 * counters), "shutdown" (acknowledge, then stop). Any malformed request
 * gets ok=false; nothing a peer sends can take the process down.
 *
 * Concurrency model: one accept loop (poll with a short timeout so
 * requestStop() is honoured promptly), one thread per connection, each
 * serving any number of requests in order; finished connection threads
 * are joined by the accept loop as it goes. runMany() is safe to call
 * from many threads at once — concurrent jobs interleave on the shared
 * cache exactly like the multi-threaded bench harness does.
 *
 * Graceful drain: requestStop() (SIGTERM/SIGINT path) first closes and
 * unlinks the listening socket — new connections are refused — then
 * every session finishes its in-flight request, sends the response, and
 * exits at its next bounded read; run() returns once all of them have
 * joined.
 */

#ifndef JETTY_SERVICE_SERVER_HH
#define JETTY_SERVICE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <thread>

namespace jetty::service
{

/** Fault injection for a session: called with the 1-based count of
 *  requests the session has received, after a shard's shard_started is
 *  sent and before the shard runs; returning true abandons the session
 *  without responding (a worker dying mid-shard, as the coordinator
 *  observes it). */
using SessionFault = std::function<bool(std::uint64_t)>;

/**
 * Answer requests read from @p inFd on @p outFd until EOF, a transport
 * error, the "shutdown" verb (which sets @p stop), or @p stop — checked
 * between requests, so a request already read is always answered.
 * @param jobs SweepRunner override (0 = SweepRunner default).
 * @return 0 on EOF or stop, 1 on a transport error, 2 when @p fault
 *         abandoned a shard.
 */
int serveSession(int inFd, int outFd, unsigned jobs,
                 std::atomic<bool> &stop, const SessionFault &fault = {});

struct ServerConfig
{
    std::string socketPath = "jetty.sock";
    unsigned jobs = 0;  //!< SweepRunner override (0 = SweepRunner default)
};

class ExperimentServer
{
  public:
    explicit ExperimentServer(ServerConfig cfg);
    ~ExperimentServer();

    ExperimentServer(const ExperimentServer &) = delete;
    ExperimentServer &operator=(const ExperimentServer &) = delete;

    /** Bind and listen. @return "" on success, else the diagnostic. */
    std::string start();

    /** Serve until requestStop(); joins every connection thread and
     *  removes the socket file before returning. */
    void run();

    /** Ask run() to wind down (safe from any thread or a signal
     *  handler — only an atomic store). */
    void requestStop() { stop_.store(true); }

  private:
    struct Connection
    {
        std::atomic<bool> done{false};  //!< set by the thread as it ends
        std::thread thread;
    };

    /** Join the finished connection threads, or every one when @p all
     *  (a joinable thread keeps its stack mapped until joined). */
    void reap(bool all);

    ServerConfig cfg_;
    int listenFd_ = -1;
    std::atomic<bool> stop_{false};
    std::list<Connection> connections_;  //!< run() and ~ only
};

} // namespace jetty::service

#endif // JETTY_SERVICE_SERVER_HH
