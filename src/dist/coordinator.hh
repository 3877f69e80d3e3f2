/**
 * @file
 * The coordinator half of the distributed sweep subsystem: expand a
 * resolved sweep spec into one-cell shards, send them to worker
 * sessions as `shard` requests (dist/shard.hh), and merge the answers into
 * a Report byte-identical to what a single-process `sweep` of the same
 * spec would have written (service::buildReport is the shared
 * constructor, and every result cell is keyed by the canonical
 * runCacheKey text, so identity holds by construction).
 *
 * Robustness model (single-threaded poll loop; workers are processes
 * or threads behind fd pairs):
 *
 *  - **Work stealing**: when the queue is empty and a worker sits
 *    idle, the oldest in-flight shard past `stealAfterSeconds` is
 *    assigned a second time. The first response wins; the straggler's
 *    late duplicate is discarded and logged ("duplicate" event).
 *  - **Bounded retry**: a worker death (EOF / transport error, any
 *    time including mid-shard) or an ok=false response re-queues the
 *    shard, up to `maxRetries` failures per shard; the factory (when
 *    provided) respawns up to `maxRespawns` replacement workers.
 *  - **Resume ledger**: with `ledgerDir` set, every completed cell is
 *    journaled atomically (dist/ledger.hh, a disk RunCache tier rooted
 *    at that directory); a later campaign loads a finished cell from
 *    the ledger without dispatching it ("resumed" events) when the
 *    journaled cell covers every filter the campaign reports, and
 *    dispatches it otherwise. Disk-tier RunCache entries complement
 *    this: a re-dispatched cell that is already in the shared cache
 *    answers as a disk hit, not a re-simulation — and since a ledger
 *    is a cache root, `ledgerDir` may be the workers' cache root.
 *  - **Observability**: every state change emits a structured
 *    ShardEvent (assigned / started / completed / stolen / retried /
 *    resumed / duplicate / worker_died) with wall time and
 *    simulated-vs-cache-hit counters, streamed to `eventSink` and
 *    collected on the CampaignResult.
 */

#ifndef JETTY_DIST_COORDINATOR_HH
#define JETTY_DIST_COORDINATOR_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/experiment_spec.hh"
#include "dist/ledger.hh"
#include "dist/shard.hh"
#include "service/protocol.hh"
#include "util/json.hh"

namespace jetty::dist
{

/** One structured progress event of a campaign. */
struct ShardEvent
{
    std::string type;  //!< assigned/started/completed/stolen/retried/
                       //!< resumed/duplicate/worker_died
    std::uint64_t shardId = 0;
    std::uint64_t attempt = 0;
    int worker = -1;   //!< worker index (-1 when not worker-bound)
    double wallSeconds = 0;
    std::uint64_t simulated = 0;
    std::uint64_t diskHits = 0;
    std::uint64_t memHits = 0;
    std::string detail;

    json::Value toJson() const;
};

/** A worker the coordinator talks to: two fds (which may be the same
 *  fd, e.g. a socket) and, for locally spawned processes, the pid to
 *  reap. */
struct WorkerEndpoint
{
    int readFd = -1;   //!< responses arrive here
    int writeFd = -1;  //!< requests leave here
    long pid = -1;     //!< reaped on death/teardown when >= 0
};

struct CoordinatorConfig
{
    /** Failed attempts tolerated per shard beyond the first. */
    unsigned maxRetries = 2;

    /** Replacement workers the factory may be asked for after deaths. */
    unsigned maxRespawns = 2;

    /** Steal an in-flight shard for an idle worker after this long
     *  (<= 0 disables stealing). */
    double stealAfterSeconds = 30.0;

    /** Resume ledger directory ("" = no ledger). */
    std::string ledgerDir;

    /** Workers to obtain from the factory before dispatching. */
    unsigned spawnWorkers = 0;

    /** Spawns one worker (initial or replacement). @return false with
     *  the error described to refuse. */
    std::function<bool(WorkerEndpoint &, std::string *)> factory;

    /** Streamed progress events (also collected on the result). */
    std::function<void(const ShardEvent &)> eventSink;
};

/** Everything one distributed campaign produced. The report field is
 *  the byte-identity artifact; the counters aggregate the per-shard
 *  responses plus coordinator-side bookkeeping. */
struct CampaignResult
{
    api::ExperimentSpec spec;
    std::vector<std::string> filterNames;
    std::vector<experiments::RunRequest> requests;
    std::vector<experiments::AppRunResult> runs;
    json::Value report;
    std::vector<ShardEvent> events;

    std::uint64_t shards = 0;
    std::uint64_t simulated = 0;
    std::uint64_t diskHits = 0;
    std::uint64_t memHits = 0;
    std::uint64_t resumed = 0;
    std::uint64_t stolen = 0;
    std::uint64_t retried = 0;
    std::uint64_t duplicates = 0;
    double wallSeconds = 0;
};

/**
 * The cell-key-indexed table the merger fills. First-writer-wins: a
 * duplicate cell (a stolen-then-completed shard's second answer) is
 * counted, not an error; an unknown cell key is a dotted-path error.
 * Exposed separately from the Coordinator so the merge edge cases are
 * unit-testable without a transport.
 */
class MergeTable
{
  public:
    explicit MergeTable(std::vector<std::string> cellKeys);

    /** Apply one ok response. An empty results array is a no-op.
     *  @return "" on success, else the dotted-path diagnostic. */
    std::string apply(const ShardResponse &resp, std::uint64_t *duplicates);

    bool complete() const;
    std::vector<std::string> missingKeys() const;

    /** The merged runs in expansion order; panics unless complete(). */
    std::vector<experiments::AppRunResult> takeRuns();

  private:
    std::vector<std::string> keys_;
    std::vector<bool> filled_;
    std::vector<experiments::AppRunResult> cells_;
    std::map<std::string, std::size_t> index_;
};

class Coordinator
{
  public:
    explicit Coordinator(CoordinatorConfig cfg);
    ~Coordinator();

    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    /** Attach an externally managed worker (test threads, remote
     *  streams). Must precede run(). */
    void attachWorker(const WorkerEndpoint &ep);

    /**
     * Run one campaign over @p spec (already resolved for "sweep").
     * Closes and reaps every worker before returning, so callers may
     * join worker threads immediately after. Single-use.
     * @return "" with @p out filled on success, else the diagnostic.
     */
    std::string run(const api::ExperimentSpec &spec, CampaignResult &out);

  private:
    struct Worker
    {
        WorkerEndpoint ep;
        std::unique_ptr<service::LineReader> reader;
        bool alive = true;
        bool busy = false;
        std::size_t shard = 0;  //!< valid while busy
        std::uint64_t attempt = 0;
        std::chrono::steady_clock::time_point assignedAt;
    };

    struct ShardState
    {
        std::uint64_t attempts = 0;  //!< assignments issued
        unsigned failures = 0;
        unsigned outstanding = 0;  //!< live assignments (2 when stolen)
        bool done = false;
    };

    void emit(ShardEvent ev);
    void assign(std::size_t w, std::size_t s, bool stolen);
    void workerDied(std::size_t w, const std::string &why);
    void shardFailed(std::size_t s, int worker, const std::string &why);
    void handleLine(std::size_t w);
    void closeWorker(std::size_t w);
    bool trySpawn(std::string *err);

    CoordinatorConfig cfg_;
    std::vector<Worker> workers_;
    std::vector<ShardState> shards_;
    std::vector<std::string> keys_;
    std::vector<json::Value> shardSpecs_;
    std::deque<std::size_t> pending_;
    std::unique_ptr<MergeTable> table_;
    Ledger ledger_;
    CampaignResult *out_ = nullptr;
    unsigned respawnsUsed_ = 0;
    std::string fail_;  //!< first unrecoverable campaign error
};

} // namespace jetty::dist

#endif // JETTY_DIST_COORDINATOR_HH
