/**
 * @file
 * The distributed sweep's unit of work: one sweep cell as a "shard"
 * request of the one wire protocol (service/protocol.hh), and its
 * execution. A coordinator sends it to any session — the stdin of a
 * forked `jetty_cli worker`, or a `jetty_cli serve` socket — and
 * service::serveSession answers with two response lines.
 *
 *   request:  {"jetty_request": 1, "verb": "shard",
 *              "shardId": N, "attempt": N, "cacheKey": "...",
 *              "spec": {...standalone ExperimentSpec...}}
 *   started:  {"jetty_response": 1, "type": "shard_started", "ok": true,
 *              "shardId": N, "attempt": N}
 *   response: {"jetty_response": 1, "type": "shard_response",
 *              "shardId": N, "attempt": N, "ok": true/false,
 *              "error": "...", "simulated": N, "diskHits": N,
 *              "memHits": N, "wallSeconds": S,
 *              "results": [{"key": "...", "result": {...}}]}
 *
 * Every shard spec is a valid standalone ExperimentSpec (a one-cell
 * sweep), and every result cell is keyed by the same canonical
 * runCacheKey text the RunCache uses — the coordinator and the worker
 * each derive the key independently, so a disagreement is detected as a
 * cross-process determinism violation instead of silently merging the
 * wrong cell.
 *
 * Readers are validating (json::FieldReader) and report the first
 * failure with a dotted path ("shard_response.jetty_response: version
 * 2 not supported ..."), so a protocol-version mismatch or a malformed
 * field names exactly where the wire and this build disagree.
 */

#ifndef JETTY_DIST_SHARD_HH
#define JETTY_DIST_SHARD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "api/experiment_spec.hh"
#include "experiments/experiments.hh"
#include "util/json.hh"

namespace jetty::dist
{

/** One unit of distributable work: a standalone one-cell spec. */
struct ShardRequest
{
    std::uint64_t shardId = 0;
    std::uint64_t attempt = 0;  //!< 1-based; bumped per (re)assignment
    std::string cacheKey;       //!< canonical runCacheKey of the cell
    json::Value spec;           //!< standalone ExperimentSpec document
};

/** One merged result cell: canonical key plus the full run result. */
struct ShardCell
{
    std::string key;
    experiments::AppRunResult result;
};

/** A worker's answer for one shard (ok=false carries the diagnostic;
 *  the results array may legally be empty — an empty shard merges as a
 *  no-op and campaign completeness is checked per cell, not per
 *  message). */
struct ShardResponse
{
    std::uint64_t shardId = 0;
    std::uint64_t attempt = 0;
    bool ok = false;
    std::string error;
    std::uint64_t simulated = 0;
    std::uint64_t diskHits = 0;
    std::uint64_t memHits = 0;
    double wallSeconds = 0;
    std::vector<ShardCell> results;
};

/** Canonical RunCache key of one expanded cell — the identity runMany()
 *  itself caches under, shared by coordinator and worker so both sides
 *  derive it independently. */
std::string cellCacheKey(const experiments::RunRequest &req);

/** The standalone one-cell spec for one expanded request of a resolved
 *  sweep spec: the sweep spec with the cell's (procs, buses) pinned on
 *  both the machine and the sweep axes, the cell's app as the only
 *  workload entry, and the coordinator's canonical filter names (worker
 *  re-canonicalization is idempotent). */
api::ExperimentSpec shardSpec(const api::ExperimentSpec &sweep,
                              const std::vector<std::string> &canonicalFilters,
                              const experiments::RunRequest &req);

/** The "type" tag of a parsed response line ("" when absent). */
std::string shardMessageType(const json::Value &v);

json::Value shardRequestToJson(const ShardRequest &req);
json::Value shardStartedToJson(std::uint64_t shardId, std::uint64_t attempt);
json::Value shardResponseToJson(const ShardResponse &resp);

/** Validating readers: @return "" on success, else a dotted-path
 *  diagnostic ("shard_request.cacheKey: not a string"). @p out is only
 *  assigned on success. */
std::string shardRequestFromJson(const json::Value &v, ShardRequest &out);
std::string shardResponseFromJson(const json::Value &v, ShardResponse &out);

/** Execute one shard through the shared RunCache: the shard spec is
 *  resolved and run exactly like a single-process sweep cell
 *  (service::runResolved), so its AppRunResults are value-identical to
 *  what the coordinator's own process would have computed. Failures —
 *  including a cell key that disagrees with the coordinator's — are
 *  returned as an ok=false response, never raised. */
ShardResponse executeShard(const ShardRequest &req, unsigned jobs);

} // namespace jetty::dist

#endif // JETTY_DIST_SHARD_HH
