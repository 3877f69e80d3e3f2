#include "dist/shard.hh"

#include <utility>

#include "experiments/run_result_json.hh"
#include "service/executor.hh"
#include "service/protocol.hh"

namespace jetty::dist
{

namespace
{

// Field lists shared by the writer and the validating reader, keyed by
// (member, reader kind), so the two directions cannot drift apart — and
// so jetty_lint can cross-check the lists against the structs.
#define JETTY_SHARD_REQUEST_FIELDS(X)                                        \
    X(shardId, u64)                                                          \
    X(attempt, u64)                                                          \
    X(cacheKey, str)

#define JETTY_SHARD_RESPONSE_FIELDS(X)                                       \
    X(shardId, u64)                                                          \
    X(attempt, u64)                                                          \
    X(ok, boolean)                                                           \
    X(error, str)                                                            \
    X(simulated, u64)                                                        \
    X(diskHits, u64)                                                         \
    X(memHits, u64)                                                          \
    X(wallSeconds, dbl)

/** The envelope check of a shard message: the protocol version under
 *  @p versionKey and @p tag under @p tagKey ("verb" for the request,
 *  "type" for a response). @return "" or the dotted-path diagnostic. */
std::string
checkShardEnvelope(const json::Value &v, const char *path,
                   const char *versionKey, const char *tagKey,
                   const char *tag)
{
    std::string got;
    const std::string err =
        service::readEnvelope(v, path, versionKey, tagKey, &got);
    if (!err.empty() || got == tag)
        return err;
    return std::string(path) + "." + tagKey + ": expected '" + tag +
           "', got '" + got + "'";
}

/** A response line's envelope, tagged with its message @p type. */
json::Value
responseEnvelope(const char *type)
{
    json::Value v = json::Value::object();
    v.set("jetty_response", service::kProtocolVersion);
    v.set("type", type);
    return v;
}

} // namespace

std::string
cellCacheKey(const experiments::RunRequest &req)
{
    const double scale = req.accessScale > 0 ? req.accessScale : 1.0;
    return experiments::runCacheKey(req, scale);
}

api::ExperimentSpec
shardSpec(const api::ExperimentSpec &sweep,
          const std::vector<std::string> &canonicalFilters,
          const experiments::RunRequest &req)
{
    api::ExperimentSpec s = sweep;
    s.machine.procs = req.variant.nprocs;
    s.machine.buses = req.variant.snoopBuses;
    s.sweepProcs = {req.variant.nprocs};
    s.sweepBuses = {req.variant.snoopBuses};
    s.filters = canonicalFilters;
    if (sweep.traceFiles.empty())
        s.apps = {req.app.abbrev};
    return s;
}

std::string
shardMessageType(const json::Value &v)
{
    std::string type;
    json::FieldReader("message").str(v, "type", type);
    return type;
}

json::Value
shardRequestToJson(const ShardRequest &req)
{
    json::Value v = json::Value::object();
    v.set("jetty_request", service::kProtocolVersion);
    v.set("verb", "shard");
#define X(f, kind) v.set(#f, req.f);
    JETTY_SHARD_REQUEST_FIELDS(X)
#undef X
    v.set("spec", req.spec);
    return v;
}

json::Value
shardStartedToJson(std::uint64_t shardId, std::uint64_t attempt)
{
    json::Value v = responseEnvelope("shard_started");
    v.set("ok", true);
    v.set("shardId", shardId);
    v.set("attempt", attempt);
    return v;
}

json::Value
shardResponseToJson(const ShardResponse &resp)
{
    json::Value v = responseEnvelope("shard_response");
#define X(f, kind) v.set(#f, resp.f);
    JETTY_SHARD_RESPONSE_FIELDS(X)
#undef X
    json::Value results = json::Value::array();
    for (const auto &cell : resp.results) {
        json::Value c = json::Value::object();
        c.set("key", cell.key);
        c.set("result", experiments::runResultToJson(cell.result));
        results.push(std::move(c));
    }
    v.set("results", std::move(results));
    return v;
}

std::string
shardRequestFromJson(const json::Value &v, ShardRequest &out)
{
    std::string err = checkShardEnvelope(v, "shard_request",
                                         "jetty_request", "verb", "shard");
    if (!err.empty())
        return err;
    json::FieldReader rd("shard_request");
    ShardRequest req;
#define X(f, kind) rd.kind(v, #f, req.f);
    JETTY_SHARD_REQUEST_FIELDS(X)
#undef X
    if (const json::Value *spec = rd.obj(v, "spec"))
        req.spec = *spec;
    if (!rd.ok())
        return rd.error();
    out = std::move(req);
    return "";
}

std::string
shardResponseFromJson(const json::Value &v, ShardResponse &out)
{
    std::string err = checkShardEnvelope(v, "shard_response",
                                         "jetty_response", "type",
                                         "shard_response");
    if (!err.empty())
        return err;
    json::FieldReader rd("shard_response");
    ShardResponse resp;
#define X(f, kind) rd.kind(v, #f, resp.f);
    JETTY_SHARD_RESPONSE_FIELDS(X)
#undef X
    rd.items(v, "results", [&](const json::Value &item) {
        ShardCell &cell = resp.results.emplace_back();
        rd.str(item, "key", cell.key);
        rd.nested(item, "result", [&](const json::Value &result) {
            experiments::runResultFromJson(rd, result, cell.result);
        });
    });
    if (!rd.ok())
        return rd.error();
    out = std::move(resp);
    return "";
}

ShardResponse
executeShard(const ShardRequest &req, unsigned jobs)
{
    ShardResponse resp;
    resp.shardId = req.shardId;
    resp.attempt = req.attempt;

    // Every shard spec is a one-cell sweep; resolving it under the
    // sweep verb validates it through the same schema round-trip the
    // coordinator's own spec went through.
    std::string err;
    api::ExperimentSpec spec = api::ExperimentSpec::fromJson(req.spec, &err);
    if (err.empty())
        err = service::resolveSpec(spec, "sweep");
    service::ExecuteResult run;
    if (err.empty())
        err = service::runResolved(spec, "sweep", jobs, run);
    if (!err.empty()) {
        resp.error = "shard_request.spec: " + err;
        return resp;
    }

    // The coordinator derived the key from ITS expansion of the same
    // spec text; a mismatch means the two processes disagree on the
    // canonical identity of the cell and merging would be unsound. (An
    // empty shard is legal: it answers ok with no result cells.)
    std::vector<std::string> keys;
    for (const auto &r : run.requests)
        keys.push_back(cellCacheKey(r));
    if (keys.size() == 1 && !req.cacheKey.empty() &&
        keys[0] != req.cacheKey) {
        resp.error = "shard_request.cacheKey: coordinator and worker "
                     "disagree on the canonical cell key (coordinator '" +
                     req.cacheKey + "', worker '" + keys[0] +
                     "') — cross-process determinism violation";
        return resp;
    }
    for (std::size_t i = 0; i < keys.size(); ++i)
        resp.results.push_back({keys[i], std::move(run.runs[i])});
    resp.simulated = run.simulated;
    resp.diskHits = run.diskHits;
    resp.memHits = run.memHits;
    resp.wallSeconds = run.sweepSeconds;
    resp.ok = true;
    return resp;
}

} // namespace jetty::dist
