/**
 * @file
 * Tests for the distributed sweep subsystem (src/dist/): the shard
 * verb's envelope round-trips and rejects what it does not speak with
 * dotted-path diagnostics, the MergeTable handles the edge cases
 * (empty shard, stolen-then-completed duplicate, unknown key), real
 * coordinator campaigns over thread workers produce Reports
 * byte-identical to the single-process sweep at any worker count —
 * including under an injected mid-shard worker death — and the resume
 * ledger replays finished cells losslessly, but only cells that cover
 * the campaign's filters.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "api/experiment_spec.hh"
#include "dist/coordinator.hh"
#include "dist/ledger.hh"
#include "dist/shard.hh"
#include "experiments/experiments.hh"
#include "experiments/run_result_json.hh"
#include "service/executor.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "util/json.hh"

using namespace jetty;

namespace
{

/** Coordinator/worker pipes: a peer hanging up mid-write must surface
 *  as EPIPE, not kill the test binary (service/protocol.hh contract for
 *  non-socket transports). */
void
ignoreSigpipe()
{
    std::signal(SIGPIPE, SIG_IGN);
}

/** A four-cell sweep (2 apps x 2 bus counts), cheap enough to simulate
 *  in a unit test, resolved exactly as `jetty_cli sweep` would. */
api::ExperimentSpec
tinySweepSpec(const std::string &filters = R"(["EJ-16x2"])")
{
    std::string err;
    api::ExperimentSpec spec = api::ExperimentSpec::parse(
        R"({"jetty_spec": 1,
            "machine": {"procs": 4, "buses": 1, "subblocked": true},
            "workload": {"apps": ["lu", "ff"], "scale": 0.01},
            "sweep": {"buses": [1, 2]},
            "filters": )" +
            filters + "}",
        &err);
    EXPECT_EQ(err, "");
    EXPECT_EQ(service::resolveSpec(spec, "sweep"), "");
    return spec;
}

/** One in-process worker: a thread running the real service session
 *  over a pipe pair, indistinguishable (to the coordinator) from a
 *  forked `jetty_cli worker`. */
struct ThreadWorker
{
    dist::WorkerEndpoint endpoint;  //!< the coordinator's side
    std::thread thread;
    std::atomic<bool> stop{false};
    int loopResult = -1;
};

void
startThreadWorker(ThreadWorker &tw, const service::SessionFault &fault = {})
{
    int req[2];
    int resp[2];
    ASSERT_EQ(::pipe(req), 0);
    ASSERT_EQ(::pipe(resp), 0);
    tw.endpoint.readFd = resp[0];
    tw.endpoint.writeFd = req[1];
    tw.endpoint.pid = -1;  // a thread, nothing to reap
    tw.thread = std::thread([&tw, in = req[0], out = resp[1], fault]() {
        tw.loopResult = service::serveSession(in, out, 0, tw.stop, fault);
        ::close(in);
        ::close(out);
    });
}

/** A fabricated ok response carrying one cell (for merge-table tests;
 *  the result payload only needs to be distinguishable, not real). */
dist::ShardResponse
fakeResponse(std::uint64_t shardId, const std::string &key,
             double simSeconds)
{
    dist::ShardResponse resp;
    resp.shardId = shardId;
    resp.attempt = 1;
    resp.ok = true;
    resp.simulated = 1;
    dist::ShardCell cell;
    cell.key = key;
    cell.result.appName = "fake";
    cell.result.abbrev = "fk";
    cell.result.simSeconds = simSeconds;
    resp.results.push_back(cell);
    return resp;
}

} // namespace

TEST(ShardEnvelope, RequestRoundTrips)
{
    dist::ShardRequest req;
    req.shardId = 7;
    req.attempt = 2;
    req.cacheKey = "{\"machine\":{}}";
    req.spec = json::Value::object();
    req.spec.set("jetty_spec", 1);

    const json::Value wire = shardRequestToJson(req);
    ASSERT_TRUE(wire.find("jetty_request") && wire.find("verb"));
    EXPECT_EQ(wire.find("jetty_request")->asU64(),
              service::kProtocolVersion);
    EXPECT_EQ(wire.find("verb")->asString(), "shard");

    dist::ShardRequest back;
    ASSERT_EQ(dist::shardRequestFromJson(wire, back), "");
    EXPECT_EQ(back.shardId, 7u);
    EXPECT_EQ(back.attempt, 2u);
    EXPECT_EQ(back.cacheKey, req.cacheKey);
    EXPECT_EQ(back.spec.dumpCanonical(), req.spec.dumpCanonical());
}

TEST(ShardEnvelope, ResponseRoundTripsThroughRealRunResult)
{
    experiments::RunCache::instance().clear();
    service::ExecuteResult direct;
    ASSERT_EQ(service::executeResolved(tinySweepSpec(), "sweep", 1, direct),
              "");
    ASSERT_FALSE(direct.runs.empty());

    dist::ShardResponse resp;
    resp.shardId = 3;
    resp.attempt = 1;
    resp.ok = true;
    resp.simulated = 1;
    resp.diskHits = 2;
    resp.memHits = 4;
    resp.wallSeconds = 0.25;
    dist::ShardCell cell;
    cell.key = dist::cellCacheKey(direct.requests[0]);
    cell.result = direct.runs[0];
    resp.results.push_back(cell);

    const json::Value wire = shardResponseToJson(resp);
    EXPECT_EQ(dist::shardMessageType(wire), "shard_response");
    ASSERT_TRUE(wire.find("jetty_response"));
    EXPECT_EQ(wire.find("jetty_response")->asU64(),
              service::kProtocolVersion);

    dist::ShardResponse back;
    ASSERT_EQ(dist::shardResponseFromJson(wire, back), "");
    EXPECT_EQ(back.shardId, 3u);
    EXPECT_TRUE(back.ok);
    EXPECT_EQ(back.diskHits, 2u);
    EXPECT_EQ(back.memHits, 4u);
    EXPECT_DOUBLE_EQ(back.wallSeconds, 0.25);
    ASSERT_EQ(back.results.size(), 1u);
    EXPECT_EQ(back.results[0].key, cell.key);
    // Lossless through the wire: the round-tripped run result emits the
    // same bytes (the byte-identity contract rides on this).
    EXPECT_EQ(experiments::runResultToJson(back.results[0].result)
                  .dumpCanonical(),
              experiments::runResultToJson(cell.result).dumpCanonical());
    experiments::RunCache::instance().clear();
}

TEST(ShardEnvelope, VersionMismatchIsDottedPathError)
{
    dist::ShardResponse resp;
    resp.ok = true;
    json::Value wire = shardResponseToJson(resp);
    wire.set("jetty_response", 2);

    dist::ShardResponse back;
    const std::string err = dist::shardResponseFromJson(wire, back);
    EXPECT_NE(err.find("shard_response.jetty_response"), std::string::npos)
        << err;
    EXPECT_NE(err.find("version 2 not supported"), std::string::npos)
        << err;

    json::Value reqWire =
        dist::shardRequestToJson(dist::ShardRequest());
    reqWire.set("jetty_request", 99);
    dist::ShardRequest reqBack;
    const std::string rerr = dist::shardRequestFromJson(reqWire, reqBack);
    EXPECT_NE(rerr.find("shard_request.jetty_request"), std::string::npos)
        << rerr;
}

TEST(ShardEnvelope, MalformedFieldNamesItsDottedPath)
{
    json::Value wire = shardResponseToJson(dist::ShardResponse());
    wire.set("wallSeconds", "not-a-number");
    dist::ShardResponse back;
    const std::string err = dist::shardResponseFromJson(wire, back);
    EXPECT_NE(err.find("shard_response.wallSeconds"), std::string::npos)
        << err;

    // Inside a cell's result the path carries the cell's index.
    dist::ShardResponse two = fakeResponse(0, "k0", 1.0);
    json::Value bad = experiments::runResultToJson(two.results[0].result);
    bad.set("totalRefs", -1);
    json::Value cell = json::Value::object();
    cell.set("key", "k1");
    cell.set("result", std::move(bad));
    json::Value results = json::Value::array();
    results.push(shardResponseToJson(two).find("results")->items()[0]);
    results.push(std::move(cell));
    json::Value twoWire = shardResponseToJson(two);
    twoWire.set("results", std::move(results));
    EXPECT_EQ(dist::shardResponseFromJson(twoWire, back),
              "shard_response.results[1].result.totalRefs: not a u64");
}

TEST(MergeTable, EmptyResponseIsLegalNoOp)
{
    dist::MergeTable table({"k0", "k1"});
    dist::ShardResponse empty;
    empty.ok = true;  // no results — a resumed-elsewhere or vacuous shard
    std::uint64_t dups = 0;
    EXPECT_EQ(table.apply(empty, &dups), "");
    EXPECT_EQ(dups, 0u);
    EXPECT_FALSE(table.complete());
    EXPECT_EQ(table.missingKeys().size(), 2u);
}

TEST(MergeTable, DuplicateCellIsFirstWriterWins)
{
    dist::MergeTable table({"k0"});
    std::uint64_t dups = 0;
    ASSERT_EQ(table.apply(fakeResponse(0, "k0", 1.0), &dups), "");
    // The stolen-then-completed straggler answers the same cell later.
    ASSERT_EQ(table.apply(fakeResponse(0, "k0", 99.0), &dups), "");
    EXPECT_EQ(dups, 1u);
    ASSERT_TRUE(table.complete());
    const auto runs = table.takeRuns();
    ASSERT_EQ(runs.size(), 1u);
    // The first writer's payload survived, the duplicate was discarded.
    EXPECT_DOUBLE_EQ(runs[0].simSeconds, 1.0);
}

TEST(MergeTable, UnknownKeyIsDottedPathError)
{
    dist::MergeTable table({"k0"});
    std::uint64_t dups = 0;
    const std::string err =
        table.apply(fakeResponse(0, "intruder", 1.0), &dups);
    EXPECT_NE(err.find("shard_response.results[0].key"), std::string::npos)
        << err;
    EXPECT_NE(err.find("intruder"), std::string::npos) << err;
}

TEST(ShardExecution, WorkerRefusesCacheKeyDisagreement)
{
    const api::ExperimentSpec spec = tinySweepSpec();
    const auto filters = service::canonicalFilterNames(spec);
    const auto requests = spec.expand();
    ASSERT_FALSE(requests.empty());

    dist::ShardRequest req;
    req.shardId = 0;
    req.attempt = 1;
    req.cacheKey = "not-the-canonical-key";
    req.spec = dist::shardSpec(spec, filters, requests[0]).toJson();

    const dist::ShardResponse resp = dist::executeShard(req, 1);
    EXPECT_FALSE(resp.ok);
    EXPECT_NE(resp.error.find("cross-process determinism"),
              std::string::npos)
        << resp.error;
}

TEST(DistCampaign, ReportIsByteIdenticalAtAnyWorkerCount)
{
    ignoreSigpipe();
    const api::ExperimentSpec spec = tinySweepSpec();

    for (const unsigned workerCount : {2u, 3u}) {
        // Cold cache: the workers do the actual simulating.
        experiments::RunCache::instance().clear();

        std::vector<ThreadWorker> pool(workerCount);
        dist::CoordinatorConfig cfg;
        cfg.stealAfterSeconds = 0;  // nothing should straggle here
        dist::Coordinator coordinator(cfg);
        for (auto &tw : pool) {
            startThreadWorker(tw);
            coordinator.attachWorker(tw.endpoint);
        }

        dist::CampaignResult result;
        ASSERT_EQ(coordinator.run(spec, result), "");
        for (auto &tw : pool) {
            tw.thread.join();
            EXPECT_EQ(tw.loopResult, 0);  // clean EOF exit
        }

        EXPECT_EQ(result.shards, 4u);
        // At least one answer per cell. (Thread workers share ONE
        // process-global RunCache, so concurrent per-shard counter
        // deltas can overlap and overcount — in the real deployment
        // each worker process owns its counters.)
        EXPECT_GE(result.simulated + result.memHits + result.diskHits, 4u);

        // The single-process sweep, answered from the same in-process
        // cache the workers filled: value identity across the process
        // boundary makes the Reports byte-identical.
        service::ExecuteResult direct;
        ASSERT_EQ(service::executeResolved(spec, "sweep", 1, direct), "");
        EXPECT_EQ(direct.simulated, 0u)
            << "the distributed campaign should have populated the cache";
        EXPECT_EQ(result.report.dump(), direct.report.dump())
            << "workers=" << workerCount;
    }
    experiments::RunCache::instance().clear();
}

TEST(DistCampaign, MidShardWorkerDeathRetriesAndStaysByteIdentical)
{
    ignoreSigpipe();
    const api::ExperimentSpec spec = tinySweepSpec();
    experiments::RunCache::instance().clear();

    // Worker 0 dies mid-shard on its first request: shard_started goes
    // out, the response never comes, both pipe ends drop.
    const service::SessionFault dying = [](std::uint64_t received) {
        return received >= 1;
    };

    std::vector<ThreadWorker> pool(2);
    dist::CoordinatorConfig cfg;
    cfg.maxRetries = 2;
    cfg.stealAfterSeconds = 0;
    dist::Coordinator coordinator(cfg);
    startThreadWorker(pool[0], dying);
    startThreadWorker(pool[1]);
    coordinator.attachWorker(pool[0].endpoint);
    coordinator.attachWorker(pool[1].endpoint);

    dist::CampaignResult result;
    ASSERT_EQ(coordinator.run(spec, result), "");
    pool[0].thread.join();
    pool[1].thread.join();
    EXPECT_EQ(pool[0].loopResult, 2);  // the fault hook abandoned it

    EXPECT_GE(result.retried, 1u);
    bool sawDeath = false;
    bool sawRetry = false;
    for (const auto &ev : result.events) {
        sawDeath = sawDeath || ev.type == "worker_died";
        sawRetry = sawRetry || ev.type == "retried";
    }
    EXPECT_TRUE(sawDeath);
    EXPECT_TRUE(sawRetry);

    service::ExecuteResult direct;
    ASSERT_EQ(service::executeResolved(spec, "sweep", 1, direct), "");
    EXPECT_EQ(result.report.dump(), direct.report.dump());
    experiments::RunCache::instance().clear();
}

TEST(DistCampaign, LedgerResumeReplaysEveryCellLosslessly)
{
    ignoreSigpipe();
    const api::ExperimentSpec spec = tinySweepSpec();
    const std::string ledgerDir =
        ::testing::TempDir() + "jetty_dist_ledger_test";
    std::filesystem::remove_all(ledgerDir);
    experiments::RunCache::instance().clear();

    // Campaign 1: simulate everything, journaling each completion.
    dist::CampaignResult first;
    {
        std::vector<ThreadWorker> pool(2);
        dist::CoordinatorConfig cfg;
        cfg.ledgerDir = ledgerDir;
        cfg.stealAfterSeconds = 0;
        dist::Coordinator coordinator(cfg);
        for (auto &tw : pool) {
            startThreadWorker(tw);
            coordinator.attachWorker(tw.endpoint);
        }
        ASSERT_EQ(coordinator.run(spec, first), "");
        for (auto &tw : pool)
            tw.thread.join();
    }
    EXPECT_EQ(first.resumed, 0u);

    // Campaign 2: cache wiped (a fresh process would start cold), every
    // cell answered by the ledger — nothing dispatched, nothing
    // simulated, and the merged Report's bytes survive the round trip
    // through the journal.
    experiments::RunCache::instance().clear();
    dist::CampaignResult second;
    {
        dist::CoordinatorConfig cfg;
        cfg.ledgerDir = ledgerDir;
        dist::Coordinator coordinator(cfg);
        ASSERT_EQ(coordinator.run(spec, second), "");
    }
    EXPECT_EQ(second.resumed, 4u);
    EXPECT_EQ(second.simulated, 0u);
    EXPECT_EQ(second.report.dump(), first.report.dump());

    // Campaign 3: same ledger, a filter list the journaled cells do not
    // cover. Nothing may resume — a journaled cell lacks the new
    // filter's row — so every cell is dispatched and simulated, and the
    // Report matches the single-process sweep of the new spec.
    const api::ExperimentSpec wider =
        tinySweepSpec(R"(["EJ-16x2", "IJ-10x4x7"])");
    experiments::RunCache::instance().clear();
    dist::CampaignResult third;
    {
        ThreadWorker tw;
        dist::CoordinatorConfig cfg;
        cfg.ledgerDir = ledgerDir;
        dist::Coordinator coordinator(cfg);
        startThreadWorker(tw);
        coordinator.attachWorker(tw.endpoint);
        ASSERT_EQ(coordinator.run(wider, third), "");
        tw.thread.join();
    }
    EXPECT_EQ(third.resumed, 0u);
    EXPECT_EQ(third.simulated, 4u);
    service::ExecuteResult direct;
    ASSERT_EQ(service::executeResolved(wider, "sweep", 1, direct), "");
    EXPECT_EQ(third.report.dump(), direct.report.dump());

    std::filesystem::remove_all(ledgerDir);
    experiments::RunCache::instance().clear();
}

TEST(DistCampaign, StolenShardDuplicateIsLoggedAndDiscarded)
{
    ignoreSigpipe();
    const api::ExperimentSpec spec = tinySweepSpec();

    // Real cells to script with: simulate the sweep once directly.
    experiments::RunCache::instance().clear();
    service::ExecuteResult direct;
    ASSERT_EQ(service::executeResolved(spec, "sweep", 1, direct), "");
    ASSERT_EQ(direct.runs.size(), 4u);
    std::vector<std::string> keys;
    for (const auto &req : direct.requests)
        keys.push_back(dist::cellCacheKey(req));

    // Three scripted fake workers on raw pipe pairs. A holds its shard
    // hostage, B answers then holds its second shard, C answers then
    // idles — forcing the coordinator to steal A's shard for C. Then
    // both A's original answer and C's stolen answer arrive: the second
    // must be logged as a duplicate and discarded.
    int req[3][2];
    int resp[3][2];
    for (int i = 0; i < 3; ++i) {
        ASSERT_EQ(::pipe(req[i]), 0);
        ASSERT_EQ(::pipe(resp[i]), 0);
    }

    dist::CoordinatorConfig cfg;
    cfg.stealAfterSeconds = 0.05;
    dist::Coordinator coordinator(cfg);
    for (int i = 0; i < 3; ++i) {
        dist::WorkerEndpoint ep;
        ep.readFd = resp[i][0];
        ep.writeFd = req[i][1];
        coordinator.attachWorker(ep);
    }

    std::thread script([&]() {
        auto readRequest = [&](int w) {
            service::LineReader reader(req[w][0]);
            std::string line;
            std::string err;
            EXPECT_EQ(reader.readLine(line, &err), 1) << err;
            dist::ShardRequest r;
            EXPECT_EQ(dist::shardRequestFromJson(json::parse(line, &err),
                                                 r),
                      "");
            return r;
        };
        auto send = [&](int w, const json::Value &v) {
            std::string err;
            EXPECT_TRUE(service::sendValue(resp[w][1], v, &err)) << err;
        };
        auto answer = [&](const dist::ShardRequest &r) {
            dist::ShardResponse a;
            a.shardId = r.shardId;
            a.attempt = r.attempt;
            a.ok = true;
            a.memHits = 1;
            dist::ShardCell cell;
            cell.key = r.cacheKey;
            cell.result = direct.runs[r.shardId];
            a.results.push_back(cell);
            return shardResponseToJson(a);
        };

        // Dispatch order is deterministic: A<-0, B<-1, C<-2, queue=[3].
        const dist::ShardRequest ra = readRequest(0);
        EXPECT_EQ(ra.shardId, 0u);
        send(0, dist::shardStartedToJson(ra.shardId, ra.attempt));

        const dist::ShardRequest rb = readRequest(1);
        EXPECT_EQ(rb.shardId, 1u);
        send(1, dist::shardStartedToJson(rb.shardId, rb.attempt));
        send(1, answer(rb));

        const dist::ShardRequest rc = readRequest(2);
        EXPECT_EQ(rc.shardId, 2u);
        send(2, dist::shardStartedToJson(rc.shardId, rc.attempt));
        send(2, answer(rc));

        // B drains the queue (shard 3) and holds it.
        const dist::ShardRequest rb2 = readRequest(1);
        EXPECT_EQ(rb2.shardId, 3u);
        send(1, dist::shardStartedToJson(rb2.shardId, rb2.attempt));

        // C idles with an empty queue; past stealAfterSeconds the
        // coordinator re-assigns the oldest in-flight shard — A's.
        const dist::ShardRequest stolen = readRequest(2);
        EXPECT_EQ(stolen.shardId, 0u);
        EXPECT_EQ(stolen.attempt, 2u);

        // Straggler A answers first (first writer), then C's stolen
        // copy (the duplicate), then B releases shard 3 so the campaign
        // can only finish after the duplicate has been consumed.
        send(0, answer(ra));
        send(2, answer(stolen));
        send(1, answer(rb2));
    });

    dist::CampaignResult result;
    ASSERT_EQ(coordinator.run(spec, result), "");
    script.join();
    for (int i = 0; i < 3; ++i) {
        ::close(req[i][0]);
        ::close(resp[i][1]);
    }

    EXPECT_GE(result.stolen, 1u);
    EXPECT_EQ(result.duplicates, 1u);
    bool sawDuplicate = false;
    for (const auto &ev : result.events) {
        if (ev.type == "duplicate") {
            sawDuplicate = true;
            EXPECT_EQ(ev.shardId, 0u);
            EXPECT_NE(ev.detail.find("first-writer-wins"),
                      std::string::npos);
        }
    }
    EXPECT_TRUE(sawDuplicate);
    EXPECT_EQ(result.report.dump(), direct.report.dump());
    experiments::RunCache::instance().clear();
}
