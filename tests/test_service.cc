/**
 * @file
 * Tests for the experiment service: the shared spec executor
 * (chooseKind/resolveSpec/executeResolved) and real unix-socket round
 * trips through ExperimentServer — the served report must be
 * byte-identical to what the direct executor produces for the same
 * spec, a shard sent to the daemon must be answered exactly as a
 * worker answers it, finished connection threads must not pile up,
 * no malformed request may take the daemon down, and no malformed
 * answer may take the client down.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/experiment_spec.hh"
#include "dist/shard.hh"
#include "experiments/experiments.hh"
#include "experiments/run_result_json.hh"
#include "service/client.hh"
#include "service/executor.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "util/json.hh"

using namespace jetty;

namespace
{

/** A tiny single-app run spec (cheap enough for a unit test). */
api::ExperimentSpec
tinyRunSpec()
{
    std::string err;
    api::ExperimentSpec spec = api::ExperimentSpec::parse(
        R"({"jetty_spec": 1,
            "machine": {"procs": 4, "buses": 1, "subblocked": true},
            "workload": {"apps": ["lu"], "scale": 0.01},
            "filters": ["EJ-16x2"]})",
        &err);
    if (!err.empty())
        ADD_FAILURE() << err;
    return spec;
}

/** This process's virtual size in kB (VmSize, /proc/self/status). */
/** One line of /proc/self/maps: its address range and its path (empty
 *  for an anonymous mapping). */
struct Mapping
{
    std::uintptr_t start = 0;
    std::uintptr_t end = 0;
    std::string path;
};

std::vector<Mapping>
selfMappings()
{
    std::vector<Mapping> maps;
    std::ifstream in("/proc/self/maps");
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string range, perms, offset, dev, inode;
        fields >> range >> perms >> offset >> dev >> inode;
        Mapping m;
        const std::size_t dash = range.find('-');
        m.start = std::stoull(range.substr(0, dash), nullptr, 16);
        m.end = std::stoull(range.substr(dash + 1), nullptr, 16);
        fields >> m.path;
        maps.push_back(m);
    }
    return maps;
}

/** Bytes of the mapping that holds a fresh thread's stack. */
std::size_t
threadStackBytes()
{
    std::size_t bytes = 0;
    std::thread([&bytes] {
        int local = 0;
        const auto at = reinterpret_cast<std::uintptr_t>(&local);
        for (const Mapping &m : selfMappings()) {
            if (m.start <= at && at < m.end)
                bytes = m.end - m.start;
        }
    }).join();
    return bytes;
}

/**
 * Bytes of this process's anonymous mappings of exactly @p stackBytes:
 * the stacks of live threads, of finished threads nobody joined, and
 * of joined ones the C library keeps for reuse. A malloc arena, which
 * glibc reserves 64 MiB at a time when threads contend, is not
 * stack-sized and does not count.
 */
std::size_t
stackMappingBytes(std::size_t stackBytes)
{
    std::size_t total = 0;
    for (const Mapping &m : selfMappings()) {
        if (m.path.empty() && m.end - m.start == stackBytes)
            total += stackBytes;
    }
    return total;
}

} // namespace

TEST(SpecExecutor, ChoosesKindFromSpecShape)
{
    std::string err;
    api::ExperimentSpec spec = tinyRunSpec();
    EXPECT_EQ(service::chooseKind(spec, &err), "run");

    spec.apps = {"lu", "ff"};
    EXPECT_EQ(service::chooseKind(spec, &err), "sweep");

    spec = tinyRunSpec();
    spec.sweepProcs = {4, 8};
    EXPECT_EQ(service::chooseKind(spec, &err), "sweep");

    spec = tinyRunSpec();
    spec.apps.clear();
    spec.traceFiles = {"whatever.jtt"};
    EXPECT_EQ(service::chooseKind(spec, &err), "replay");

    spec = tinyRunSpec();
    spec.benchRepeat = 3;
    EXPECT_EQ(service::chooseKind(spec, &err), "");
    EXPECT_NE(err, "");

    spec = tinyRunSpec();
    spec.hasFuzz = true;
    EXPECT_EQ(service::chooseKind(spec, &err), "");
    EXPECT_NE(err, "");
}

TEST(SpecExecutor, ResolveIsIdempotent)
{
    for (const char *kind : {"run", "bench"}) {
        api::ExperimentSpec spec = tinyRunSpec();
        ASSERT_EQ(service::resolveSpec(spec, kind), "") << kind;
        const std::string once = spec.emit();
        ASSERT_EQ(service::resolveSpec(spec, kind), "") << kind;
        EXPECT_EQ(spec.emit(), once) << kind;
    }
}

TEST(SpecExecutor, BenchResolveHonoursExplicitGeometry)
{
    // bench drives SmpSystem directly, so a custom geometry that the
    // experiment layer (run/sweep) refuses resolves for bench — with
    // bench's defaults filled in.
    std::string err;
    api::ExperimentSpec spec = api::ExperimentSpec::parse(
        R"({"jetty_spec": 1,
            "machine": {"procs": 4, "buses": 1, "subblocked": true,
                        "l1": {"size_bytes": 1024, "assoc": 1,
                               "block_bytes": 32},
                        "l2": {"size_bytes": 8192, "assoc": 1,
                               "block_bytes": 64, "subblocks": 2},
                        "wb_entries": 4, "phys_addr_bits": 40}})",
        &err);
    ASSERT_EQ(err, "");
    api::ExperimentSpec as_run = spec;
    EXPECT_NE(service::resolveSpec(as_run, "run"), "");

    ASSERT_EQ(service::resolveSpec(spec, "bench"), "");
    EXPECT_EQ(spec.apps, std::vector<std::string>{"lu"});
    EXPECT_EQ(spec.scale, 1.0);
    EXPECT_EQ(spec.benchRepeat, 3u);
    EXPECT_EQ(spec.filters, service::defaultFilterSpecs());
    EXPECT_EQ(spec.smpConfig().l1.sizeBytes, 1024u);

    spec.sweepBuses = {1, 2};
    EXPECT_NE(service::resolveSpec(spec, "bench"), "");
}

TEST(SpecExecutor, ExecuteFailsSoftlyOnBadSpecs)
{
    service::ExecuteResult result;
    api::ExperimentSpec missing = tinyRunSpec();
    missing.apps = {"no-such-app"};
    EXPECT_NE(service::executeSpec(missing, 0, result), "");

    api::ExperimentSpec ghost = tinyRunSpec();
    ghost.apps.clear();
    ghost.traceFiles = {"/nonexistent/capture.jtt"};
    EXPECT_NE(service::executeSpec(ghost, 0, result), "");
}

TEST(ExperimentService, ServedReportIsByteIdenticalToDirectExecution)
{
    experiments::RunCache::instance().clear();

    // Direct execution, same resolved spec the server will see.
    service::ExecuteResult direct;
    ASSERT_EQ(service::executeSpec(tinyRunSpec(), 0, direct), "");

    const std::string socket =
        ::testing::TempDir() + "jetty_test_service.sock";
    service::ServerConfig cfg;
    cfg.socketPath = socket;
    service::ExperimentServer server(cfg);
    ASSERT_EQ(server.start(), "");
    std::thread serverThread([&server]() { server.run(); });

    json::Value resp;
    std::string err = service::requestResponse(
        socket, service::makeRunRequest(tinyRunSpec().toJson()), resp);
    ASSERT_EQ(err, "");
    const json::Value *ok = resp.find("ok");
    ASSERT_TRUE(ok && ok->isBool() && ok->asBool())
        << resp.dumpCompact();

    const json::Value *report = resp.find("report");
    ASSERT_TRUE(report != nullptr);
    EXPECT_EQ(report->dump(), direct.report.dump());

    // Same cell again: answered from the shared cache, still identical.
    json::Value resp2;
    ASSERT_EQ(service::requestResponse(
                  socket, service::makeRunRequest(tinyRunSpec().toJson()),
                  resp2),
              "");
    const json::Value *sim2 = resp2.find("simulated");
    ASSERT_TRUE(sim2 && sim2->isNumber());
    EXPECT_EQ(sim2->asU64(), 0u);
    const json::Value *report2 = resp2.find("report");
    ASSERT_TRUE(report2 != nullptr);
    EXPECT_EQ(report2->dump(), direct.report.dump());

    // ping, stats, a malformed line, and an unknown verb — the daemon
    // answers each and keeps serving.
    json::Value pong;
    ASSERT_EQ(service::requestResponse(socket, service::makeRequest("ping"),
                                       pong),
              "");
    const json::Value *p = pong.find("pong");
    EXPECT_TRUE(p && p->isBool() && p->asBool());

    json::Value stats;
    ASSERT_EQ(service::requestResponse(socket,
                                       service::makeRequest("stats"),
                                       stats),
              "");
    EXPECT_TRUE(stats.find("simulations") != nullptr);

    {
        int fd = service::connectUnix(socket, &err);
        ASSERT_GE(fd, 0) << err;
        ASSERT_TRUE(service::sendLine(fd, "this is not json", &err));
        service::LineReader reader(fd);
        std::string line;
        ASSERT_EQ(reader.readLine(line, &err), 1);
        json::Value v = json::parse(line, &err);
        ASSERT_EQ(err, "");
        const json::Value *bad = v.find("ok");
        ASSERT_TRUE(bad && bad->isBool());
        EXPECT_FALSE(bad->asBool());
        ::close(fd);
    }

    json::Value unknown;
    ASSERT_EQ(service::requestResponse(socket,
                                       service::makeRequest("dance"),
                                       unknown),
              "");
    const json::Value *uok = unknown.find("ok");
    ASSERT_TRUE(uok && uok->isBool());
    EXPECT_FALSE(uok->asBool());

    // Shutdown verb stops the daemon; run() returns and joins.
    json::Value bye;
    ASSERT_EQ(service::requestResponse(socket,
                                       service::makeRequest("shutdown"),
                                       bye),
              "");
    serverThread.join();
    experiments::RunCache::instance().clear();
}

TEST(ExperimentService, GracefulDrainAnswersInFlightAndRefusesNew)
{
    const std::string socket =
        ::testing::TempDir() + "jetty_test_drain.sock";
    service::ServerConfig cfg;
    cfg.socketPath = socket;
    service::ExperimentServer server(cfg);
    ASSERT_EQ(server.start(), "");
    std::thread serverThread([&server]() { server.run(); });

    // One answered round trip per connection first: connect() alone
    // only proves the kernel queued the handshake — a response proves
    // a session is running for the fd, which is what the drain
    // contract covers (a never-accepted backlog entry is refused).
    std::string err;
    std::string line;
    auto roundTrip = [&err, &line](int fd) {
        if (!service::sendValue(fd, service::makeRequest("ping"), &err))
            return false;
        service::LineReader reader(fd);
        return reader.readLineTimeout(line, 5000, &err) == 1;
    };

    // An idle connection (no further request) must not pin the daemon
    // open across a stop request...
    const int idle = service::connectUnix(socket, &err);
    ASSERT_GE(idle, 0) << err;
    ASSERT_TRUE(roundTrip(idle)) << err;

    // ...and a request already on the wire when the stop lands must
    // still be executed and answered in full.
    const int busy = service::connectUnix(socket, &err);
    ASSERT_GE(busy, 0) << err;
    ASSERT_TRUE(roundTrip(busy)) << err;
    ASSERT_TRUE(service::sendValue(busy, service::makeRequest("stats"),
                                   &err));
    server.requestStop();

    service::LineReader reader(busy);
    ASSERT_EQ(reader.readLineTimeout(line, 5000, &err), 1) << err;
    json::Value resp = json::parse(line, &err);
    ASSERT_EQ(err, "");
    const json::Value *ok = resp.find("ok");
    EXPECT_TRUE(ok && ok->isBool() && ok->asBool());
    EXPECT_TRUE(resp.find("simulations") != nullptr);

    // run() returns once every connection thread drained — the idle
    // client must not block this join (the test would hang).
    serverThread.join();
    ::close(idle);
    ::close(busy);

    // The listening socket is gone: new connections are refused.
    const int refused = service::connectUnix(socket, &err);
    EXPECT_LT(refused, 0);
    if (refused >= 0)
        ::close(refused);
}

TEST(ServiceClient, ConnectBackoffIsBoundedByTimeout)
{
    service::ClientOptions opts;
    opts.timeoutSeconds = 0.3;
    opts.retries = 3;
    json::Value resp;
    const auto t0 = std::chrono::steady_clock::now();
    const std::string err = service::requestResponse(
        ::testing::TempDir() + "jetty_no_such_daemon.sock",
        service::makeRequest("ping"), resp, opts);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    EXPECT_NE(err, "");
    // Deterministic backoff (50+100+200 ms) capped by the 0.3 s budget;
    // generous ceiling so a loaded CI machine cannot flake this.
    EXPECT_LT(elapsed, 5.0);
}

TEST(ServiceClient, ResponseWaitTimesOutAgainstAWedgedServer)
{
    const std::string socket =
        ::testing::TempDir() + "jetty_test_wedged.sock";
    std::string err;
    const int listenFd = service::listenUnix(socket, &err);
    ASSERT_GE(listenFd, 0) << err;

    // A server that accepts and then never answers.
    std::thread wedged([listenFd]() {
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd >= 0) {
            // Hold the connection open long enough for the client's
            // timeout to be what fires, then hang up.
            std::this_thread::sleep_for(std::chrono::milliseconds(1500));
            ::close(fd);
        }
    });

    service::ClientOptions opts;
    opts.timeoutSeconds = 0.3;
    json::Value resp;
    const std::string cerr = service::requestResponse(
        socket, service::makeRequest("ping"), resp, opts);
    EXPECT_NE(cerr.find("timed out"), std::string::npos) << cerr;

    wedged.join();
    ::close(listenFd);
    ::unlink(socket.c_str());
}

namespace
{

/** A one-shot fake server on @p socket: it answers the first request
 *  with @p answer, whatever it asked. @return what `jetty_cli submit`
 *  makes of that answer: the requestResponse() or readRunResponse()
 *  failure, or "" with @p run filled. */
std::string
submitAgainst(const std::string &socket, const std::string &answer,
              service::RunResponse &run, json::Value &resp)
{
    std::string err;
    const int listenFd = service::listenUnix(socket, &err);
    if (listenFd < 0)
        return err;
    std::thread fake([listenFd, answer]() {
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            return;
        service::LineReader in(fd);
        std::string line, ignored;
        if (in.readLine(line, &ignored) == 1)
            service::sendLine(fd, answer, &ignored);
        ::close(fd);
    });
    service::ClientOptions opts;
    opts.timeoutSeconds = 5;
    err = service::requestResponse(
        socket, service::makeRunRequest(tinyRunSpec().toJson()), resp,
        opts);
    fake.join();
    ::close(listenFd);
    ::unlink(socket.c_str());
    return err.empty() ? service::readRunResponse(resp, run) : err;
}

} // namespace

TEST(ServiceClient, MalformedRunAnswersAreRejectedByField)
{
    const std::string socket =
        ::testing::TempDir() + "jetty_test_fake_answer.sock";
    const std::string good =
        R"({"jetty_response":1,"ok":true,"kind":"run","simulated":1,)"
        R"("disk_hits":2,"mem_hits":3,"report":{"jetty_report":1}})";
    service::RunResponse run;
    json::Value resp;
    ASSERT_EQ(submitAgainst(socket, good, run, resp), "");
    EXPECT_EQ(run.kind, "run");
    EXPECT_EQ(run.simulated, 1u);
    EXPECT_EQ(run.diskHits, 2u);
    EXPECT_EQ(run.memHits, 3u);
    ASSERT_NE(run.report, nullptr);
    EXPECT_EQ(run.report->dumpCompact(), R"({"jetty_report":1})");

    const struct
    {
        const char *answer;
        const char *want;
    } bad[] = {
        // A negative count used to abort the client in asU64().
        {R"({"jetty_response":1,"ok":true,"kind":"run","simulated":-1,)"
         R"("disk_hits":0,"mem_hits":0,"report":{}})",
         "response.simulated: not a u64"},
        // A protocol this build does not speak used to be accepted.
        {R"({"jetty_response":2,"ok":true,"kind":"run","simulated":0,)"
         R"("disk_hits":0,"mem_hits":0,"report":{}})",
         "response.jetty_response: version 2 not supported (this build "
         "speaks 1)"},
        {R"({"jetty_response":1,"ok":true,"kind":"run","simulated":0,)"
         R"("disk_hits":0,"mem_hits":0})",
         "response.report: missing field"},
        {R"({"jetty_response":1,"ok":"yes"})", "response.ok: not a bool"},
        {R"({"jetty_response":1,"ok":false,"error":"spec: bad"})",
         "server error: spec: bad"},
        {R"({"jetty_response":1,"ok":false})",
         "response.error: missing field"},
        {"[1]", "response: not a JSON object"},
    };
    for (const auto &c : bad) {
        EXPECT_EQ(submitAgainst(socket, c.answer, run, resp), c.want)
            << c.answer;
    }
}

TEST(ExperimentService, ServeSocketAnswersTheShardVerbLikeAWorker)
{
    experiments::RunCache::instance().clear();

    // A one-cell shard, built exactly as the coordinator builds one.
    api::ExperimentSpec sweep = tinyRunSpec();
    ASSERT_EQ(service::resolveSpec(sweep, "sweep"), "");
    const auto names = service::canonicalFilterNames(sweep);
    auto cells = sweep.expand();
    ASSERT_EQ(cells.size(), 1u);
    cells[0].filterSpecs = names;
    dist::ShardRequest req;
    req.shardId = 5;
    req.attempt = 2;
    req.cacheKey = dist::cellCacheKey(cells[0]);
    req.spec = dist::shardSpec(sweep, names, cells[0]).toJson();
    const dist::ShardResponse direct = dist::executeShard(req, 1);
    ASSERT_TRUE(direct.ok) << direct.error;

    const std::string socket =
        ::testing::TempDir() + "jetty_test_shard.sock";
    service::ServerConfig cfg;
    cfg.socketPath = socket;
    service::ExperimentServer server(cfg);
    ASSERT_EQ(server.start(), "");
    std::thread serverThread([&server]() { server.run(); });

    std::string err;
    const int fd = service::connectUnix(socket, &err);
    ASSERT_GE(fd, 0) << err;
    service::LineReader reader(fd);
    const auto next = [&reader, &err]() {
        std::string line;
        EXPECT_EQ(reader.readLineTimeout(line, 30000, &err), 1) << err;
        return json::parse(line, &err);
    };

    // shard_started, then a shard_response whose cells equal the
    // worker's answer to the same request.
    ASSERT_TRUE(
        service::sendValue(fd, dist::shardRequestToJson(req), &err));
    EXPECT_EQ(dist::shardMessageType(next()), "shard_started");
    dist::ShardResponse served;
    ASSERT_EQ(dist::shardResponseFromJson(next(), served), "");
    EXPECT_TRUE(served.ok) << served.error;
    EXPECT_EQ(served.shardId, 5u);
    EXPECT_EQ(served.attempt, 2u);
    ASSERT_EQ(served.results.size(), direct.results.size());
    for (std::size_t i = 0; i < served.results.size(); ++i) {
        EXPECT_EQ(served.results[i].key, direct.results[i].key);
        EXPECT_EQ(experiments::runResultToJson(served.results[i].result)
                      .dumpCanonical(),
                  experiments::runResultToJson(direct.results[i].result)
                      .dumpCanonical());
    }

    // A shard in a protocol version this build does not speak: one
    // ok=false shard_response naming the field, carrying its id.
    json::Value wrong = dist::shardRequestToJson(req);
    wrong.set("jetty_request", 2);
    ASSERT_TRUE(service::sendValue(fd, wrong, &err));
    dist::ShardResponse refused;
    ASSERT_EQ(dist::shardResponseFromJson(next(), refused), "");
    EXPECT_FALSE(refused.ok);
    EXPECT_NE(refused.error.find("shard_request.jetty_request"),
              std::string::npos)
        << refused.error;
    EXPECT_EQ(refused.shardId, 5u);

    // The same connection still answers ping.
    ASSERT_TRUE(
        service::sendValue(fd, service::makeRequest("ping"), &err));
    const json::Value pong = next();
    const json::Value *p = pong.find("pong");
    EXPECT_TRUE(p && p->isBool() && p->asBool()) << pong.dumpCompact();

    ::close(fd);
    server.requestStop();
    serverThread.join();
    experiments::RunCache::instance().clear();
}

TEST(ExperimentService, FinishedConnectionThreadsAreReaped)
{
    const std::string socket =
        ::testing::TempDir() + "jetty_test_reap.sock";
    service::ServerConfig cfg;
    cfg.socketPath = socket;
    service::ExperimentServer server(cfg);
    ASSERT_EQ(server.start(), "");
    std::thread serverThread([&server]() { server.run(); });

    const auto ping = [&socket]() {
        json::Value resp;
        return service::requestResponse(
            socket, service::makeRequest("ping"), resp);
    };
    // Until joined, a finished thread keeps its whole stack mapped, so
    // the server's stack-sized mappings must stay flat over many
    // connections. Only those mappings are counted: the process's
    // virtual size also grows by a 64 MiB malloc arena whenever
    // connection threads happen to contend, joined or not. Warm-up
    // connections fill the C library's cache of joined stacks first.
    const std::size_t stack = threadStackBytes();
    ASSERT_GT(stack, 0u);
    for (int i = 0; i < 8; ++i)
        ASSERT_EQ(ping(), "");
    const std::size_t before = stackMappingBytes(stack);
    for (int i = 0; i < 64; ++i)
        ASSERT_EQ(ping(), "");
    const std::size_t after = stackMappingBytes(stack);
    EXPECT_LT(after, before + 64 * 1024 * 1024)
        << "stack mappings " << before << " B -> " << after << " B ("
        << stack << " B a stack)";

    server.requestStop();
    serverThread.join();
}
