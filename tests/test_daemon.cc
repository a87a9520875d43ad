/**
 * @file
 * Protocol tests for reqisc-compiled (src/daemon): every route and
 * error path of the v1 job API over real loopback HTTP — malformed
 * and oversized bodies, unknown routes and methods, the full cancel
 * state machine, admission control (queue bound and per-client
 * quotas, both answering immediate structured 429s), more concurrent
 * clients than handler threads, graceful drain,
 * \uXXXX escapes in request bodies, and the end-to-end contract that
 * a job compiled through the daemon produces artifacts bit-identical
 * to the same request run directly on a CompileService.
 *
 * Job states are pinned with REQISC_PASS_DELAY_MS on hier-synth
 * (the full pipeline and `custom:hier-synth`), set before any compile
 * runs: a slowed job occupies the single worker long enough to
 * observe queued / running / draining behavior deterministically,
 * while the `eff` jobs the fast paths use are unaffected.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backend/json.hh"
#include "circuit/qasm.hh"
#include "daemon/daemon.hh"
#include "daemon/http.hh"
#include "service/api.hh"
#include "service/error.hh"
#include "service/service.hh"
#include "suite/suite.hh"

using namespace reqisc;
using backend::JsonValue;
using backend::parseJson;

namespace
{

/** ~400ms inside hier-synth: the knob every state-pinning test uses. */
[[maybe_unused]] const bool kDelayEnvSet = [] {
    ::setenv("REQISC_PASS_DELAY_MS", "hier-synth=400", 1);
    return true;
}();

using Headers = std::vector<std::pair<std::string, std::string>>;

/** One loopback request; transport failure fails the test. */
daemon::HttpClientResponse
http(int port, const std::string &method, const std::string &target,
     const std::string &body = "", const Headers &headers = {})
{
    daemon::HttpClientResponse res;
    std::string error;
    if (!daemon::httpRequest("127.0.0.1", port, method, target, body,
                             headers, res, error))
        ADD_FAILURE() << method << " " << target << ": " << error;
    return res;
}

/** The daemon's error body: {apiVersion, error: {code, ...}}. */
std::string
errorCode(const daemon::HttpClientResponse &res)
{
    const JsonValue doc = parseJson(res.body, "error-body");
    const JsonValue *err = doc.find("error");
    if (err == nullptr)
        return "(no error object)";
    return service::api::errorFromJson(*err).code;
}

std::string
jobBody(const std::string &qasm, const std::string &pipeline,
        const std::string &name = "job")
{
    JsonValue doc = JsonValue::makeObject();
    doc.set("apiVersion", JsonValue::makeNumber(1));
    doc.set("name", JsonValue::makeString(name));
    doc.set("qasm", JsonValue::makeString(qasm));
    doc.set("pipeline", JsonValue::makeString(pipeline));
    return backend::dumpJson(doc);
}

/** POST a job; expects 202 and returns the assigned id. */
std::uint64_t
submit(int port, const std::string &body)
{
    const auto res = http(port, "POST", "/v1/jobs", body);
    EXPECT_EQ(res.status, 202) << res.body;
    const JsonValue doc = parseJson(res.body, "submit");
    const JsonValue *id = doc.find("id");
    EXPECT_NE(id, nullptr);
    return id ? static_cast<std::uint64_t>(id->number) : 0;
}

/** Poll status until done/failed/canceled; returns the final state. */
std::string
awaitFinal(int port, std::uint64_t id)
{
    const std::string target = "/v1/jobs/" + std::to_string(id);
    for (int i = 0; i < 4000; ++i) {  // 20s cap at 5ms per poll
        const auto res = http(port, "GET", target);
        if (res.status != 200)
            return "status=" + std::to_string(res.status);
        const JsonValue doc = parseJson(res.body, "status");
        const std::string st = doc.find("status")->str;
        if (st == "done" || st == "failed" || st == "canceled")
            return st;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return "(timeout)";
}

/** A started daemon on an ephemeral port; stops on destruction. */
struct Daemon
{
    daemon::CompileDaemon d;
    explicit Daemon(daemon::DaemonOptions opts) : d(std::move(opts))
    {
        std::string error;
        if (!d.start(error))
            ADD_FAILURE() << "daemon start: " << error;
    }
    ~Daemon() { d.stop(); }
    int port() { return d.port(); }
};

daemon::DaemonOptions
baseOptions()
{
    daemon::DaemonOptions opts;
    opts.service.threads = 1;  // one worker: FIFO, pinnable states
    opts.http.port = 0;
    return opts;
}

std::string
suiteQasm()
{
    return circuit::toQasm(suite::smallSuite().front().circuit);
}

} // namespace

// ---- Framing and routing -----------------------------------------------

TEST(DaemonProtocol, RejectsMalformedAndInvalidBodies)
{
    Daemon dm(baseOptions());
    const int p = dm.port();

    auto res = http(p, "POST", "/v1/jobs", "{not json");
    EXPECT_EQ(res.status, 400);
    EXPECT_EQ(errorCode(res), service::errc::kBadRequest);

    res = http(p, "POST", "/v1/jobs", R"({"qasm": ""})");
    EXPECT_EQ(res.status, 400);
    EXPECT_EQ(errorCode(res), service::errc::kBadRequest);

    res = http(p, "POST", "/v1/jobs",
               jobBody(suiteQasm(), "not-a-pipeline"));
    EXPECT_EQ(res.status, 400);
    EXPECT_EQ(errorCode(res), service::errc::kBadPipelineSpec);

    // Invalid QASM passes submission (parsing happens in the worker)
    // and surfaces as a failed job with a structured parse error.
    const std::uint64_t id =
        submit(p, jobBody("qreg q[2];\nh q[0]\n", "eff"));
    EXPECT_EQ(awaitFinal(p, id), "failed");
    res = http(p, "GET", "/v1/jobs/" + std::to_string(id) +
                             "/result");
    EXPECT_EQ(res.status, 200);
    const JsonValue doc = parseJson(res.body, "result");
    EXPECT_FALSE(doc.find("ok")->boolean);
    EXPECT_EQ(service::api::errorFromJson(*doc.find("error")).code,
              service::errc::kParseError);
}

TEST(DaemonProtocol, OversizedBodyIs413)
{
    daemon::DaemonOptions opts = baseOptions();
    opts.http.maxBodyBytes = 1024;
    Daemon dm(std::move(opts));
    const auto res = http(dm.port(), "POST", "/v1/jobs",
                          std::string(4096, 'x'));
    EXPECT_EQ(res.status, 413);
    EXPECT_EQ(errorCode(res), service::errc::kBodyTooLarge);
}

TEST(DaemonProtocol, UnknownRoutesAndMethods)
{
    Daemon dm(baseOptions());
    const int p = dm.port();
    EXPECT_EQ(http(p, "GET", "/v1/frobs").status, 404);
    EXPECT_EQ(errorCode(http(p, "GET", "/nope")),
              service::errc::kNotFound);
    // Job ids are numeric; a non-numeric id is no such route.
    EXPECT_EQ(http(p, "GET", "/v1/jobs/abc").status, 404);
    // Known routes, wrong verbs.
    EXPECT_EQ(http(p, "GET", "/v1/jobs").status, 405);
    EXPECT_EQ(http(p, "PUT", "/v1/jobs/1").status, 405);
    EXPECT_EQ(http(p, "DELETE", "/healthz").status, 405);
    EXPECT_EQ(errorCode(http(p, "POST", "/metrics")),
              service::errc::kMethodNotAllowed);
    // Unknown job id on a real route.
    EXPECT_EQ(http(p, "GET", "/v1/jobs/999").status, 404);
    EXPECT_EQ(http(p, "GET", "/v1/jobs/999/result").status, 404);
    EXPECT_EQ(http(p, "DELETE", "/v1/jobs/999").status, 404);
}

TEST(DaemonProtocol, OverflowingJobIdIsNotFound)
{
    // 2^64 + 1: its first 19 digits pass the 2^62 bound, and the
    // last multiply would wrap it around onto job 1.
    Daemon dm(baseOptions());
    const int p = dm.port();
    ASSERT_EQ(submit(p, jobBody(suiteQasm(), "eff")), 1u);
    const std::string target = "/v1/jobs/18446744073709551617";
    EXPECT_EQ(http(p, "GET", target).status, 404);
    EXPECT_EQ(http(p, "DELETE", target).status, 404);
    EXPECT_EQ(awaitFinal(p, 1), "done");
}

TEST(DaemonProtocol, HealthAndMetricsServe)
{
    Daemon dm(baseOptions());
    const auto health = http(dm.port(), "GET", "/healthz");
    EXPECT_EQ(health.status, 200);
    const JsonValue doc = parseJson(health.body, "healthz");
    EXPECT_EQ(doc.find("status")->str, "ok");
    EXPECT_FALSE(doc.find("draining")->boolean);

    const auto metrics = http(dm.port(), "GET", "/metrics");
    EXPECT_EQ(metrics.status, 200);
    EXPECT_NE(metrics.body.find("reqisc_daemon_requests_total"),
              std::string::npos);
}

TEST(DaemonProtocol, MoreClientsThanHandlersAreAllServed)
{
    // 8 clients at once against 2 handler threads: the connections
    // no handler has taken yet wait in the listen backlog, and every
    // request is answered.
    daemon::DaemonOptions opts = baseOptions();
    opts.http.handlerThreads = 2;
    Daemon dm(std::move(opts));
    const int p = dm.port();
    std::atomic<int> ok{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 8; ++c)
        clients.emplace_back([&] {
            for (int i = 0; i < 25; ++i)
                if (http(p, "GET", "/healthz").status == 200)
                    ok.fetch_add(1);
        });
    for (std::thread &t : clients)
        t.join();
    EXPECT_EQ(ok.load(), 8 * 25);

    // The handlers wake from their 100 ms poll to see stop().
    const auto t0 = std::chrono::steady_clock::now();
    dm.d.stop();
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(2));
}

// ---- The cancel state machine ------------------------------------------

TEST(DaemonProtocol, CancelStateMachine)
{
    Daemon dm(baseOptions());
    const int p = dm.port();
    // The slowed full job occupies the single worker for ~400ms...
    const std::uint64_t running =
        submit(p, jobBody(suiteQasm(), "full", "slow"));
    // ...so the eff job behind it is reliably still queued.
    const std::uint64_t queued =
        submit(p, jobBody(suiteQasm(), "eff", "fast"));

    // result of an unfinished job: 409 not-ready.
    auto res = http(p, "GET", "/v1/jobs/" + std::to_string(running) +
                                  "/result");
    EXPECT_EQ(res.status, 409);
    EXPECT_EQ(errorCode(res), service::errc::kNotReady);

    // Cancel the queued job: 200, and its result is now 410 gone.
    res = http(p, "DELETE", "/v1/jobs/" + std::to_string(queued));
    EXPECT_EQ(res.status, 200) << res.body;
    res = http(p, "GET",
               "/v1/jobs/" + std::to_string(queued) + "/result");
    EXPECT_EQ(res.status, 410);
    EXPECT_EQ(errorCode(res), service::errc::kCanceled);
    // Canceling again is idempotent.
    res = http(p, "DELETE", "/v1/jobs/" + std::to_string(queued));
    EXPECT_EQ(res.status, 200);

    // The running job cannot be canceled.
    res = http(p, "DELETE", "/v1/jobs/" + std::to_string(running));
    EXPECT_EQ(res.status, 409);
    EXPECT_EQ(errorCode(res), service::errc::kNotCancelable);

    // Once finished, cancel reports already-completed and the result
    // still serves.
    EXPECT_EQ(awaitFinal(p, running), "done");
    res = http(p, "DELETE", "/v1/jobs/" + std::to_string(running));
    EXPECT_EQ(res.status, 409);
    EXPECT_EQ(errorCode(res), service::errc::kAlreadyCompleted);
    res = http(p, "GET", "/v1/jobs/" + std::to_string(running) +
                             "/result");
    EXPECT_EQ(res.status, 200);
    const JsonValue doc = parseJson(res.body, "result");
    EXPECT_TRUE(doc.find("ok")->boolean);
    // The status document streamed per-pass progress on the way.
    res = http(p, "GET", "/v1/jobs/" + std::to_string(running));
    const JsonValue st = parseJson(res.body, "status");
    EXPECT_FALSE(st.find("passes")->array.empty());
}

TEST(DaemonProtocol, StatusAndCancelAgreeOnARunningJob)
{
    // hier-synth is this job's first pass, so its ~400ms hold comes
    // before any pass trace: the job reads running as soon as the
    // worker has it, the same state the cancel route acts on. A
    // two-qubit input: no 3-qubit block can reach estimate unlowered.
    Daemon dm(baseOptions());
    const int p = dm.port();
    const std::string bell =
        "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n";
    const std::uint64_t id =
        submit(p, jobBody(bell, "custom:hier-synth", "first"));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const std::string target = "/v1/jobs/" + std::to_string(id);
    auto res = http(p, "GET", target);
    ASSERT_EQ(res.status, 200) << res.body;
    EXPECT_EQ(parseJson(res.body, "status").find("status")->str,
              "running");
    res = http(p, "DELETE", target);
    EXPECT_EQ(res.status, 409);
    EXPECT_EQ(errorCode(res), service::errc::kNotCancelable);
    EXPECT_EQ(awaitFinal(p, id), "done");
}

// ---- Admission control -------------------------------------------------

TEST(DaemonProtocol, QueueFullIsAnImmediate429)
{
    daemon::DaemonOptions opts = baseOptions();
    opts.maxQueue = 1;
    Daemon dm(std::move(opts));
    const int p = dm.port();
    const std::uint64_t id =
        submit(p, jobBody(suiteQasm(), "full", "occupant"));
    const auto res = http(p, "POST", "/v1/jobs",
                          jobBody(suiteQasm(), "eff", "surplus"));
    EXPECT_EQ(res.status, 429);
    EXPECT_EQ(errorCode(res), service::errc::kQueueFull);
    EXPECT_NE(res.header("retry-after"), nullptr);
    // The accepted occupant still completes.
    EXPECT_EQ(awaitFinal(p, id), "done");
}

TEST(DaemonProtocol, QuotaExhaustionIsA429WithRetryAfter)
{
    daemon::DaemonOptions opts = baseOptions();
    opts.quotaRate = 0.001;  // effectively no refill inside the test
    opts.quotaBurst = 2;
    Daemon dm(std::move(opts));
    const int p = dm.port();
    const Headers client = {{"X-Client-Id", "tester"}};
    const std::string body = jobBody(suiteQasm(), "eff");
    EXPECT_EQ(http(p, "POST", "/v1/jobs", body, client).status, 202);
    EXPECT_EQ(http(p, "POST", "/v1/jobs", body, client).status, 202);
    const auto res = http(p, "POST", "/v1/jobs", body, client);
    EXPECT_EQ(res.status, 429);
    EXPECT_EQ(errorCode(res), service::errc::kQuotaExceeded);
    ASSERT_NE(res.header("retry-after"), nullptr);
    EXPECT_GE(std::atoi(res.header("retry-after")->c_str()), 1);
    // A different client has its own bucket.
    EXPECT_EQ(http(p, "POST", "/v1/jobs", body,
                   {{"X-Client-Id", "other"}})
                  .status,
              202);
}

TEST(DaemonProtocol, QueueFullRejectionDoesNotChargeQuota)
{
    daemon::DaemonOptions opts = baseOptions();
    opts.maxQueue = 1;
    opts.quotaRate = 0.001;  // effectively no refill inside the test
    opts.quotaBurst = 2;
    Daemon dm(std::move(opts));
    const int p = dm.port();
    const Headers client = {{"X-Client-Id", "meter"}};

    // Token 1 of 2: the slow full job fills the queue bound.
    auto res = http(p, "POST", "/v1/jobs",
                    jobBody(suiteQasm(), "full", "occupant"), client);
    ASSERT_EQ(res.status, 202) << res.body;
    const std::uint64_t occupant = static_cast<std::uint64_t>(
        parseJson(res.body, "submit").find("id")->number);

    // Bounced by the queue bound — must NOT cost a token.
    res = http(p, "POST", "/v1/jobs", jobBody(suiteQasm(), "eff"),
               client);
    EXPECT_EQ(res.status, 429);
    EXPECT_EQ(errorCode(res), service::errc::kQueueFull);

    // Token 2 of 2 is therefore still available once the queue
    // clears...
    EXPECT_EQ(awaitFinal(p, occupant), "done");
    res = http(p, "POST", "/v1/jobs",
               jobBody(suiteQasm(), "eff", "second"), client);
    EXPECT_EQ(res.status, 202) << res.body;
    const std::uint64_t second = static_cast<std::uint64_t>(
        parseJson(res.body, "submit").find("id")->number);
    EXPECT_EQ(awaitFinal(p, second), "done");

    // ...and only now is the bucket genuinely empty.
    res = http(p, "POST", "/v1/jobs", jobBody(suiteQasm(), "eff"),
               client);
    EXPECT_EQ(res.status, 429);
    EXPECT_EQ(errorCode(res), service::errc::kQuotaExceeded);
}

// ---- Finished-record retention -----------------------------------------

TEST(DaemonProtocol, FinishedRecordsEvictPastTheCap)
{
    daemon::DaemonOptions opts = baseOptions();
    opts.service.maxFinished = 2;
    Daemon dm(std::move(opts));
    const int p = dm.port();

    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 3; ++i) {
        ids.push_back(submit(
            p, jobBody(suiteQasm(), "eff",
                       "job" + std::to_string(i))));
        ASSERT_EQ(awaitFinal(p, ids.back()), "done");
    }

    // The oldest finished record was evicted; the registry answers
    // 404 for it while the two newest still serve in full.
    EXPECT_EQ(http(p, "GET",
                   "/v1/jobs/" + std::to_string(ids[0]))
                  .status,
              404);
    EXPECT_EQ(http(p, "GET",
                   "/v1/jobs/" + std::to_string(ids[0]) + "/result")
                  .status,
              404);
    for (int i = 1; i < 3; ++i) {
        const auto res = http(
            p, "GET",
            "/v1/jobs/" + std::to_string(ids[i]) + "/result");
        EXPECT_EQ(res.status, 200);
        EXPECT_TRUE(
            parseJson(res.body, "result").find("ok")->boolean);
    }
}

// ---- Teardown with work in flight --------------------------------------

TEST(DaemonProtocol, DestructionWithJobsInFlightJoinsSafely)
{
    // Destroying the daemon with queued and running jobs must join
    // the compile workers before any state they touch dies — they
    // record each job's passes and result in the service's job
    // table, under its mutex, up to the very last job. No assertions
    // needed: the ASan/TSan jobs fail this test if teardown touches
    // destroyed state.
    Daemon dm(baseOptions());
    const int p = dm.port();
    submit(p, jobBody(suiteQasm(), "full", "running"));
    submit(p, jobBody(suiteQasm(), "eff", "queued1"));
    submit(p, jobBody(suiteQasm(), "eff", "queued2"));
}

// ---- Graceful drain ----------------------------------------------------

TEST(DaemonProtocol, DrainFinishesInFlightAndRejectsNewWork)
{
    Daemon dm(baseOptions());
    const int p = dm.port();
    const std::uint64_t inflight =
        submit(p, jobBody(suiteQasm(), "full", "inflight"));
    dm.d.beginDrain();

    // New submissions bounce with 503 shutting-down + Retry-After.
    const auto rejected = http(p, "POST", "/v1/jobs",
                               jobBody(suiteQasm(), "eff"));
    EXPECT_EQ(rejected.status, 503);
    EXPECT_EQ(errorCode(rejected), service::errc::kShuttingDown);
    EXPECT_NE(rejected.header("retry-after"), nullptr);

    // Status keeps serving during the drain and reports it.
    const auto health = http(p, "GET", "/healthz");
    EXPECT_TRUE(
        parseJson(health.body, "healthz").find("draining")->boolean);

    // The accepted job is never lost: drain completes it, and the
    // result remains fetchable afterwards.
    dm.d.waitDrained();
    EXPECT_EQ(awaitFinal(p, inflight), "done");
    const auto res = http(p, "GET", "/v1/jobs/" +
                                        std::to_string(inflight) +
                                        "/result");
    EXPECT_EQ(res.status, 200);
    EXPECT_TRUE(parseJson(res.body, "result").find("ok")->boolean);
}

TEST(DaemonProtocol, UnicodeEscapedNameIsDecodedAndEchoed)
{
    Daemon dm(baseOptions());
    const int p = dm.port();
    // Python's json.dumps writes the name "café" as "caf\u00e9".
    const auto withName = [](const std::string &escaped) {
        std::string body = jobBody(suiteQasm(), "eff", "@");
        body.replace(body.find("\"@\""), 3, "\"" + escaped + "\"");
        return body;
    };
    const std::uint64_t id = submit(p, withName("caf\\u00e9"));
    const auto st = http(p, "GET", "/v1/jobs/" + std::to_string(id));
    ASSERT_EQ(st.status, 200) << st.body;
    EXPECT_EQ(parseJson(st.body, "status").find("name")->str,
              "caf\xc3\xa9");
    EXPECT_EQ(awaitFinal(p, id), "done");

    // A malformed escape is a structured 400, not a crash.
    const auto bad =
        http(p, "POST", "/v1/jobs", withName("caf\\ud800"));
    EXPECT_EQ(bad.status, 400);
    EXPECT_EQ(errorCode(bad), service::errc::kBadRequest);
}

TEST(DaemonProtocol, ScheduledJobReportsItsStrategy)
{
    Daemon dm(baseOptions());
    const int p = dm.port();
    JsonValue body = parseJson(jobBody(suiteQasm(), "eff"), "body");
    body.set("schedule", JsonValue::makeString("alap"));
    const std::uint64_t id = submit(p, backend::dumpJson(body));
    ASSERT_EQ(awaitFinal(p, id), "done");
    const auto res = http(p, "GET", "/v1/jobs/" + std::to_string(id) +
                                        "/result");
    ASSERT_EQ(res.status, 200);
    const JsonValue doc = parseJson(res.body, "result");
    const JsonValue *sched = doc.find("schedule");
    ASSERT_NE(sched, nullptr);
    ASSERT_NE(sched->find("strategy"), nullptr);
    EXPECT_EQ(sched->find("strategy")->str, "alap");
}

// ---- End-to-end bit-identity vs the in-process service -----------------

TEST(DaemonProtocol, ArtifactsBitIdenticalToDirectService)
{
    const std::string qasm = suiteQasm();

    // Direct: the same request on a CompileService, no HTTP.
    service::ServiceOptions sopts;
    sopts.threads = 1;
    service::CompileService svc(sopts);
    service::CompileRequest req;
    req.name = "direct";
    req.qasm = qasm;
    req.pipelineSpec = "eff";
    svc.submit(std::move(req));
    const service::JobResult direct = svc.waitAll().front();
    ASSERT_TRUE(direct.ok) << direct.errorInfo.message;

    // Via the daemon, over the wire.
    Daemon dm(baseOptions());
    const int p = dm.port();
    const std::uint64_t id =
        submit(p, jobBody(qasm, "eff", "wire"));
    ASSERT_EQ(awaitFinal(p, id), "done");
    const auto res = http(p, "GET", "/v1/jobs/" + std::to_string(id) +
                                        "/result");
    ASSERT_EQ(res.status, 200);
    const JsonValue doc = parseJson(res.body, "result");

    // The compiled circuit travels as 17-significant-digit OpenQASM:
    // the daemon's artifact must equal the direct one byte for byte.
    ASSERT_NE(doc.find("circuit"), nullptr);
    EXPECT_EQ(doc.find("circuit")->str,
              circuit::toQasm(direct.compiled.circuit));
    const JsonValue &perm = *doc.find("finalPermutation");
    ASSERT_EQ(perm.array.size(),
              direct.compiled.finalPermutation.size());
    for (std::size_t i = 0; i < perm.array.size(); ++i)
        EXPECT_EQ(static_cast<int>(perm.array[i].number),
                  direct.compiled.finalPermutation[i]);
    // And the scalar metrics agree exactly.
    EXPECT_EQ(doc.find("count2Q")->number,
              static_cast<double>(direct.metrics.count2Q));
    EXPECT_EQ(doc.find("duration")->number,
              direct.metrics.duration);
}
