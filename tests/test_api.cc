/**
 * @file
 * Tests for the v1 wire schema (service/api.hh): every document
 * round-trips through the repo's own parser (backend/json.hh), the
 * request parser is strict where the policy says so and lenient
 * where it must be, and the result emitter pins the key set that
 * `reqisc-compile --json` has always printed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "backend/json.hh"
#include "circuit/qasm.hh"
#include "isa/schedule.hh"
#include "service/api.hh"
#include "service/error.hh"
#include "service/service.hh"
#include "suite/suite.hh"

using namespace reqisc;
using backend::JsonValue;
using backend::dumpJson;
using backend::parseJson;
namespace api = service::api;

namespace
{

/** Serialize, reparse and return — the full wire round trip. */
JsonValue
rewire(const JsonValue &v, bool pretty)
{
    return parseJson(dumpJson(v, pretty), "wire");
}

/** Compile one small circuit synchronously; must succeed. */
service::JobResult
compileOne(const std::string &pipeline, bool schedule = false,
           isa::Strategy strategy = isa::Strategy::Asap)
{
    service::ServiceOptions sopts;
    sopts.threads = 1;
    service::CompileService svc(sopts);
    service::CompileRequest req;
    req.name = "api-test";
    req.input = suite::smallSuite().front().circuit;
    req.pipelineSpec = pipeline;
    req.schedule = schedule;
    req.scheduleOptions.strategy = strategy;
    svc.submit(std::move(req));
    auto results = svc.waitAll();
    EXPECT_EQ(results.size(), 1u);
    EXPECT_TRUE(results.front().ok) << results.front().errorInfo.message;
    return results.front();
}

} // namespace

// ---- Error objects -----------------------------------------------------

TEST(ApiError, RoundTripsThroughOwnParser)
{
    const service::ApiError e = service::makeError(
        service::errc::kQueueFull, "queue is full", "limit 64");
    for (bool pretty : {false, true}) {
        const service::ApiError back =
            api::errorFromJson(rewire(api::errorToJson(e), pretty));
        EXPECT_EQ(back.code, e.code);
        EXPECT_EQ(back.httpStatus, 429);
        EXPECT_EQ(back.message, e.message);
        EXPECT_EQ(back.detail, e.detail);
    }
}

TEST(ApiError, EmptyDetailIsOmittedFromTheWire)
{
    const JsonValue doc = api::errorToJson(
        service::makeError(service::errc::kNotFound, "no such job"));
    EXPECT_EQ(doc.find("detail"), nullptr);
}

TEST(ApiError, FromJsonNeverThrowsOnShapeProblems)
{
    // A malformed error report must not mask the error it reports.
    EXPECT_FALSE(api::errorFromJson(JsonValue::makeNull()).isError());
    EXPECT_FALSE(
        api::errorFromJson(JsonValue::makeString("oops")).isError());
    JsonValue wrong = JsonValue::makeObject();
    wrong.set("code", JsonValue::makeNumber(7));  // wrong type
    wrong.set("message", JsonValue::makeBool(true));
    EXPECT_FALSE(api::errorFromJson(wrong).isError());
}

// ---- Request bodies ----------------------------------------------------

TEST(ApiRequest, RoundTripsQasmVerbatim)
{
    service::CompileRequest req;
    req.name = "rt";
    req.input = suite::smallSuite().front().circuit;
    req.pipelineSpec = "eff";
    req.options.seed = 12345;
    req.schedule = true;
    req.scheduleOptions.strategy = isa::Strategy::Alap;

    const service::CompileRequest back = api::compileRequestFromJson(
        rewire(api::compileRequestToJson(req), true));
    EXPECT_EQ(back.name, "rt");
    // The circuit travels as 17-significant-digit OpenQASM, so the
    // reparsed circuit is gate-for-gate bit-identical.
    EXPECT_EQ(back.qasm, circuit::toQasm(req.input));
    EXPECT_EQ(back.pipelineSpec, "eff");
    EXPECT_EQ(back.options.seed, 12345u);
    EXPECT_TRUE(back.schedule);
    EXPECT_EQ(back.scheduleOptions.strategy, isa::Strategy::Alap);
}

TEST(ApiRequest, DefaultSpecGoesOnTheWire)
{
    service::CompileRequest req;
    req.input = suite::smallSuite().front().circuit;
    const JsonValue doc = api::compileRequestToJson(req);
    ASSERT_NE(doc.find("pipeline"), nullptr);
    EXPECT_EQ(doc.find("pipeline")->str, "full");
}

TEST(ApiRequest, StrictParserRejectsBadBodies)
{
    const auto codeOf = [](const std::string &body) {
        try {
            api::compileRequestFromJson(parseJson(body, "req"));
        } catch (const service::ApiException &e) {
            return e.error().code;
        }
        return std::string("(accepted)");
    };
    using namespace service::errc;
    EXPECT_EQ(codeOf("[1,2]"), kBadRequest);
    EXPECT_EQ(codeOf("{}"), kBadRequest);  // missing qasm
    EXPECT_EQ(codeOf(R"({"qasm": ""})"), kBadRequest);
    EXPECT_EQ(codeOf(R"({"qasm": 7})"), kBadRequest);
    EXPECT_EQ(codeOf(R"({"qasm": "x", "qsam": "typo"})"),
              kBadRequest);
    EXPECT_EQ(codeOf(R"({"qasm": "x", "apiVersion": 2})"),
              kBadRequest);
    EXPECT_EQ(codeOf(R"({"qasm": "x", "seed": -1})"), kBadRequest);
    EXPECT_EQ(codeOf(R"({"qasm": "x", "seed": 1.5})"), kBadRequest);
    // The seed is an unsigned: UINT_MAX fits, one more does not.
    EXPECT_EQ(codeOf(R"({"qasm": "x", "seed": 4294967295})"),
              "(accepted)");
    EXPECT_EQ(codeOf(R"({"qasm": "x", "seed": 4294967296})"),
              kBadRequest);
    EXPECT_EQ(codeOf(R"({"qasm": "x", "seed": 1e300})"), kBadRequest);
    EXPECT_EQ(codeOf(R"({"qasm": "x", "schedule": "sideways"})"),
              kBadRequest);
    EXPECT_EQ(codeOf(R"({"qasm": "x", "pipeline": "bogus-pass"})"),
              kBadPipelineSpec);
}

TEST(ApiRequest, DefaultsPipelineToFull)
{
    // Every default of a minimal body, as docs/SERVICE.md lists them.
    const service::CompileRequest req = api::compileRequestFromJson(
        parseJson(R"({"qasm": "OPENQASM 2.0;"})", "req"));
    EXPECT_EQ(req.pipelineSpec, "full");
    EXPECT_EQ(req.options.seed, 777u);
    EXPECT_FALSE(req.options.variationalMode);
    EXPECT_TRUE(req.calibrate);
    EXPECT_FALSE(req.schedule);
}

// ---- Result documents --------------------------------------------------

TEST(ApiResult, PinsTheCliKeySet)
{
    const service::JobResult r = compileOne("full");
    const JsonValue doc = rewire(api::jobResultToJson(r), true);
    for (const char *key :
         {"apiVersion", "id", "name", "ok", "count2Q", "depth2Q",
          "duration", "distinctSU4", "synthCacheHitRate",
          "pulseCacheHitRate", "synthCache", "pulseCache", "passes",
          "unsolvedClasses", "seconds"})
        EXPECT_NE(doc.find(key), nullptr) << "missing key: " << key;
    EXPECT_EQ(doc.find("apiVersion")->number, 1.0);
    EXPECT_TRUE(doc.find("ok")->boolean);
    // Pass names survive at circuits[].passes[].name — the path CI's
    // smoke step asserts on.
    const JsonValue &passes = *doc.find("passes");
    ASSERT_TRUE(passes.isArray());
    ASSERT_FALSE(passes.array.empty());
    std::vector<std::string> names;
    for (const JsonValue &p : passes.array) {
        ASSERT_NE(p.find("name"), nullptr);
        ASSERT_NE(p.find("seconds"), nullptr);
        names.push_back(p.find("name")->str);
    }
    EXPECT_NE(std::find(names.begin(), names.end(), "hier-synth"),
              names.end());
    // Artifacts stay off the wire until asked for.
    EXPECT_EQ(doc.find("circuit"), nullptr);
    EXPECT_EQ(doc.find("finalPermutation"), nullptr);
}

TEST(ApiResult, ArtifactsRoundTripBitIdentical)
{
    const service::JobResult r = compileOne("eff");
    api::ResultEmitOptions emit;
    emit.artifacts = true;
    const JsonValue doc = rewire(api::jobResultToJson(r, emit), false);
    ASSERT_NE(doc.find("circuit"), nullptr);
    // toQasm prints 17 significant digits, so the emitted text IS the
    // artifact: reparsing and reprinting reproduces it byte for byte.
    const std::string wire = doc.find("circuit")->str;
    EXPECT_EQ(wire, circuit::toQasm(r.compiled.circuit));
    EXPECT_EQ(circuit::toQasm(circuit::fromQasm(wire)), wire);
    const JsonValue &perm = *doc.find("finalPermutation");
    ASSERT_TRUE(perm.isArray());
    ASSERT_EQ(perm.array.size(), r.compiled.finalPermutation.size());
    for (std::size_t i = 0; i < perm.array.size(); ++i)
        EXPECT_EQ(static_cast<int>(perm.array[i].number),
                  r.compiled.finalPermutation[i]);
}

TEST(ApiResult, ScheduleStrategyComesFromTheTrace)
{
    // An explicit schedule:X pass runs strategy X, whatever the
    // request's own strategy is.
    const service::JobResult r =
        compileOne("custom:synth,lower,schedule:alap");
    api::ResultEmitOptions emit;
    emit.isaText = true;
    const JsonValue doc = rewire(api::jobResultToJson(r, emit), true);
    const JsonValue *sched = doc.find("schedule");
    ASSERT_NE(sched, nullptr);
    ASSERT_NE(sched->find("strategy"), nullptr);
    EXPECT_EQ(sched->find("strategy")->str, "alap");
    ASSERT_NE(sched->find("isa"), nullptr);
    EXPECT_FALSE(sched->find("isa")->str.empty());
}

TEST(ApiResult, CallerLabelFillsInWhenTheTraceDoesNotPinOne)
{
    // A service-appended schedule pass traces as plain "schedule"
    // and runs the request's own strategy, which the result reports.
    const service::JobResult r =
        compileOne("full", true, isa::Strategy::Serial);
    const JsonValue doc = rewire(api::jobResultToJson(r), true);
    const JsonValue *sched = doc.find("schedule");
    ASSERT_NE(sched, nullptr);
    ASSERT_NE(sched->find("strategy"), nullptr);
    EXPECT_EQ(sched->find("strategy")->str, "serial");
}

TEST(ApiResult, FailureCarriesTheStructuredError)
{
    service::ServiceOptions sopts;
    sopts.threads = 1;
    service::CompileService svc(sopts);
    service::CompileRequest req;
    req.name = "broken";
    req.qasm = "qreg q[2];\nh q[0]\n";  // missing ';'
    svc.submit(std::move(req));
    const service::JobResult r = svc.waitAll().front();
    ASSERT_FALSE(r.ok);
    const JsonValue doc = rewire(api::jobResultToJson(r), true);
    EXPECT_FALSE(doc.find("ok")->boolean);
    const JsonValue *err = doc.find("error");
    ASSERT_NE(err, nullptr);
    const service::ApiError e = api::errorFromJson(*err);
    EXPECT_EQ(e.code, service::errc::kParseError);
    EXPECT_EQ(e.httpStatus, 400);
    // No metrics keys on a failed result.
    EXPECT_EQ(doc.find("count2Q"), nullptr);
}

// ---- Serializer exactness ----------------------------------------------

TEST(ApiWire, NumbersRoundTripExactly)
{
    for (double x : {0.1, 1.0 / 3.0, 6.02214076e23, 1e-17,
                     123456789.123456789, -0.0078125}) {
        JsonValue doc = JsonValue::makeObject();
        doc.set("x", JsonValue::makeNumber(x));
        for (bool pretty : {false, true})
            EXPECT_EQ(rewire(doc, pretty).find("x")->number, x);
    }
    // Exact integers print without a decimal point.
    JsonValue doc = JsonValue::makeObject();
    doc.set("n", JsonValue::makeNumber(42.0));
    EXPECT_EQ(dumpJson(doc), "{\"n\":42}");
}
