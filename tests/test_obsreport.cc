/**
 * @file
 * Tests for tools/obsreport on canned inputs: both --json shapes
 * (bench_service's passes object and reqisc-compile's circuits
 * array), Prometheus histogram reconstruction, Chrome-trace span
 * aggregation, the attribution pipeline (a deliberately slowed
 * hier-synth must rank as top regressor — the same invariant the CI
 * attribution smoke pins end-to-end) and the empty-histogram NaN
 * guard.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "backend/json.hh"
#include "obsreport/report.hh"

using namespace reqisc;
using tools::RunData;

namespace
{

const char *kServiceBase = R"({
  "circuits": 8,
  "memoSpeedup": 10.0,
  "obsEfficiency": 0.99,
  "passSecondsTotal": 1.0,
  "passes": {
    "hier-synth": {"seconds": 0.60, "share": 0.6},
    "synth": {"seconds": 0.30, "share": 0.3},
    "mirror": {"seconds": 0.10, "share": 0.1}
  }
})";

/** Same run with hier-synth slowed ~3x and synth slightly faster. */
const char *kServiceCand = R"({
  "circuits": 8,
  "memoSpeedup": 9.0,
  "obsEfficiency": 0.90,
  "passSecondsTotal": 2.15,
  "passes": {
    "hier-synth": {"seconds": 1.80, "share": 0.837},
    "synth": {"seconds": 0.25, "share": 0.116},
    "mirror": {"seconds": 0.10, "share": 0.047}
  }
})";

const char *kCompileJson = R"({
  "jobs": 2,
  "wallSeconds": 1.5,
  "circuits": [
    {"name": "a", "ok": true, "seconds": 0.5, "passes": [
      {"name": "synth", "seconds": 0.2},
      {"name": "hier-synth", "seconds": 0.3}]},
    {"name": "b", "ok": false, "error": "boom"},
    {"name": "c", "ok": true, "seconds": 0.4, "passes": [
      {"name": "hier-synth", "seconds": 0.4}]}
  ]
})";

const char *kPromText =
    "# HELP reqisc_jobs_total jobs\n"
    "# TYPE reqisc_jobs_total counter\n"
    "reqisc_jobs_total 12\n"
    "# HELP reqisc_queue_depth depth\n"
    "# TYPE reqisc_queue_depth gauge\n"
    "reqisc_queue_depth 2.5\n"
    "# HELP h latency\n"
    "# TYPE h histogram\n"
    "h_bucket{le=\"0.1\"} 2\n"
    "h_bucket{le=\"1\"} 6\n"
    "h_bucket{le=\"+Inf\"} 8\n"
    "h_sum 4.2\n"
    "h_count 8\n"
    "# TYPE empty histogram\n"
    "empty_bucket{le=\"1\"} 0\n"
    "empty_bucket{le=\"+Inf\"} 0\n"
    "empty_sum 0\n"
    "empty_count 0\n";

} // namespace

TEST(ObsReportIngest, BenchServiceShape)
{
    RunData run;
    ingestBenchJson(run, kServiceBase, "svc");
    EXPECT_DOUBLE_EQ(run.passSeconds.at("hier-synth"), 0.60);
    EXPECT_DOUBLE_EQ(run.passSeconds.at("mirror"), 0.10);
    // Scalars are flattened with dotted keys, including the passes
    // object itself (bench/baselines.json addresses
    // "passes.hier-synth.share" exactly this way).
    EXPECT_DOUBLE_EQ(run.scalars.at("memoSpeedup"), 10.0);
    EXPECT_DOUBLE_EQ(run.scalars.at("passes.hier-synth.share"),
                     0.6);
    EXPECT_DOUBLE_EQ(run.scalars.at("circuits"), 8.0);
}

TEST(ObsReportIngest, CompileShapeAggregatesAcrossCircuits)
{
    RunData run;
    ingestBenchJson(run, kCompileJson, "cli");
    EXPECT_DOUBLE_EQ(run.passSeconds.at("hier-synth"), 0.7);
    EXPECT_DOUBLE_EQ(run.passSeconds.at("synth"), 0.2);
    EXPECT_DOUBLE_EQ(run.scalars.at("wallSeconds"), 1.5);
    EXPECT_DOUBLE_EQ(run.scalars.at("circuits.a.seconds"), 0.5);
    EXPECT_DOUBLE_EQ(run.scalars.at("circuits.c.seconds"), 0.4);
    // The failed circuit contributes no passes and no scalar.
    EXPECT_EQ(run.scalars.count("circuits.b.seconds"), 0u);
}

TEST(ObsReportIngest, UnrecognizedShapeThrows)
{
    RunData run;
    EXPECT_THROW(ingestBenchJson(run, R"({"foo": 1})", "x"),
                 backend::JsonError);
    EXPECT_THROW(ingestBenchJson(run, "[1, 2]", "x"),
                 backend::JsonError);
    EXPECT_THROW(ingestBenchJson(run, "not json", "x"),
                 backend::JsonError);
}

TEST(ObsReportIngest, PromTextRebuildsHistograms)
{
    RunData run;
    ingestPromText(run, kPromText);
    EXPECT_DOUBLE_EQ(run.scalars.at("reqisc_jobs_total"), 12.0);
    EXPECT_DOUBLE_EQ(run.scalars.at("reqisc_queue_depth"), 2.5);
    // Histogram series must not leak into the scalar diff.
    EXPECT_EQ(run.scalars.count("h_sum"), 0u);
    EXPECT_EQ(run.scalars.count("h_count"), 0u);

    const obs::HistogramSnapshot &h = run.histograms.at("h");
    EXPECT_EQ(h.count, 8u);
    EXPECT_DOUBLE_EQ(h.sum, 4.2);
    ASSERT_EQ(h.bounds.size(), 2u);
    ASSERT_EQ(h.buckets.size(), 3u);  // cumulative de-accumulated
    EXPECT_EQ(h.buckets[0], 2u);
    EXPECT_EQ(h.buckets[1], 4u);
    EXPECT_EQ(h.buckets[2], 2u);  // +Inf remainder
    // Interpolated median: rank 4 falls 2/4 into (0.1, 1].
    EXPECT_NEAR(h.quantile(0.5), 0.55, 1e-12);

    // The empty histogram reconstructs but has NaN quantiles.
    const obs::HistogramSnapshot &e = run.histograms.at("empty");
    EXPECT_EQ(e.count, 0u);
    EXPECT_TRUE(std::isnan(e.quantile(0.5)));
}

TEST(ObsReportIngest, TraceJsonSumsSpanDurationsByName)
{
    RunData run;
    ingestTraceJson(
        run,
        R"({"traceEvents":[
          {"name":"hier-synth","ph":"X","ts":0,"dur":1000000},
          {"name":"hier-synth","ph":"X","ts":0,"dur":500000},
          {"name":"mirror","ph":"X","ts":0,"dur":250000}
        ],"displayTimeUnit":"ms"})",
        "trace");
    EXPECT_NEAR(run.passSeconds.at("hier-synth"), 1.5, 1e-9);
    EXPECT_NEAR(run.passSeconds.at("mirror"), 0.25, 1e-9);
    EXPECT_THROW(ingestTraceJson(run, R"({"foo":1})", "t"),
                 backend::JsonError);
}

TEST(ObsReport, SlowedHierSynthRanksTopRegressor)
{
    RunData base, cand;
    ingestBenchJson(base, kServiceBase, "base");
    ingestBenchJson(cand, kServiceCand, "cand");
    const tools::Report r = tools::compare(base, cand);

    EXPECT_NEAR(r.totalBaseSeconds, 1.0, 1e-9);
    EXPECT_NEAR(r.totalCandSeconds, 2.15, 1e-9);
    ASSERT_FALSE(r.topRegressors.empty());
    EXPECT_EQ(r.topRegressors[0], "hier-synth");

    ASSERT_FALSE(r.passes.empty());
    const tools::PassDelta &worst = r.passes[0];
    EXPECT_EQ(worst.pass, "hier-synth");
    EXPECT_NEAR(worst.deltaSeconds, 1.2, 1e-9);
    EXPECT_NEAR(worst.ratio, 3.0, 1e-9);
    // 1.2s of a 1.15s total delta: the improvement elsewhere gives
    // the regressor a share slightly above 1 — by design.
    EXPECT_NEAR(worst.shareOfTotalDelta, 1.2 / 1.15, 1e-9);
    // synth got faster: negative delta, sorted last.
    EXPECT_EQ(r.passes.back().pass, "synth");
    EXPECT_LT(r.passes.back().deltaSeconds, 0.0);

    // The scalar diff picks up the changed keys only.
    bool sawMemo = false;
    for (const tools::ScalarDelta &s : r.scalars)
    {
        EXPECT_NE(s.key, "circuits");  // unchanged: not reported
        if (s.key == "memoSpeedup")
        {
            sawMemo = true;
            EXPECT_NEAR(s.delta, -1.0, 1e-9);
        }
    }
    EXPECT_TRUE(sawMemo);
}

TEST(ObsReport, EmptyHistogramsAreSkippedNotDividedByZero)
{
    RunData base, cand;
    ingestPromText(base, kPromText);
    // Candidate run: "h" never got a sample, "empty" stays empty.
    ingestPromText(cand,
                   "# TYPE h histogram\n"
                   "h_bucket{le=\"0.1\"} 0\n"
                   "h_bucket{le=\"1\"} 0\n"
                   "h_bucket{le=\"+Inf\"} 0\n"
                   "h_sum 0\n"
                   "h_count 0\n"
                   "# TYPE empty histogram\n"
                   "empty_bucket{le=\"1\"} 0\n"
                   "empty_bucket{le=\"+Inf\"} 0\n"
                   "empty_sum 0\n"
                   "empty_count 0\n");
    const tools::Report r = tools::compare(base, cand);
    // No quantile shift may be reported from/to a no-sample run.
    EXPECT_TRUE(r.quantiles.empty());
}

TEST(ObsReport, QuantileShiftsReportedWhenBothSidesHaveSamples)
{
    RunData base, cand;
    ingestPromText(base, kPromText);
    ingestPromText(cand,
                   "# TYPE h histogram\n"
                   "h_bucket{le=\"0.1\"} 0\n"
                   "h_bucket{le=\"1\"} 4\n"
                   "h_bucket{le=\"+Inf\"} 8\n"
                   "h_sum 9.0\n"
                   "h_count 8\n");
    const tools::Report r = tools::compare(base, cand);
    ASSERT_EQ(r.quantiles.size(), 3u);  // p50/p95/p99 for "h"
    EXPECT_EQ(r.quantiles[0].metric, "h");
    EXPECT_DOUBLE_EQ(r.quantiles[0].q, 0.5);
    EXPECT_GT(r.quantiles[0].cand, r.quantiles[0].base);
}

TEST(ObsReport, ReportJsonIsParseable)
{
    RunData base, cand;
    ingestBenchJson(base, kServiceBase, "base");
    ingestBenchJson(cand, kServiceCand, "cand");
    const std::string json =
        tools::reportJson(tools::compare(base, cand));
    const backend::JsonValue doc =
        backend::parseJson(json, "report");
    ASSERT_NE(doc.find("obsreport"), nullptr);
    const backend::JsonValue *top = doc.find("topRegressors");
    ASSERT_NE(top, nullptr);
    ASSERT_TRUE(top->isArray());
    ASSERT_FALSE(top->array.empty());
    EXPECT_EQ(top->array[0].str, "hier-synth");
    const backend::JsonValue *total = doc.find("total");
    ASSERT_NE(total, nullptr);
    EXPECT_NEAR(total->find("deltaSeconds")->number, 1.15, 1e-6);
}
