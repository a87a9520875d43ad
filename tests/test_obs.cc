/**
 * @file
 * Tests for the observability layer: histogram bucket/quantile math
 * on exact known distributions, exact counts under concurrent
 * writers, the Prometheus exposition and Chrome trace-event formats, span
 * nesting/cross-thread parenting, the disabled-is-a-no-op contract,
 * the one JSON string escaper (pinned byte for byte to the escaping
 * dumpJson has always done, and round-tripped through every
 * emitter), one tid per thread across traces, logs and flight
 * events, a TSan-targeted concurrent mixed-traffic stress test, and
 * the end-to-end guarantee that pass spans and PassTrace agree (they
 * share one measurement).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "backend/json.hh"
#include "circuit/gate.hh"
#include "obs/json_escape.hh"
#include "obs/obs.hh"
#include "obs/trace_json.hh"
#include "service/service.hh"

using namespace reqisc;

namespace
{

/** Registry enabled at construction (the tests' default posture). */
obs::Registry &enabledRegistry(obs::Registry &r)
{
    r.setEnabled(true);
    return r;
}

// ---- Histogram bucket math ---------------------------------------------

TEST(ObsHistogram, ExactBucketCounts)
{
    obs::Registry reg;
    enabledRegistry(reg);
    obs::Histogram *h =
        reg.histogram("h", "test", {1.0, 2.0, 5.0});
    for (double v : {0.5, 1.0, 1.5, 2.0, 3.0, 10.0})
        h->observe(v);
    const obs::MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.histograms.size(), 1u);
    const obs::HistogramSnapshot &hs = snap.histograms[0];
    // le semantics: 0.5 and 1.0 -> le=1; 1.5 and 2.0 -> le=2;
    // 3.0 -> le=5; 10.0 -> +Inf overflow.
    ASSERT_EQ(hs.buckets.size(), 4u);
    EXPECT_EQ(hs.buckets[0], 2u);
    EXPECT_EQ(hs.buckets[1], 2u);
    EXPECT_EQ(hs.buckets[2], 1u);
    EXPECT_EQ(hs.buckets[3], 1u);
    EXPECT_EQ(hs.count, 6u);
    EXPECT_DOUBLE_EQ(hs.sum, 18.0);
}

TEST(ObsHistogram, QuantilesOnUniformDistribution)
{
    obs::Registry reg;
    enabledRegistry(reg);
    std::vector<double> bounds;
    for (int b = 10; b <= 100; b += 10)
        bounds.push_back(b);
    obs::Histogram *h = reg.histogram("u", "test", bounds);
    // Uniform 1..100: every 10-wide bucket holds exactly 10.
    for (int v = 1; v <= 100; ++v)
        h->observe(v);
    const obs::HistogramSnapshot hs =
        reg.snapshot().histograms[0];
    // Prometheus-style linear interpolation is exact here.
    EXPECT_DOUBLE_EQ(hs.quantile(0.50), 50.0);
    EXPECT_DOUBLE_EQ(hs.quantile(0.95), 95.0);
    EXPECT_DOUBLE_EQ(hs.quantile(0.99), 99.0);
}

TEST(ObsHistogram, QuantileEdgeCases)
{
    obs::Registry reg;
    enabledRegistry(reg);
    obs::Histogram *h =
        reg.histogram("e", "test", {1.0, 2.0});
    // Empty histogram -> NaN (the "no samples" sentinel, matching
    // Prometheus histogram_quantile; consumers check std::isnan).
    EXPECT_TRUE(
        std::isnan(reg.snapshot().histograms[0].quantile(0.5)));
    // Everything in the overflow bucket -> best bounded estimate is
    // the largest finite bound.
    h->observe(100.0);
    EXPECT_DOUBLE_EQ(reg.snapshot().histograms[0].quantile(0.99),
                     2.0);
    // First bucket interpolates from lower edge 0.
    obs::Histogram *h2 =
        reg.histogram("e2", "test", {10.0});
    h2->observe(3.0);
    h2->observe(4.0);
    EXPECT_DOUBLE_EQ(reg.snapshot().histograms[1].quantile(0.5),
                     5.0);
}

TEST(ObsHistogram, RejectsBadBounds)
{
    obs::Registry reg;
    EXPECT_THROW(reg.histogram("a", "t", {2.0, 1.0}),
                 std::invalid_argument);
    EXPECT_THROW(reg.histogram("b", "t", {1.0, 1.0}),
                 std::invalid_argument);
}

// ---- Counters, gauges, registry semantics ------------------------------

TEST(ObsRegistry, CounterMergesAcrossThreads)
{
    obs::Registry reg;
    enabledRegistry(reg);
    obs::Counter *c = reg.counter("c", "test");
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([c] {
            for (int i = 0; i < 10000; ++i)
                c->inc();
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(c->value(), 80000);
}

TEST(ObsRegistry, GaugeKeepsTheLastSet)
{
    obs::Registry reg;
    enabledRegistry(reg);
    obs::Gauge *g = reg.gauge("g", "test");
    g->set(3.5);
    EXPECT_DOUBLE_EQ(g->value(), 3.5);
    g->set(-0.75);
    EXPECT_DOUBLE_EQ(g->value(), -0.75);
}

TEST(ObsRegistry, DisabledWritesAreNoOps)
{
    obs::Registry reg;  // disabled by default
    obs::Counter *c = reg.counter("c", "test");
    obs::Gauge *g = reg.gauge("g", "test");
    obs::Histogram *h = reg.histogram("h", "test", {1.0});
    c->add(5);
    g->set(9.0);
    h->observe(0.5);
    EXPECT_EQ(c->value(), 0);
    EXPECT_DOUBLE_EQ(g->value(), 0.0);
    EXPECT_EQ(reg.snapshot().histograms[0].count, 0u);
}

TEST(ObsRegistry, RegistrationIsIdempotentByName)
{
    obs::Registry reg;
    obs::Counter *a = reg.counter("x", "first help");
    obs::Counter *b = reg.counter("x", "other help");
    EXPECT_EQ(a, b);
    // Cross-type clash throws instead of silently aliasing.
    EXPECT_THROW(reg.gauge("x", "t"), std::invalid_argument);
    EXPECT_THROW(reg.histogram("x", "t", {1.0}),
                 std::invalid_argument);
}

TEST(ObsRegistry, PrometheusExposition)
{
    obs::Registry reg;
    enabledRegistry(reg);
    reg.counter("req_total", "requests")->add(7);
    reg.gauge("depth", "queue depth")->set(2.5);
    obs::Histogram *h = reg.histogram("lat", "latency",
                                      {0.1, 1.0});
    h->observe(0.05);
    h->observe(0.5);
    h->observe(5.0);
    const std::string text = reg.snapshot().prometheusText();
    EXPECT_NE(text.find("# HELP req_total requests\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE req_total counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("req_total 7\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE depth gauge\n"),
              std::string::npos);
    EXPECT_NE(text.find("depth 2.5\n"), std::string::npos);
    // Buckets are cumulative; +Inf equals _count.
    EXPECT_NE(text.find("lat_bucket{le=\"0.1\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("lat_bucket{le=\"1\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("lat_count 3\n"), std::string::npos);
    EXPECT_NE(text.find("lat_sum 5.55\n"), std::string::npos);
}

// ---- Spans -------------------------------------------------------------

/** Enables the global tracer and restores a clean state after. */
class ObsSpanTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        obs::Tracer::global().clear();
        obs::Tracer::global().setEnabled(true);
    }
    void TearDown() override
    {
        obs::Tracer::global().setEnabled(false);
        obs::Tracer::global().clear();
    }
};

TEST_F(ObsSpanTest, NestedSpansParentOnTheStack)
{
    {
        obs::Span outer("outer");
        {
            obs::Span inner("inner");
        }
    }
    const auto events = obs::Tracer::global().collect();
    ASSERT_EQ(events.size(), 2u);
    // collect() sorts by start time: outer opened first.
    EXPECT_EQ(events[0].name, "outer");
    EXPECT_EQ(events[1].name, "inner");
    EXPECT_EQ(events[0].parent, 0u);
    EXPECT_EQ(events[1].parent, events[0].id);
    EXPECT_GE(events[0].durNs, events[1].durNs);
}

TEST_F(ObsSpanTest, CrossThreadParentLink)
{
    obs::Span job("job");
    const obs::SpanContext parent = job.context();
    std::thread worker([parent] {
        obs::Span task("task", parent);
    });
    worker.join();
    job.stop();
    const auto events = obs::Tracer::global().collect();
    ASSERT_EQ(events.size(), 2u);
    const auto &task = events[0].name == "task" ? events[0]
                                                : events[1];
    const auto &jobEv = events[0].name == "job" ? events[0]
                                                : events[1];
    EXPECT_EQ(task.parent, jobEv.id);
    EXPECT_NE(task.tid, jobEv.tid);
}

TEST_F(ObsSpanTest, RecordSpanWithExplicitTimestamps)
{
    const auto start = std::chrono::steady_clock::now();
    const auto end = start + std::chrono::milliseconds(5);
    obs::recordSpan("queued", start, end);
    const auto events = obs::Tracer::global().collect();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].name, "queued");
    EXPECT_NEAR(events[0].durNs, 5e6, 1e3);
}

TEST_F(ObsSpanTest, StopIsIdempotentAndReturnsSeconds)
{
    obs::Span s("s");
    const double first = s.stop();
    EXPECT_GE(first, 0.0);
    EXPECT_DOUBLE_EQ(s.stop(), first);
    EXPECT_EQ(obs::Tracer::global().collect().size(), 1u);
}

TEST_F(ObsSpanTest, AnnotationsSurviveToTheEvent)
{
    {
        obs::Span s("s");
        s.annotate("k", "v");
    }
    const auto events = obs::Tracer::global().collect();
    ASSERT_EQ(events.size(), 1u);
    ASSERT_EQ(events[0].args.size(), 1u);
    EXPECT_EQ(events[0].args[0].first, "k");
    EXPECT_EQ(events[0].args[0].second, "v");
}

TEST_F(ObsSpanTest, ExitedThreadKeepsItsEventsUntilClear)
{
    std::thread([] { obs::Span s("exited"); }).join();
    const auto events = obs::Tracer::global().collect();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].name, "exited");
    obs::Tracer::global().clear();
    EXPECT_TRUE(obs::Tracer::global().collect().empty());
}

TEST(ObsSpan, DisabledTracerStillMeasures)
{
    obs::Tracer::global().setEnabled(false);
    obs::Tracer::global().clear();
    obs::Span s("s");
    EXPECT_EQ(s.context().id, 0u);
    EXPECT_GE(s.stop(), 0.0);
    EXPECT_TRUE(obs::Tracer::global().collect().empty());
    EXPECT_EQ(obs::currentSpan().id, 0u);
}

// ---- Chrome trace JSON -------------------------------------------------

TEST(ObsTraceJson, ShapeAndEscaping)
{
    obs::TraceEvent ev;
    ev.name = "pass:\"quoted\"\n";
    ev.id = 7;
    ev.parent = 3;
    ev.tid = 2;
    ev.startNs = 1500;       // 1.5 us
    ev.durNs = 2250500;      // 2250.5 us
    ev.args = {{"key", "val"}};
    const std::string json = obs::chromeTraceJson({ev});
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"pass:\\\"quoted\\\"\\n\""),
              std::string::npos);
    EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":2250.500"), std::string::npos);
    EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
    EXPECT_NE(json.find("\"id\":7"), std::string::npos);
    EXPECT_NE(json.find("\"parent\":3"), std::string::npos);
    EXPECT_NE(json.find("\"key\":\"val\""), std::string::npos);
}

// ---- The one JSON string escaper ---------------------------------------

/**
 * Reference oracle: the escaping rule dumpJson has always applied,
 * in its original snprintf form. Pinning obs::jsonEscape to it keeps
 * every dumpJson document and trace JSON byte-identical.
 */
std::string referenceJsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

TEST(ObsJsonEscape, MatchesTheReferenceOnEveryByte)
{
    std::string all;
    for (int b = 0; b < 256; ++b) {
        const std::string one(1, static_cast<char>(b));
        EXPECT_EQ(obs::jsonEscape(one), referenceJsonEscape(one))
            << "byte " << b;
        all += one;
    }
    EXPECT_EQ(obs::jsonEscape(all), referenceJsonEscape(all));
    EXPECT_EQ(obs::jsonEscape("\x01\t\"x"), "\\u0001\\t\\\"x");
}

TEST(ObsJsonEscape, WritesEachVerbatimRunInOneSinkCall)
{
    std::vector<std::string> calls;
    obs::writeJsonEscaped(
        "abc\ndef",
        [](void *ctx, const char *data, std::size_t n) {
            static_cast<std::vector<std::string> *>(ctx)->emplace_back(
                data, n);
        },
        &calls);
    EXPECT_EQ(calls, (std::vector<std::string>{"abc", "\\n", "def"}));
}

TEST(ObsJsonEscape, EveryByteRoundTripsThroughEachEmitter)
{
    std::string all;
    for (int b = 1; b < 256; ++b)
        all += static_cast<char>(b);
    const std::string escaped = obs::jsonEscape(all);

    obs::LogRecord rec;
    rec.component = rec.message = rec.job = all;
    rec.fields = {{all, all}};
    const std::string lines = obs::jsonLines({rec});
    EXPECT_NE(lines.find(escaped), std::string::npos);
    const backend::JsonValue log = backend::parseJson(lines, "log");
    EXPECT_EQ(log.find("component")->str, all);
    EXPECT_EQ(log.find("msg")->str, all);
    EXPECT_EQ(log.find("job")->str, all);
    ASSERT_EQ(log.find("fields")->object.size(), 1u);
    EXPECT_EQ(log.find("fields")->object[0].first, all);
    EXPECT_EQ(log.find("fields")->object[0].second.str, all);

    obs::TraceEvent ev;
    ev.name = all;
    ev.args = {{all, all}};
    const std::string trace = obs::chromeTraceJson({ev});
    EXPECT_NE(trace.find(escaped), std::string::npos);
    const backend::JsonValue traceDoc =
        backend::parseJson(trace, "trace");
    const backend::JsonValue &te =
        traceDoc.find("traceEvents")->array.at(0);
    EXPECT_EQ(te.find("name")->str, all);
    EXPECT_EQ(te.find("args")->find(all)->str, all);

    backend::JsonValue doc = backend::JsonValue::makeObject();
    doc.set(all, backend::JsonValue::makeString(all));
    const std::string dumped = backend::dumpJson(doc);
    EXPECT_NE(dumped.find(escaped), std::string::npos);
    const backend::JsonValue back = backend::parseJson(dumped, "dump");
    ASSERT_EQ(back.object.size(), 1u);
    EXPECT_EQ(back.object[0].first, all);
    EXPECT_EQ(back.object[0].second.str, all);
}

// ---- One thread index ---------------------------------------------------

TEST(ObsThreads, OneTidAcrossTraceLogAndFlight)
{
    // A thread known only to the flight recorder registers first, so
    // sinks that numbered threads on their own would now disagree.
    std::thread([] {
        obs::flight::record(obs::flight::Kind::Log, "tid-warmup");
    }).join();

    obs::Tracer &tracer = obs::Tracer::global();
    obs::Logger &logger = obs::Logger::global();
    tracer.clear();
    tracer.setEnabled(true);
    logger.clear();
    logger.setEnabled(true);
    obs::flight::clear();
    obs::Registry reg;
    obs::Counter *counter = reg.counter("tid_probe_total", "t");
    std::uint32_t index = 0;
    std::thread([counter, &index] {
        obs::Span span("tid-span");
        obs::log(obs::LogLevel::Info, "tid-log", "one thread");
        counter->inc();
        index = obs::threadIndex();
    }).join();
    const auto events = tracer.collect();
    const auto records = logger.collect();
    tracer.setEnabled(false);
    tracer.clear();
    logger.setEnabled(false);
    logger.clear();

    ASSERT_EQ(events.size(), 1u);
    ASSERT_EQ(records.size(), 1u);
    const std::uint32_t tid = events[0].tid;
    EXPECT_EQ(tid, index);
    EXPECT_EQ(records[0].tid, tid);
    int flightEvents = 0;
    for (const obs::flight::Event &e : obs::flight::snapshotEvents()) {
        const std::string name = e.name;
        if (name == "tid-span" || name == "tid-log" ||
            name == "tid_probe_total") {
            ++flightEvents;
            EXPECT_EQ(e.tid, tid) << name;
        }
    }
    EXPECT_EQ(flightEvents, 4);  // span begin + end, log, counter
}

// ---- Concurrent mixed traffic (the TSan target) ------------------------

TEST(ObsStress, ConcurrentMixedTraffic)
{
    obs::setEnabled(true);
    obs::Tracer::global().clear();
    auto &reg = obs::Registry::global();
    obs::Counter *c = reg.counter("stress_total", "stress");
    obs::Gauge *g = reg.gauge("stress_gauge", "stress");
    obs::Histogram *h =
        reg.histogram("stress_seconds", "stress", {0.5, 1.5});
    constexpr int kThreads = 8;
    constexpr int kIters = 2000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                obs::Span span("stress:" + std::to_string(t));
                c->add(1);
                g->set(static_cast<double>(t));
                h->observe(i % 2 == 0 ? 0.25 : 1.0);
                if (i % 16 == 0) {
                    obs::Span nested("nested");
                    c->add(1);
                }
            }
        });
    // Concurrent readers while writers run (values are transient;
    // this is a race check, not an assertion).
    for (int r = 0; r < 4; ++r) {
        (void)obs::metricsSnapshot();
        (void)obs::Tracer::global().collect();
    }
    for (auto &t : threads)
        t.join();
    // After joining, the merged totals are exact.
    constexpr std::int64_t kNested = (kIters + 15) / 16;
    EXPECT_EQ(c->value(), kThreads * (kIters + kNested));
    const obs::MetricsSnapshot snap = reg.snapshot();
    for (const auto &hs : snap.histograms) {
        if (hs.name != "stress_seconds")
            continue;
        EXPECT_EQ(hs.count,
                  static_cast<std::uint64_t>(kThreads * kIters));
        EXPECT_EQ(hs.buckets[0],
                  static_cast<std::uint64_t>(kThreads * kIters / 2));
    }
    const auto events = obs::Tracer::global().collect();
    EXPECT_EQ(events.size(),
              static_cast<std::size_t>(
                  kThreads * (kIters + kNested)));
    obs::setEnabled(false);
    obs::Tracer::global().clear();
}

// ---- End-to-end: pass spans agree with PassTrace -----------------------

TEST(ObsEndToEnd, PassSpansMatchPassTraces)
{
    obs::setEnabled(true);
    obs::Tracer::global().clear();
    {
        circuit::Circuit ghz(4);
        ghz.add(circuit::Gate::h(0));
        for (int q = 0; q < 3; ++q)
            ghz.add(circuit::Gate::cx(q, q + 1));
        service::ServiceOptions sopts;
        sopts.threads = 1;
        service::CompileService svc(sopts);
        service::CompileRequest req;
        req.name = "ghz4";
        req.input = ghz;
        svc.submit(req);
        const auto results = svc.waitAll();
        ASSERT_EQ(results.size(), 1u);
        ASSERT_TRUE(results[0].ok) << results[0].errorInfo.message;

        const auto events = obs::Tracer::global().collect();
        // Every PassTrace row has a matching pass:<name> span whose
        // duration is the *same measurement* (shared Span), so they
        // agree to far better than the 1 ms acceptance bound.
        std::vector<obs::TraceEvent> passSpans;
        for (const auto &ev : events)
            if (ev.name.rfind("pass:", 0) == 0)
                passSpans.push_back(ev);
        const auto &traces = results[0].metrics.passes;
        ASSERT_EQ(passSpans.size(), traces.size());
        for (std::size_t i = 0; i < traces.size(); ++i) {
            EXPECT_EQ(passSpans[i].name, "pass:" + traces[i].pass);
            EXPECT_NEAR(passSpans[i].durNs * 1e-9,
                        traces[i].seconds, 1e-6);
        }
        // The wiring also produced the job-level span skeleton.
        bool sawJob = false, sawQueueWait = false;
        for (const auto &ev : events) {
            sawJob |= ev.name == "job:ghz4";
            sawQueueWait |= ev.name == "queue-wait";
        }
        EXPECT_TRUE(sawJob);
        EXPECT_TRUE(sawQueueWait);
    }
    obs::setEnabled(false);
    obs::Tracer::global().clear();
}

} // namespace
