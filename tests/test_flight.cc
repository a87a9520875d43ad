/**
 * @file
 * Tests for the structured logger and the always-on flight recorder:
 * severity filtering, every record of a repeated message kept, the
 * JSON-lines format and the records of exited threads; control bytes
 * in a flight dump; cuts of long UTF-8 names at a character boundary;
 * job propagation into log records, spans and flight events (including
 * across BlockPool helper threads); counters kept out of the rings
 * (the KAK count); ring wraparound eviction order;
 * multi-thread snapshot consistency (no torn events); the
 * job-failure dump of CompileService; and the fatal-signal dump
 * path, exercised in a death test.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "backend/json.hh"
#include "obs/obs.hh"
#include "service/service.hh"
#include "synth/instantiate.hh"
#include "synth/pool.hh"
#include "weyl/weyl.hh"
#include "test_util.hh"

using namespace reqisc;

// Sanitizers install their own fatal-signal machinery; the SIGSEGV
// death test would race it, so it only runs in plain builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define REQISC_UNDER_SANITIZER 1
#endif
#if !defined(REQISC_UNDER_SANITIZER) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define REQISC_UNDER_SANITIZER 1
#endif
#endif

namespace
{

/** Reset the (global) logger to its defaults around a test. */
struct LoggerGuard
{
    LoggerGuard()
    {
        obs::Logger::global().clear();
        obs::Logger::global().setEnabled(true);
        obs::Logger::global().setMinLevel(obs::LogLevel::Debug);
    }
    ~LoggerGuard()
    {
        obs::Logger::global().setEnabled(false);
        obs::Logger::global().setMinLevel(obs::LogLevel::Info);
        obs::Logger::global().clear();
    }
};

std::string tempPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

/** Parse a flight dump and return the events array. */
const backend::JsonValue *flightEvents(const backend::JsonValue &doc)
{
    const backend::JsonValue *fr = doc.find("flightRecorder");
    if (!fr)
        return nullptr;
    return fr->find("events");
}

/** n copies of the two-byte character U+03B1 (alpha). */
std::string alphas(int n)
{
    std::string s;
    for (int i = 0; i < n; ++i)
        s += "\xce\xb1";
    return s;
}

/** The first event named `name` in a parsed flight snapshot. */
const backend::JsonValue *flightEvent(const backend::JsonValue &doc,
                                      const std::string &name)
{
    for (const backend::JsonValue &e : flightEvents(doc)->array)
        if (e.find("name")->str == name)
            return &e;
    return nullptr;
}

} // namespace

// ---- Logger ------------------------------------------------------------

TEST(Log, DisabledByDefaultAndFiltersBySeverity)
{
    obs::Logger::global().clear();
    ASSERT_FALSE(obs::Logger::global().enabled());
    obs::log(obs::LogLevel::Error, "test", "dropped while off");
    EXPECT_TRUE(obs::Logger::global().collect().empty());

    LoggerGuard guard;
    obs::Logger::global().setMinLevel(obs::LogLevel::Warn);
    obs::log(obs::LogLevel::Info, "test", "below the floor");
    obs::log(obs::LogLevel::Warn, "test", "kept",
             {{"k", "v"}, {"n", "7"}});
    const auto records = obs::Logger::global().collect();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].level, obs::LogLevel::Warn);
    EXPECT_EQ(records[0].component, "test");
    EXPECT_EQ(records[0].message, "kept");
    ASSERT_EQ(records[0].fields.size(), 2u);
    EXPECT_EQ(records[0].fields[0].first, "k");
    EXPECT_EQ(records[0].fields[0].second, "v");
    EXPECT_GE(records[0].tsNs, 0);
}

TEST(Log, KeepsEveryRecordOfARepeatedMessage)
{
    // Only the switch changes: at its other defaults an enabled
    // logger keeps every record, however often one message repeats.
    obs::Logger &logger = obs::Logger::global();
    logger.clear();
    logger.setEnabled(true);
    for (int i = 0; i < 1000; ++i)
        obs::log(obs::LogLevel::Info, "hot", "same message");
    const size_t kept = logger.collect().size();
    logger.setEnabled(false);
    logger.clear();
    EXPECT_EQ(kept, 1000u);
}

TEST(Log, JsonLinesRoundTripsThroughTheParser)
{
    LoggerGuard guard;
    {
        obs::JobScope job("job-42");
        obs::log(obs::LogLevel::Error, "compiler",
                 "pass \"x\" failed", {{"pass", "synth"}});
    }
    obs::log(obs::LogLevel::Debug, "cache", "no job here");
    const std::string lines =
        obs::jsonLines(obs::Logger::global().collect());
    std::istringstream ss(lines);
    std::string line;
    std::vector<backend::JsonValue> docs;
    while (std::getline(ss, line))
        if (!line.empty())
            docs.push_back(backend::parseJson(line, "log-line"));
    ASSERT_EQ(docs.size(), 2u);
    EXPECT_EQ(docs[0].find("level")->str, "error");
    EXPECT_EQ(docs[0].find("component")->str, "compiler");
    EXPECT_EQ(docs[0].find("msg")->str, "pass \"x\" failed");
    ASSERT_NE(docs[0].find("job"), nullptr);
    EXPECT_EQ(docs[0].find("job")->str, "job-42");
    EXPECT_EQ(docs[0].find("fields")->find("pass")->str, "synth");
    // No JobScope active -> no job key at all (absence, not "").
    EXPECT_EQ(docs[1].find("job"), nullptr);
    EXPECT_EQ(docs[1].find("level")->str, "debug");
}

TEST(Log, ExitedThreadKeepsItsRecordsUntilClear)
{
    LoggerGuard guard;
    std::thread([] {
        obs::log(obs::LogLevel::Info, "exit", "from a finished thread");
    }).join();
    const auto records = obs::Logger::global().collect();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].message, "from a finished thread");
    obs::Logger::global().clear();
    EXPECT_TRUE(obs::Logger::global().collect().empty());
}

TEST(Log, LevelNamesParseAndPrint)
{
    obs::LogLevel lvl = obs::LogLevel::Info;
    EXPECT_TRUE(obs::parseLogLevel("warn", lvl));
    EXPECT_EQ(lvl, obs::LogLevel::Warn);
    EXPECT_FALSE(obs::parseLogLevel("loud", lvl));
    EXPECT_STREQ(obs::logLevelName(obs::LogLevel::Debug), "debug");
    EXPECT_STREQ(obs::logLevelName(obs::LogLevel::Error), "error");
}

// ---- JobScope ----------------------------------------------------------

TEST(JobScope, NestsAndRestores)
{
    EXPECT_STREQ(obs::currentJobName(), "");
    {
        obs::JobScope outer("outer");
        EXPECT_STREQ(obs::currentJobName(), "outer");
        {
            obs::JobScope inner("inner");
            EXPECT_STREQ(obs::currentJobName(), "inner");
        }
        EXPECT_STREQ(obs::currentJobName(), "outer");
    }
    EXPECT_STREQ(obs::currentJobName(), "");
}

TEST(JobScope, LongUtf8NameIsCutAtACharacterBoundary)
{
    // 16 two-byte characters are 32 bytes; the job field holds 31,
    // so the cut keeps 15 whole characters, not a lone lead byte.
    LoggerGuard guard;
    obs::flight::clear();
    {
        obs::JobScope job(alphas(16));
        obs::log(obs::LogLevel::Info, "utf8-job", "cut");
    }
    const std::string lines =
        obs::jsonLines(obs::Logger::global().collect());
    const backend::JsonValue line = backend::parseJson(
        lines.substr(0, lines.find('\n')), "log-line");
    ASSERT_NE(line.find("job"), nullptr);
    EXPECT_EQ(line.find("job")->str, alphas(15));

    const backend::JsonValue doc = backend::parseJson(
        obs::flight::snapshotJson("unit-test"), "flight");
    const backend::JsonValue *e = flightEvent(doc, "utf8-job");
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->find("job")->str, alphas(15));
}

TEST(JobScope, PropagatesAcrossBlockPoolThreads)
{
    synth::BlockPool pool(2);
    std::vector<std::string> seen(8);
    {
        obs::JobScope job("pool-job");
        std::vector<std::function<void()>> tasks;
        for (std::size_t i = 0; i < seen.size(); ++i)
            tasks.push_back(
                [&seen, i] { seen[i] = obs::currentJobName(); });
        pool.run(std::move(tasks));
    }
    for (const std::string &s : seen)
        EXPECT_EQ(s, "pool-job");
}

// ---- Flight recorder ---------------------------------------------------

TEST(Flight, CapturesSpansLogsAndMetricDeltasWithJob)
{
    namespace flight = obs::flight;
    flight::clear();
    obs::Registry reg;  // local and disabled: deltas still recorded
    obs::Counter *c = reg.counter("flight_test_total", "t");
    obs::Counter *quiet = reg.counter("flight_quiet_total", "t",
                                      obs::FlightEvents::Skip);
    {
        obs::JobScope job("flight-job");
        obs::Span span("flight-span");
        obs::log(obs::LogLevel::Warn, "flightc", "hello flight");
        c->add(3);
        quiet->add(5);
    }
    const auto evs = flight::snapshotEvents();
    bool sawBegin = false, sawEnd = false, sawLog = false,
         sawCounter = false;
    std::uint64_t lastSeq = 0;
    for (const flight::Event &e : evs)
    {
        EXPECT_GT(e.seq, lastSeq);  // merged snapshot is seq-sorted
        lastSeq = e.seq;
        const std::string name = e.name;
        EXPECT_NE(name, "flight_quiet_total");
        if (name == "flight-span" &&
            e.kind == std::uint8_t(flight::Kind::SpanBegin))
        {
            sawBegin = true;
            EXPECT_STREQ(e.job, "flight-job");
        }
        if (name == "flight-span" &&
            e.kind == std::uint8_t(flight::Kind::SpanEnd))
        {
            sawEnd = true;
            EXPECT_GE(e.value, 0.0);  // duration ns
        }
        if (name == "flightc" &&
            e.kind == std::uint8_t(flight::Kind::Log))
        {
            sawLog = true;
            EXPECT_STREQ(e.detail, "hello flight");
            EXPECT_EQ(e.level,
                      std::uint8_t(obs::LogLevel::Warn));
            EXPECT_STREQ(e.job, "flight-job");
        }
        if (name == "flight_test_total" &&
            e.kind == std::uint8_t(flight::Kind::Counter))
        {
            sawCounter = true;
            EXPECT_DOUBLE_EQ(e.value, 3.0);
        }
    }
    EXPECT_TRUE(sawBegin);
    EXPECT_TRUE(sawEnd);
    EXPECT_TRUE(sawLog);
    EXPECT_TRUE(sawCounter);
}

TEST(Flight, KakDecompositionsLeaveTheJobSpanInTheRing)
{
    // More decompositions and instantiations than a ring holds, as a
    // synthesis or calibration objective makes, must not evict the
    // job's span.
    namespace flight = obs::flight;
    flight::clear();
    const qmath::Matrix cx =
        weyl::canonicalGate(weyl::WeylCoord::cnot());
    // A product structure cannot fit an entangler: the light-cone
    // certificate answers every call, so each bumps both counts.
    const std::vector<synth::Slot> product = {synth::Slot::free1Q(0),
                                              synth::Slot::free1Q(1)};
    {
        obs::Span span("job:kak-heavy");
        for (std::size_t i = 0; i < 2 * flight::kRingCapacity; ++i)
            (void)weyl::kakDecompose(cx);
        for (std::size_t i = 0; i < 2 * flight::kRingCapacity; ++i) {
            const synth::InstantiateResult r =
                synth::instantiate(cx, 2, product);
            ASSERT_EQ(r.sweeps, 0);
        }
    }
    bool sawBegin = false;
    for (const flight::Event &e : flight::snapshotEvents())
    {
        EXPECT_STRNE(e.name, "reqisc_kak_decompositions_total");
        EXPECT_STRNE(e.name, "reqisc_instantiate_calls_total");
        EXPECT_STRNE(e.name, "reqisc_instantiate_ruled_out_total");
        sawBegin |= e.kind == std::uint8_t(flight::Kind::SpanBegin) &&
                    std::string(e.name) == "job:kak-heavy";
    }
    EXPECT_TRUE(sawBegin);
}

TEST(Flight, WraparoundKeepsExactlyTheNewestEvents)
{
    namespace flight = obs::flight;
    flight::clear();
    const int extra = 100;
    const int total = int(flight::kRingCapacity) + extra;
    for (int i = 0; i < total; ++i)
        flight::record(flight::Kind::Log, "wrap", "", double(i));
    std::vector<double> values;
    for (const flight::Event &e : flight::snapshotEvents())
        if (std::string(e.name) == "wrap")
            values.push_back(e.value);
    // Oldest events were evicted; the newest suffix remains in
    // recording order. The slot the writer may be about to reuse is
    // unreadable by design, hence capacity - 1 (see snapshotEvents).
    ASSERT_EQ(values.size(), flight::kRingCapacity - 1);
    for (std::size_t i = 0; i < values.size(); ++i)
        EXPECT_DOUBLE_EQ(values[i], double(extra + 1 + int(i)));
}

TEST(Flight, MultiThreadSnapshotHasNoTornEvents)
{
    namespace flight = obs::flight;
    flight::clear();
    constexpr int kThreads = 4;
    constexpr int kPerThread = 500;  // each ring wraps
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([t] {
            const std::string name = "mt" + std::to_string(t);
            for (int i = 0; i < kPerThread; ++i)
            {
                // name, detail and value must stay consistent in
                // every snapshotted event or a torn slot escaped
                // the seqlock check.
                const std::string detail =
                    name + ":" + std::to_string(i);
                flight::record(flight::Kind::Gauge, name.c_str(),
                               detail.c_str(),
                               double(t * 1000000 + i));
            }
        });
    for (auto &th : threads)
        th.join();

    std::vector<std::vector<double>> perThread(kThreads);
    for (const flight::Event &e : flight::snapshotEvents())
    {
        const std::string name = e.name;
        if (name.rfind("mt", 0) != 0)
            continue;
        const int t = std::stoi(name.substr(2));
        ASSERT_GE(t, 0);
        ASSERT_LT(t, kThreads);
        const int i = int(e.value) - t * 1000000;
        EXPECT_EQ(std::string(e.detail),
                  name + ":" + std::to_string(i));
        perThread[std::size_t(t)].push_back(e.value);
    }
    for (int t = 0; t < kThreads; ++t)
    {
        const auto &vals = perThread[std::size_t(t)];
        ASSERT_EQ(vals.size(), flight::kRingCapacity - 1);
        for (std::size_t i = 1; i < vals.size(); ++i)
            EXPECT_EQ(vals[i], vals[i - 1] + 1.0);
    }
}

TEST(Flight, SnapshotJsonIsSelfContainedAndParses)
{
    namespace flight = obs::flight;
    flight::clear();
    flight::record(flight::Kind::Log, "esc",
                   "quote \" backslash \\ done", 0.0,
                   int(obs::LogLevel::Error));
    const std::string json = flight::snapshotJson("unit-test");
    const backend::JsonValue doc =
        backend::parseJson(json, "flight");
    const backend::JsonValue *fr = doc.find("flightRecorder");
    ASSERT_NE(fr, nullptr);
    EXPECT_EQ(fr->find("version")->number, 1.0);
    EXPECT_EQ(fr->find("trigger")->str, "unit-test");
    EXPECT_EQ(fr->find("capacityPerThread")->number,
              double(flight::kRingCapacity));
    const backend::JsonValue *events = fr->find("events");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    bool found = false;
    for (const backend::JsonValue &e : events->array)
        if (e.find("name")->str == "esc")
        {
            found = true;
            EXPECT_EQ(e.find("kind")->str, "log");
            EXPECT_EQ(e.find("level")->str, "error");
            EXPECT_EQ(e.find("detail")->str,
                      "quote \" backslash \\ done");
        }
    EXPECT_TRUE(found);
}

TEST(Flight, LongUtf8FieldsAreCutAtACharacterBoundary)
{
    // A 60-byte name and a 70-byte detail of two-byte characters
    // keep the whole characters that fit in 55 and 63 bytes.
    namespace flight = obs::flight;
    flight::clear();
    flight::record(flight::Kind::SpanBegin, alphas(30).c_str(),
                   alphas(35).c_str());
    const backend::JsonValue doc = backend::parseJson(
        flight::snapshotJson("unit-test"), "flight");
    const backend::JsonValue *e = flightEvent(doc, alphas(27));
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->find("detail")->str, alphas(31));
}

TEST(Flight, DumpFileEscapesControlBytesAndParsesBack)
{
    namespace flight = obs::flight;
    flight::clear();
    flight::record(flight::Kind::Log, "ctl", "\"\t\n\x01");
    const std::string path = tempPath("reqisc_flight_escape.json");
    ASSERT_TRUE(flight::dumpToFile(path, "unit-test"));
    const std::string text = test::readFile(path);
    std::filesystem::remove(path);
    EXPECT_NE(text.find("\"detail\":\"\\\"\\t\\n\\u0001\""),
              std::string::npos);
    const backend::JsonValue doc = backend::parseJson(text, "dump");
    bool found = false;
    for (const backend::JsonValue &e : flightEvents(doc)->array)
        if (e.find("name")->str == "ctl")
        {
            found = true;
            EXPECT_EQ(e.find("detail")->str, "\"\t\n\x01");
        }
    EXPECT_TRUE(found);
}

TEST(Flight, JobFailureWritesADumpWithTheFailingJobsContext)
{
    namespace flight = obs::flight;
    const std::string path = tempPath("reqisc_flight_jobfail.json");
    std::filesystem::remove(path);
    flight::setDumpPath(path);
    flight::clear();
    {
        service::ServiceOptions sopts;
        sopts.threads = 1;
        service::CompileService svc(sopts);
        service::CompileRequest bad;
        bad.name = "broken-job";
        bad.qasm = "qreg q[2];\nfrobnicate q[0];\n";
        const service::JobResult res =
            svc.wait(svc.submit(std::move(bad)));
        ASSERT_FALSE(res.ok);
    }
    flight::setDumpPath("");

    const std::string text = test::readFile(path);
    ASSERT_FALSE(text.empty()) << "no dump written to " << path;
    const backend::JsonValue doc =
        backend::parseJson(text, "jobfail-dump");
    EXPECT_EQ(doc.find("flightRecorder")->find("trigger")->str,
              "job-failure");
    const backend::JsonValue *events = flightEvents(doc);
    ASSERT_NE(events, nullptr);
    bool sawErrorLog = false, sawJobSpan = false;
    for (const backend::JsonValue &e : events->array)
    {
        const std::string name = e.find("name")->str;
        const std::string kind = e.find("kind")->str;
        if (kind == "log" && name == "service" &&
            e.find("level")->str == "error" &&
            e.find("detail")->str == "job failed")
        {
            sawErrorLog = true;
            EXPECT_EQ(e.find("job")->str, "broken-job");
        }
        if (name.rfind("job:", 0) == 0 &&
            e.find("job")->str == "broken-job")
            sawJobSpan = true;
    }
    EXPECT_TRUE(sawErrorLog);
    EXPECT_TRUE(sawJobSpan);
    std::filesystem::remove(path);
}

#ifndef REQISC_UNDER_SANITIZER
TEST(FlightDeathTest, FatalSignalWritesAParseableDump)
{
    namespace flight = obs::flight;
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string path = tempPath("reqisc_flight_sigsegv.json");
    std::filesystem::remove(path);
    // The child arms the handlers, records a marker, then dies on
    // SIGSEGV; SA_RESETHAND + re-raise keeps the kill signal.
    EXPECT_EXIT(
        {
            flight::setDumpPath(path);
            flight::installSignalHandlers();
            flight::record(flight::Kind::Log, "crash-marker",
                           "about to fault");
            std::raise(SIGSEGV);
        },
        ::testing::KilledBySignal(SIGSEGV), "");

    const std::string text = test::readFile(path);
    ASSERT_FALSE(text.empty()) << "no dump written to " << path;
    const backend::JsonValue doc =
        backend::parseJson(text, "signal-dump");
    const backend::JsonValue *fr = doc.find("flightRecorder");
    ASSERT_NE(fr, nullptr);
    EXPECT_EQ(fr->find("trigger")->str, "signal");
    EXPECT_EQ(fr->find("signal")->number, double(SIGSEGV));
    const backend::JsonValue *events = fr->find("events");
    ASSERT_NE(events, nullptr);
    bool found = false;
    for (const backend::JsonValue &e : events->array)
        if (e.find("name")->str == "crash-marker")
            found = true;
    EXPECT_TRUE(found);
    std::filesystem::remove(path);
}
#endif // !REQISC_UNDER_SANITIZER
