/**
 * @file
 * reqisc-compile — batch compilation front-end for the service.
 *
 * Reads one or more OpenQASM files (and/or generated suite circuits),
 * compiles them through reqiscEff / reqiscFull on a CompileService
 * with `--jobs N` worker threads and shared SU(4) memoization caches,
 * and prints per-circuit metrics (#2Q, 2Q-depth, duration,
 * distinct-SU(4), cache hit rate) as an aligned table or JSON.
 *
 *   reqisc-compile --jobs 4 --stats examples/qasm/ghz8.qasm
 *   reqisc-compile --suite small --repeat 5 --json
 *
 * Exit status: 0 when every job compiled, 1 on any per-job failure
 * (each failure is reported with its captured error), 2 on usage
 * errors.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "backend/backend.hh"
#include "backend/json.hh"
#include "backend/reconfigure.hh"
#include "compiler/pass_manager.hh"
#include "isa/assembly.hh"
#include "isa/schedule.hh"
#include "circuit/qasm.hh"
#include "obs/obs.hh"
#include "obs/trace_json.hh"
#include "service/api.hh"
#include "service/cli.hh"
#include "service/error.hh"
#include "service/service.hh"
#include "suite/suite.hh"

#ifndef REQISC_VERSION
#define REQISC_VERSION "unknown"
#endif

namespace
{

using namespace reqisc;

struct CliOptions
{
    std::vector<std::string> files;
    std::string suite;           //!< "", "small" or "medium"
    service::ServiceFlags service;
    std::string pipelineSpec = "full";
    int repeat = 1;
    unsigned seed = compiler::CompileOptions{}.seed;
    bool variational = false;
    bool calibrate = true;
    bool stats = false;
    bool json = false;
    bool schedule = false;       //!< lower into timed RQISA programs
    isa::Strategy strategy = isa::ScheduleOptions{}.strategy;
    bool emitIsa = false;        //!< dump RQISA assembly (implies schedule)
    bool emitCircuit = false;    //!< dump compiled circuits (QASM)
    std::string traceOut;        //!< Chrome trace JSON; "" = off
    std::string metricsOut;      //!< Prometheus exposition; "" = off
    std::string logOut;          //!< JSON-lines log file; "" = off
    std::string logLevel = "info";  //!< min severity for --log-out
};

void
printUsage(std::ostream &os)
{
    os << "usage: reqisc-compile [options] [file.qasm ...]\n"
          "\n"
          "options:\n"
          "  --pipeline SPEC       pipeline to run: eff, full or an\n"
          "                        explicit pass list\n"
          "                        custom:pass[,pass...] e.g.\n"
          "                        custom:synth,mirror,route,"
          "schedule:asap\n"
          "                        (default: full)\n"
          "  --list-passes         print the registered passes and "
          "the pass\n"
          "                        lists of the named pipelines, "
          "then exit\n"
          "  --repeat K            submit each input K times "
          "(default: 1)\n"
          "  --suite small|medium  also compile the built-in suite\n"
          "  --seed N              instantiation seed (default: "
       << compiler::CompileOptions{}.seed << ")\n"
          "  --variational         variational (fixed-basis) mode\n"
          "  --no-cache            disable the shared SU(4) caches\n"
          "  --no-calibrate        skip the calibrate pass\n"
          "  --schedule STRATEGY   lower into a timed RQISA program "
          "(serial|asap|alap)\n"
          "  --emit-isa            print each program's RQISA "
          "assembly (implies --schedule asap)\n"
          "  --emit-circuit        print each compiled circuit "
          "(OpenQASM; in --json,\n"
          "                        the artifact fields of the v1 "
          "schema)\n"
          "  --trace-out FILE      write a Chrome trace-event JSON "
          "of every\n"
          "                        span (jobs, passes, block tasks, "
          "cache\n"
          "                        persistence); load it in Perfetto "
          "or\n"
          "                        chrome://tracing\n"
          "  --metrics-out FILE    write a Prometheus-exposition "
          "snapshot of\n"
          "                        the service metrics at exit\n"
          "  --log-out FILE        write structured JSON-lines logs "
          "(job\n"
          "                        lifecycle, cache persistence, "
          "errors) at exit\n"
          "  --log-level LVL       minimum severity for --log-out: "
          "debug,\n"
          "                        info (default), warn or error\n"
          "  --stats               print cache statistics\n"
          "  --json                machine-readable output\n"
          "  --version             print the version and exit\n"
          "  --help                this text\n"
          "\n"
          "service options:\n"
       << service::kServiceFlagsUsage;
}

void
printPassList(std::ostream &os)
{
    os << "registered passes (use in --pipeline "
          "custom:pass[,pass...]):\n";
    for (const compiler::PassInfo &info :
         compiler::passRegistry()) {
        std::string token = info.token;
        if (!info.args.empty()) {
            token += "[:";
            for (std::size_t i = 0; i < info.args.size(); ++i)
                token += (i ? "|" : "") + info.args[i];
            token += "]";
        }
        os << "  " << token << "\n      " << info.summary << "\n";
    }
    os << "\nnamed pipelines (compile stage, default options):\n";
    const compiler::CompileOptions defaults;
    for (const auto kind : {compiler::PipelineSpec::Kind::Eff,
                            compiler::PipelineSpec::Kind::Full}) {
        os << (kind == compiler::PipelineSpec::Kind::Eff
                   ? "  eff:  "
                   : "  full: ");
        const auto list = compiler::compilePassList(kind, defaults);
        for (std::size_t i = 0; i < list.size(); ++i)
            os << (i ? "," : "") << list[i];
        os << "\n";
    }
    os << "\nthe service appends route (with --backend), estimate,\n"
          "reconfigure (with --backend), schedule (with --schedule)\n"
          "and calibrate (unless --no-calibrate) to the named "
          "pipelines;\ncustom lists run literally, followed by "
          "whichever of estimate,\nschedule and calibrate is "
          "requested and absent.\n";
}

bool
parseArgs(int argc, char **argv, CliOptions &cli)
{
    auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::cerr << "reqisc-compile: missing value for "
                      << argv[i] << "\n";
            return nullptr;
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const service::FlagParse flag = service::parseServiceFlag(
            "reqisc-compile", argc, argv, i, cli.service);
        if (flag == service::FlagParse::Error)
            return false;
        if (flag == service::FlagParse::Consumed)
            continue;
        if (arg == "--help" || arg == "-h") {
            printUsage(std::cout);
            std::exit(0);
        } else if (arg == "--version") {
            std::cout << "reqisc-compile " << REQISC_VERSION << "\n";
            std::exit(0);
        } else if (arg == "--pipeline") {
            const char *v = value(i);
            if (!v)
                return false;
            compiler::PipelineSpec spec;
            std::string error;
            if (!compiler::parsePipelineSpec(v, spec, error)) {
                std::cerr << "reqisc-compile: ["
                          << service::errc::kBadPipelineSpec << "] "
                          << error << "\n";
                return false;
            }
            cli.pipelineSpec = v;
        } else if (arg == "--list-passes") {
            printPassList(std::cout);
            std::exit(0);
        } else if (arg == "--repeat") {
            const char *v = value(i);
            if (!v || !service::parseNumber("reqisc-compile", arg, v,
                                            cli.repeat))
                return false;
            cli.repeat = std::max(1, cli.repeat);
        } else if (arg == "--suite") {
            const char *v = value(i);
            if (!v)
                return false;
            cli.suite = v;
            if (cli.suite != "small" && cli.suite != "medium") {
                std::cerr << "reqisc-compile: unknown suite '"
                          << cli.suite << "'\n";
                return false;
            }
        } else if (arg == "--seed") {
            const char *v = value(i);
            if (!v || !service::parseNumber("reqisc-compile", arg, v,
                                            cli.seed))
                return false;
        } else if (arg == "--variational") {
            cli.variational = true;
        } else if (arg == "--no-cache") {
            cli.service.options.enableCaches = false;
        } else if (arg == "--no-calibrate") {
            cli.calibrate = false;
        } else if (arg == "--schedule") {
            const char *v = value(i);
            if (!v)
                return false;
            if (!isa::strategyFromName(v, cli.strategy)) {
                std::cerr << "reqisc-compile: unknown schedule "
                             "strategy '" << v << "'\n";
                return false;
            }
            cli.schedule = true;
        } else if (arg == "--emit-isa") {
            cli.emitIsa = true;
            cli.schedule = true;
        } else if (arg == "--emit-circuit") {
            cli.emitCircuit = true;
        } else if (arg == "--trace-out") {
            const char *v = value(i);
            if (!v)
                return false;
            cli.traceOut = v;
        } else if (arg == "--metrics-out") {
            const char *v = value(i);
            if (!v)
                return false;
            cli.metricsOut = v;
        } else if (arg == "--log-out") {
            const char *v = value(i);
            if (!v)
                return false;
            cli.logOut = v;
        } else if (arg == "--log-level") {
            const char *v = value(i);
            if (!v)
                return false;
            obs::LogLevel parsed;
            if (!obs::parseLogLevel(v, parsed)) {
                std::cerr << "reqisc-compile: --log-level: "
                             "expected debug|info|warn|error, got '"
                          << v << "'\n";
                return false;
            }
            cli.logLevel = v;
        } else if (arg == "--stats") {
            cli.stats = true;
        } else if (arg == "--json") {
            cli.json = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "reqisc-compile: unknown option '" << arg
                      << "'\n";
            return false;
        } else {
            cli.files.push_back(arg);
        }
    }
    return true;
}

std::string
fmtDouble(double v, int precision)
{
    std::ostringstream os;
    os.precision(precision);
    os << std::fixed << v;
    return os.str();
}

void
printCacheBlock(const char *label,
                const compiler::CacheCounters &c,
                std::size_t entries,
                const std::vector<service::ClassStats> &per_class,
                bool show_coords)
{
    std::cout << label << ": " << entries << " classes, " << c.hits
              << " hits / " << c.misses << " misses ("
              << fmtDouble(100.0 * c.hitRate(), 1) << "% hit rate), "
              << c.evictions << " evictions, "
              << fmtDouble(c.solveSeconds, 3) << " s solving\n";
    // The heaviest classes first: most-used, then slowest to solve.
    std::vector<service::ClassStats> rows = per_class;
    std::sort(rows.begin(), rows.end(),
              [](const service::ClassStats &a,
                 const service::ClassStats &b) {
                  if (a.uses != b.uses)
                      return a.uses > b.uses;
                  return a.solveSeconds > b.solveSeconds;
              });
    const std::size_t shown = std::min<std::size_t>(rows.size(), 8);
    for (std::size_t i = 0; i < shown; ++i) {
        const auto &r = rows[i];
        std::cout << "    ";
        if (show_coords)
            std::cout << r.coord.toString();
        else
            std::cout << r.blockCount << " SU(4) blocks";
        std::cout << "  uses=" << r.uses << "  solve="
                  << fmtDouble(1e3 * r.solveSeconds, 2) << " ms\n";
    }
    if (rows.size() > shown)
        std::cout << "    ... " << (rows.size() - shown)
                  << " more classes\n";
}

/**
 * --stats: where compile time goes, aggregated over the batch.
 * Passes appear in first-execution order; `share` is each pass's
 * fraction of the total in-pass wall time.
 */
void
printPassStats(const std::vector<service::JobResult> &results)
{
    std::vector<const compiler::Metrics *> jobs;
    for (const service::JobResult &r : results)
        if (r.ok)
            jobs.push_back(&r.metrics);
    const std::vector<compiler::PassAggregate> agg =
        compiler::aggregatePassTraces(jobs);
    if (agg.empty())
        return;
    double total = 0.0;
    for (const compiler::PassAggregate &a : agg)
        total += a.seconds;
    std::printf("\nper-pass timings (batch aggregate):\n");
    std::printf("    %-14s %5s %10s %8s %8s\n", "pass", "runs",
                "total ms", "share", "d#2Q");
    for (const compiler::PassAggregate &a : agg)
        std::printf("    %-14s %5d %10.2f %7.1f%% %+8lld\n",
                    a.pass.c_str(), a.runs, 1e3 * a.seconds,
                    total > 0.0 ? 100.0 * a.seconds / total : 0.0,
                    a.delta2Q);
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli;
    if (!parseArgs(argc, argv, cli)) {
        printUsage(std::cerr);
        return 2;
    }
    if (cli.files.empty() && cli.suite.empty()) {
        printUsage(std::cerr);
        return 2;
    }

    // Assemble the batch: QASM files are parsed inside the workers
    // (so malformed input surfaces as a per-job error, not a crash).
    std::vector<service::CompileRequest> batch;
    for (const std::string &path : cli.files) {
        std::ifstream in(path);
        if (!in) {
            std::cerr << "reqisc-compile: cannot open '" << path
                      << "'\n";
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        service::CompileRequest req;
        req.name = path;
        req.qasm = text.str();
        batch.push_back(std::move(req));
    }
    if (!cli.suite.empty()) {
        const std::vector<suite::Benchmark> bms =
            cli.suite == "small" ? suite::smallSuite()
                                 : suite::mediumSuite();
        for (const suite::Benchmark &bm : bms) {
            service::CompileRequest req;
            req.name = bm.name;
            req.input = bm.circuit;
            batch.push_back(std::move(req));
        }
    }
    for (service::CompileRequest &req : batch) {
        req.pipelineSpec = cli.pipelineSpec;
        req.options.seed = cli.seed;
        req.options.variationalMode = cli.variational;
        req.calibrate = cli.calibrate;
        req.schedule = cli.schedule;
        req.scheduleOptions.strategy = cli.strategy;
    }
    if (cli.repeat > 1) {
        const std::vector<service::CompileRequest> once = batch;
        for (int k = 1; k < cli.repeat; ++k)
            batch.insert(batch.end(), once.begin(), once.end());
    }

    // Observability is opt-in: near-zero-cost no-ops otherwise.
    if (!cli.traceOut.empty() || !cli.metricsOut.empty())
        obs::setEnabled(true);
    if (!cli.logOut.empty()) {
        obs::LogLevel level = obs::LogLevel::Info;
        obs::parseLogLevel(cli.logLevel, level);  // validated above
        obs::Logger::global().setMinLevel(level);
        obs::Logger::global().setEnabled(true);
    }
    if (!service::applyServiceFlags("reqisc-compile", cli.service))
        return 2;

    const auto t0 = std::chrono::steady_clock::now();
    service::CompileService svc(cli.service.options);
    svc.submitBatch(std::move(batch));
    std::vector<service::JobResult> results = svc.waitAll();
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

    int failures = 0;
    for (const service::JobResult &r : results)
        if (!r.ok)
            ++failures;

    const compiler::CacheCounters synth_stats =
        svc.synthCacheStats();
    const compiler::CacheCounters pulse_stats =
        svc.pulseCacheStats();

    if (cli.json) {
        // Every field below goes through the v1 wire schema
        // (service/api.hh) — the same builders the daemon responds
        // with, so the CLI and the network agree by construction.
        using backend::JsonValue;
        JsonValue doc = JsonValue::makeObject();
        doc.set("apiVersion",
                JsonValue::makeNumber(static_cast<double>(
                    service::api::kApiVersion)));
        doc.set("jobs", JsonValue::makeNumber(
                            static_cast<double>(svc.threads())));
        doc.set("wallSeconds", JsonValue::makeNumber(wall));
        service::api::ResultEmitOptions emit;
        emit.artifacts = cli.emitCircuit;
        emit.isaText = cli.emitIsa;
        JsonValue circuits = JsonValue::makeArray();
        for (const service::JobResult &r : results)
            circuits.push(service::api::jobResultToJson(r, emit));
        doc.set("circuits", std::move(circuits));
        if (svc.backend()) {
            const backend::Backend &chip = *svc.backend();
            const backend::ReconfigureResult &rc =
                *svc.reconfiguration();
            JsonValue b = JsonValue::makeObject();
            b.set("name", JsonValue::makeString(chip.name()));
            b.set("qubits",
                  JsonValue::makeNumber(
                      static_cast<double>(chip.numQubits())));
            b.set("uniformGate",
                  JsonValue::makeString(rc.uniformName));
            JsonValue edges = JsonValue::makeArray();
            for (const backend::EdgeInstruction &e : rc.table) {
                JsonValue edge = JsonValue::makeObject();
                edge.set("a", JsonValue::makeNumber(
                                  static_cast<double>(e.a)));
                edge.set("b", JsonValue::makeNumber(
                                  static_cast<double>(e.b)));
                edge.set("gate", JsonValue::makeString(e.name));
                edge.set("duration",
                         JsonValue::makeNumber(e.duration));
                edge.set("score", JsonValue::makeNumber(e.score));
                edges.push(std::move(edge));
            }
            b.set("edges", std::move(edges));
            doc.set("backend", std::move(b));
        }
        auto cacheBlock = [](const compiler::CacheCounters &c,
                             std::size_t entries, bool warm) {
            JsonValue o = service::api::cacheCountersToJson(c);
            o.set("entries", JsonValue::makeNumber(
                                 static_cast<double>(entries)));
            o.set("warmStart", JsonValue::makeBool(warm));
            return o;
        };
        doc.set("synthCache",
                cacheBlock(synth_stats, svc.synthCacheSize(),
                           svc.synthCacheWarmStarted()));
        doc.set("pulseCache",
                cacheBlock(pulse_stats, svc.pulseCacheSize(),
                           svc.pulseCacheWarmStarted()));
        doc.set("blockWorkers",
                JsonValue::makeNumber(
                    static_cast<double>(svc.blockWorkers())));
        std::cout << backend::dumpJson(doc, true);
    } else {
        if (svc.backend()) {
            const backend::Backend &chip = *svc.backend();
            const backend::ReconfigureResult &rc =
                *svc.reconfiguration();
            std::printf("backend %s: %d qubits, %zu edges, uniform "
                        "baseline '%s'\n",
                        chip.name().c_str(), chip.numQubits(),
                        chip.edges().size(),
                        rc.uniformName.c_str());
            for (const backend::EdgeInstruction &e : rc.table)
                std::printf("  (q%d,q%d) -> %-5s tau=%.3f "
                            "score=%.6f\n",
                            e.a, e.b, e.name.c_str(), e.duration,
                            e.score);
            std::printf("\n");
        }
        // Purely result-driven (not cli.schedule) so header and
        // rows always agree, whatever the pipeline ran.
        bool any_scheduled = false;
        for (const service::JobResult &r : results)
            any_scheduled |= r.ok && r.metrics.schedule.scheduled;
        std::printf("%-28s %6s %7s %9s %8s %7s %7s %8s", "circuit",
                    "#2Q", "2Q-dep", "duration", "distSU4", "synth%",
                    "pulse%", "ms");
        if (any_scheduled)
            std::printf(" %9s %5s %8s", "makespan", "par", "idle");
        if (svc.backend())
            std::printf(" %5s %9s %9s", "swaps", "F reconf",
                        "F unifrm");
        std::printf("\n");
        for (const service::JobResult &r : results) {
            if (!r.ok) {
                std::printf("%-28s ERROR: %s\n", r.name.c_str(),
                            r.errorInfo.message.c_str());
                continue;
            }
            std::printf(
                "%-28s %6d %7d %9.3f %8d %6.1f%% %6.1f%% %8.1f",
                r.name.c_str(), r.metrics.count2Q,
                r.metrics.depth2Q, r.metrics.duration,
                r.metrics.distinctSU4,
                100.0 * r.metrics.synthCache.hitRate(),
                100.0 * r.metrics.pulseCache.hitRate(),
                1e3 * r.seconds);
            if (r.metrics.schedule.scheduled)
                std::printf(" %9.3f %5.2f %8.3f",
                            r.metrics.schedule.makespan,
                            r.metrics.schedule.parallelism,
                            r.metrics.schedule.idleTime);
            // Same gate as the header above, so rows stay aligned
            // even for custom pipelines that skip route/reconfigure
            // (missing stages show as zeros).
            if (svc.backend())
                std::printf(" %5d %9.6f %9.6f",
                            r.metrics.backend.routedSwaps,
                            r.metrics.backend.fidelityReconfigured,
                            r.metrics.backend.fidelityUniform);
            std::printf("\n");
        }
        if (cli.emitIsa) {
            for (const service::JobResult &r : results) {
                if (!r.ok)
                    continue;
                std::printf("\n# --- %s (%s) ---\n", r.name.c_str(),
                            isa::strategyName(cli.strategy));
                try {
                    std::fputs(isa::toAssembly(r.program).c_str(),
                               stdout);
                } catch (const std::exception &e) {
                    std::printf("# cannot emit: %s\n", e.what());
                }
            }
        }
        if (cli.emitCircuit) {
            for (const service::JobResult &r : results) {
                if (!r.ok)
                    continue;
                std::printf("\n// --- %s ---\n", r.name.c_str());
                std::fputs(
                    circuit::toQasm(r.compiled.circuit).c_str(),
                    stdout);
            }
        }
        std::printf("\n%zu circuits, %d failed, %d jobs, %.3f s "
                    "(%.2f circuits/s)\n",
                    results.size(), failures, svc.threads(), wall,
                    results.empty() ? 0.0 : results.size() / wall);
        if (cli.stats) {
            std::cout << "\n";
            printCacheBlock("synth cache", synth_stats,
                            svc.synthCacheSize(),
                            svc.synthCachePerClass(), false);
            printCacheBlock("pulse cache", pulse_stats,
                            svc.pulseCacheSize(),
                            svc.pulseCachePerClass(), true);
            printPassStats(results);
        }
    }

    if (!cli.traceOut.empty()) {
        std::string error;
        if (!obs::writeTextFile(
                cli.traceOut,
                obs::chromeTraceJson(
                    obs::Tracer::global().collect()),
                error)) {
            std::cerr << "reqisc-compile: --trace-out: " << error
                      << "\n";
            return 1;
        }
    }
    if (!cli.metricsOut.empty()) {
        std::string error;
        if (!obs::writeTextFile(cli.metricsOut,
                                obs::metricsSnapshot(), error)) {
            std::cerr << "reqisc-compile: --metrics-out: " << error
                      << "\n";
            return 1;
        }
    }
    if (!cli.logOut.empty()) {
        std::string error;
        if (!obs::writeTextFile(
                cli.logOut,
                obs::jsonLines(obs::Logger::global().collect()),
                error)) {
            std::cerr << "reqisc-compile: --log-out: " << error
                      << "\n";
            return 1;
        }
    }
    // Written last so a failed run leaves the job-failure dump's
    // context in place alongside the exit snapshot (same rings; the
    // exit dump still contains the failure's final events).
    if (!cli.service.flightDump.empty() &&
        !obs::flight::dumpNow(failures ? "exit-after-failure"
                                       : "exit")) {
        std::cerr << "reqisc-compile: --flight-dump: cannot write "
                  << cli.service.flightDump << "\n";
        return 1;
    }

    return failures ? 1 : 0;
}
