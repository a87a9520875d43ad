/**
 * @file
 * reqisc-compiled — the compile service as a long-running network
 * daemon (see daemon/daemon.hh for the route table).
 *
 *   reqisc-compiled --port 8080 --jobs 4 --cache-dir /var/cache/reqisc
 *   reqisc-compiled --port 0 --port-file /tmp/port   # ephemeral
 *
 * Shutdown: SIGTERM (or SIGINT) starts a graceful drain — the
 * listener keeps answering but every new submission gets 503
 * `shutting-down`, queued and running jobs finish, per-client
 * results stay fetchable until the last in-flight job completes —
 * then the persistent caches and the flight recorder are flushed
 * and the process exits 0. An accepted job is never lost to a
 * shutdown.
 *
 * Exit status: 0 clean shutdown, 1 runtime failure (bind error),
 * 2 usage errors (bad flag, malformed chip file).
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "daemon/daemon.hh"
#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "service/cli.hh"

#ifndef REQISC_VERSION
#define REQISC_VERSION "unknown"
#endif

namespace
{

using namespace reqisc;

std::atomic<int> g_signal{0};

void
onSignal(int sig)
{
    g_signal.store(sig);
}

void
printUsage(std::ostream &os)
{
    os << "usage: reqisc-compiled [options]\n"
          "\n"
          "options:\n"
          "  --host ADDR           listen address (default: "
          "127.0.0.1)\n"
          "  --port N              TCP port; 0 = ephemeral "
          "(default: 8788)\n"
          "  --port-file FILE      write the bound port to FILE "
          "once listening\n"
          "  --max-queue N         admission bound: reject "
          "submissions with 429\n"
          "                        once N jobs are queued or "
          "running; 0 = unbounded\n"
          "                        (default: 64)\n"
          "  --quota-rate R        per-client token bucket: R "
          "submissions/second\n"
          "                        (default: 0 = quotas off)\n"
          "  --quota-burst B       bucket capacity (default: 8)\n"
          "  --max-finished N      retain at most N finished job "
          "records, evicting\n"
          "                        the oldest (status/result then "
          "404); 0 = keep all\n"
          "                        (default: 1024)\n"
          "  --max-body BYTES      reject larger request bodies "
          "with 413\n"
          "                        (default: 4194304)\n"
          "  --http-threads N      HTTP handler threads (default: "
          "2)\n"
          "  --version             print the version and exit\n"
          "  --help                this text\n"
          "\n"
          "service options:\n"
       << service::kServiceFlagsUsage;
}

struct DaemonCli
{
    daemon::DaemonOptions opts;
    service::ServiceFlags service;
    std::string portFile;
};

bool
parseArgs(int argc, char **argv, DaemonCli &cli)
{
    auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::cerr << "reqisc-compiled: missing value for "
                      << argv[i] << "\n";
            return nullptr;
        }
        return argv[++i];
    };
    // The value of numeric flag `flag`; false when missing or bad.
    auto number = [&](int &i, const std::string &flag, auto &out) {
        const char *v = value(i);
        return v && service::parseNumber("reqisc-compiled", flag, v, out);
    };
    cli.opts.http.port = 8788;
    // The service flags start from the daemon's service defaults
    // (maxFinished 1024); --max-finished sets the same field.
    cli.service.options = cli.opts.service;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const service::FlagParse flag = service::parseServiceFlag(
            "reqisc-compiled", argc, argv, i, cli.service);
        if (flag == service::FlagParse::Error)
            return false;
        if (flag == service::FlagParse::Consumed)
            continue;
        if (arg == "--help" || arg == "-h") {
            printUsage(std::cout);
            std::exit(0);
        } else if (arg == "--version") {
            std::cout << "reqisc-compiled " << REQISC_VERSION
                      << "\n";
            std::exit(0);
        } else if (arg == "--host") {
            const char *v = value(i);
            if (!v)
                return false;
            cli.opts.http.host = v;
        } else if (arg == "--port") {
            std::uint16_t port = 0;
            if (!number(i, arg, port))
                return false;
            cli.opts.http.port = port;
        } else if (arg == "--port-file") {
            const char *v = value(i);
            if (!v)
                return false;
            cli.portFile = v;
        } else if (arg == "--max-queue") {
            if (!number(i, arg, cli.opts.maxQueue))
                return false;
        } else if (arg == "--quota-rate") {
            if (!number(i, arg, cli.opts.quotaRate))
                return false;
        } else if (arg == "--quota-burst") {
            if (!number(i, arg, cli.opts.quotaBurst))
                return false;
        } else if (arg == "--max-finished") {
            if (!number(i, arg, cli.service.options.maxFinished))
                return false;
        } else if (arg == "--max-body") {
            if (!number(i, arg, cli.opts.http.maxBodyBytes))
                return false;
        } else if (arg == "--http-threads") {
            if (!number(i, arg, cli.opts.http.handlerThreads))
                return false;
        } else {
            std::cerr << "reqisc-compiled: unknown option '" << arg
                      << "'\n";
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    DaemonCli cli;
    if (!parseArgs(argc, argv, cli)) {
        printUsage(std::cerr);
        return 2;
    }

    // /metrics must always have numbers: enable the metrics
    // registry (but not the tracer — span collection grows without
    // bound and a daemon runs indefinitely).
    obs::Registry::global().setEnabled(true);
    if (!service::applyServiceFlags("reqisc-compiled", cli.service))
        return 2;
    cli.opts.service = cli.service.options;

    daemon::CompileDaemon d(cli.opts);
    std::string error;
    if (!d.start(error)) {
        std::cerr << "reqisc-compiled: " << error << "\n";
        return 1;
    }
    if (!cli.portFile.empty()) {
        std::ofstream out(cli.portFile, std::ios::trunc);
        out << d.port() << "\n";
        if (!out) {
            std::cerr << "reqisc-compiled: cannot write --port-file "
                      << cli.portFile << "\n";
            return 1;
        }
    }
    std::fprintf(stderr, "reqisc-compiled %s listening on %s:%d\n",
                 REQISC_VERSION, cli.opts.http.host.c_str(),
                 d.port());

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    while (g_signal.load() == 0)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(100));

    // Graceful drain: refuse new work, let accepted work finish,
    // keep serving status/result polls the whole time.
    std::fprintf(stderr,
                 "reqisc-compiled: signal %d, draining...\n",
                 g_signal.load());
    d.beginDrain();
    d.waitDrained();
    d.stop();
    d.service().saveCaches();
    if (!cli.service.flightDump.empty())
        obs::flight::dumpNow("shutdown");
    std::fprintf(stderr, "reqisc-compiled: drained, bye\n");
    return 0;
}
