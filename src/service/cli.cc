#include "service/cli.hh"

#include <iostream>
#include <memory>

#include "backend/backend.hh"
#include "backend/json.hh"
#include "obs/flight.hh"
#include "service/error.hh"

namespace reqisc::service
{

const char *const kServiceFlagsUsage =
    "  --jobs N              compile worker threads; 0 = all cores "
    "(default: 1)\n"
    "  --block-workers N     intra-job workers for 3Q block "
    "resynthesis\n"
    "                        and calibrate's EA pulse solves;\n"
    "                        0 = leftover cores (default: 1, "
    "serial);\n"
    "                        results are bit-identical at any N\n"
    "  --cache-dir DIR       persist the SU(4) caches in DIR: load\n"
    "                        them at start-up, save them on exit\n"
    "  --backend FILE        compile to the chip described by FILE "
    "(JSON);\n"
    "                        routes onto its topology and reports "
    "per-edge\n"
    "                        reconfigured vs uniform gate-set "
    "fidelity\n"
    "  --flight-dump FILE    write the always-on flight recorder's\n"
    "                        last-events dump on job failure, fatal\n"
    "                        signals (SIGSEGV etc.) and exit\n";

FlagParse
parseServiceFlag(const char *prog, int argc, char **argv, int &i,
                 ServiceFlags &flags)
{
    const std::string arg = argv[i];
    if (arg != "--jobs" && arg != "--block-workers" &&
        arg != "--cache-dir" && arg != "--backend" &&
        arg != "--flight-dump")
        return FlagParse::NotMine;
    if (i + 1 >= argc) {
        std::cerr << prog << ": missing value for " << arg << "\n";
        return FlagParse::Error;
    }
    const char *v = argv[++i];
    bool ok = true;
    if (arg == "--jobs")
        ok = parseNumber(prog, arg, v, flags.options.threads);
    else if (arg == "--block-workers")
        ok = parseNumber(prog, arg, v, flags.options.blockWorkers);
    else if (arg == "--cache-dir")
        flags.options.cacheDir = v;
    else if (arg == "--backend")
        flags.backendPath = v;
    else
        flags.flightDump = v;
    return ok ? FlagParse::Consumed : FlagParse::Error;
}

bool
applyServiceFlags(const char *prog, ServiceFlags &flags)
{
    // The flight recorder itself is always on; a dump file arms its
    // triggers (job failure, fatal signal, the caller's exit dump).
    if (!flags.flightDump.empty()) {
        obs::flight::setDumpPath(flags.flightDump);
        obs::flight::installSignalHandlers();
    }
    if (flags.backendPath.empty())
        return true;
    try {
        flags.options.backend =
            std::make_shared<const backend::Backend>(
                backend::Backend::fromJsonFile(flags.backendPath));
    } catch (const backend::JsonError &e) {
        // Same classification the daemon reports on the wire.
        const ApiError err =
            makeError(errc::kBadChipFile, e.what(), flags.backendPath);
        std::cerr << prog << ": [" << err.code << "] " << err.message
                  << "\n";
        return false;
    }
    return true;
}

} // namespace reqisc::service
