/**
 * @file
 * The service flags both front-ends accept, reqisc-compile and
 * reqisc-compiled: one parser for --jobs, --block-workers,
 * --cache-dir, --backend and --flight-dump, one chip-file load with
 * its `[bad-chip-file]` report, one flight-recorder set-up, and one
 * copy of their usage lines.
 */

#ifndef REQISC_SERVICE_CLI_HH
#define REQISC_SERVICE_CLI_HH

#include <string>

#include "service/service.hh"

namespace reqisc::service
{

/** What the service flags set. */
struct ServiceFlags
{
    /** threads, blockWorkers, cacheDir; backend once applied. */
    ServiceOptions options;
    std::string backendPath;  //!< chip JSON file; "" = no backend
    std::string flightDump;   //!< flight-recorder dump file; "" = off
};

/** Outcome of offering one argv entry to parseServiceFlag. */
enum class FlagParse
{
    NotMine,   //!< not a service flag; the caller handles it
    Consumed,  //!< parsed, with its value
    Error,     //!< the value is missing; reported on stderr
};

/**
 * Parse argv[i] when it is a service flag, advancing `i` past its
 * value. `prog` prefixes the error message.
 */
FlagParse parseServiceFlag(const char *prog, int argc, char **argv,
                           int &i, ServiceFlags &flags);

/**
 * Act on the parsed flags: arm the flight recorder's dump triggers
 * (its file and the fatal-signal handlers) and load the chip file
 * into flags.options.backend. Returns false after reporting
 * `[bad-chip-file]` on stderr; both front-ends then exit 2.
 */
bool applyServiceFlags(const char *prog, ServiceFlags &flags);

/** The usage lines of the service flags, for --help. */
extern const char *const kServiceFlagsUsage;

} // namespace reqisc::service

#endif // REQISC_SERVICE_CLI_HH
