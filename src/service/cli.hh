/**
 * @file
 * The service flags both front-ends accept, reqisc-compile and
 * reqisc-compiled: one parser for --jobs, --block-workers,
 * --cache-dir, --backend and --flight-dump, one chip-file load with
 * its `[bad-chip-file]` report, one flight-recorder set-up, and one
 * copy of their usage lines. Also the one parser of every numeric
 * flag value of both binaries.
 */

#ifndef REQISC_SERVICE_CLI_HH
#define REQISC_SERVICE_CLI_HH

#include <charconv>
#include <cmath>
#include <cstring>
#include <iostream>
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
    Error,     //!< the value is missing or malformed; reported on stderr
};

/**
 * Parse the value `text` of numeric flag `flag` into `out`. All of
 * `text` must be a decimal number from 0 to T's maximum: digits only
 * for an integral T, a finite value for double. Otherwise reports
 * the flag and the value on stderr, prefixed by `prog`, and returns
 * false; both front-ends then exit 2.
 */
template <class T>
bool
parseNumber(const char *prog, const std::string &flag, const char *text,
            T &out)
{
    const char *end = text + std::strlen(text);
    T value{};
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec == std::errc() && ptr == end && *text != '-' &&
        std::isfinite(static_cast<double>(value))) {
        out = value;
        return true;
    }
    std::cerr << prog << ": invalid value '" << text << "' for " << flag
              << "\n";
    return false;
}

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
