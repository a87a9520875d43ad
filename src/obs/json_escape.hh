/**
 * @file
 * The repo's one JSON string escaper: `"` and `\` are backslashed,
 * newline, carriage return and tab use the short `\n` `\r` `\t`
 * forms, other bytes below 0x20 become `\u00xx` (lower-case hex),
 * and every other byte, UTF-8 included, is copied verbatim. It sits
 * in src/obs, the bottom layer, because the flight recorder's
 * fatal-signal dump needs it; backend's dumpJson uses it too. Next
 * to it, the one cut that keeps a fixed-size field valid UTF-8.
 */

#ifndef REQISC_OBS_JSON_ESCAPE_HH
#define REQISC_OBS_JSON_ESCAPE_HH

#include <cstddef>
#include <string>
#include <string_view>

namespace reqisc::obs
{

/** Receives n bytes at data; ctx is the sink's own state. */
using ByteSink = void (*)(void *ctx, const char *data, std::size_t n);

/** The ByteSink that appends to the std::string ctx points at. */
void appendToString(void *ctx, const char *data, std::size_t n);

/**
 * Write s escaped (without quotes) to sink. Allocation-free and
 * async-signal-safe when sink is: verbatim runs go out in one call.
 */
void writeJsonEscaped(std::string_view s, ByteSink sink, void *ctx);

/** writeJsonEscaped into a string: appended to out, or returned. */
void appendJsonEscaped(std::string &out, std::string_view s);
std::string jsonEscape(std::string_view s);

/**
 * The length of the longest prefix of s of at most cap bytes that
 * does not split a UTF-8 sequence. Allocation-free and
 * async-signal-safe: it cuts the JobScope name and flight's fields.
 */
std::size_t utf8Prefix(std::string_view s, std::size_t cap);

} // namespace reqisc::obs

#endif // REQISC_OBS_JSON_ESCAPE_HH
