/**
 * @file
 * Chrome trace-event JSON export for obs::TraceEvent lists, loadable
 * in Perfetto (https://ui.perfetto.dev) or chrome://tracing, plus the
 * small file-writing helper the CLI uses for --trace-out /
 * --metrics-out. Strings are escaped by obs/json_escape.hh.
 */

#ifndef REQISC_OBS_TRACE_JSON_HH
#define REQISC_OBS_TRACE_JSON_HH

#include <string>
#include <vector>

#include "obs/span.hh"

namespace reqisc::obs
{

/**
 * Serialize events as the JSON-object trace format:
 * {"traceEvents": [...], "displayTimeUnit": "ms"} with one "X"
 * (complete) event per span — ts/dur in microseconds (fractional,
 * 3 decimals = ns precision), pid 1, the threadIndex() tid, and span
 * id/parent plus annotations under "args".
 */
std::string chromeTraceJson(const std::vector<TraceEvent> &events);

/**
 * Write content to path (truncating). Returns false and fills error
 * with a strerror-style message on failure.
 */
bool writeTextFile(const std::string &path,
                   const std::string &content, std::string &error);

} // namespace reqisc::obs

#endif // REQISC_OBS_TRACE_JSON_HH
