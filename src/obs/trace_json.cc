#include "obs/trace_json.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "obs/json_escape.hh"

namespace reqisc::obs
{

namespace
{

void appendMicros(std::string &out, std::int64_t ns)
{
    // ns -> fractional µs with 3 decimals, exact (no doubles).
    if (ns < 0)
        ns = 0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                  static_cast<long long>(ns / 1000),
                  static_cast<long long>(ns % 1000));
    out += buf;
}

} // namespace

std::string chromeTraceJson(const std::vector<TraceEvent> &events)
{
    std::string out;
    out.reserve(events.size() * 160 + 64);
    out += "{\"traceEvents\":[";
    bool first = true;
    for (const TraceEvent &ev : events)
    {
        if (!first)
            out += ",";
        first = false;
        out += "\n{\"name\":\"";
        appendJsonEscaped(out, ev.name);
        out += "\",\"cat\":\"reqisc\",\"ph\":\"X\",\"ts\":";
        appendMicros(out, ev.startNs);
        out += ",\"dur\":";
        appendMicros(out, ev.durNs);
        out += ",\"pid\":1,\"tid\":";
        out += std::to_string(ev.tid);
        out += ",\"args\":{\"id\":";
        out += std::to_string(ev.id);
        out += ",\"parent\":";
        out += std::to_string(ev.parent);
        for (const auto &[key, value] : ev.args)
        {
            out += ",\"";
            appendJsonEscaped(out, key);
            out += "\":\"";
            appendJsonEscaped(out, value);
            out += "\"";
        }
        out += "}}";
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

bool writeTextFile(const std::string &path,
                   const std::string &content, std::string &error)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f)
    {
        error = path + ": " + std::strerror(errno);
        return false;
    }
    f << content;
    f.flush();
    if (!f)
    {
        error = path + ": write failed";
        return false;
    }
    return true;
}

} // namespace reqisc::obs
