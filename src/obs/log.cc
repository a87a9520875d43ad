#include "obs/log.hh"

#include <algorithm>
#include <chrono>

#include "obs/flight.hh"
#include "obs/json_escape.hh"
#include "obs/span.hh"

namespace reqisc::obs
{

const char *logLevelName(LogLevel level)
{
    switch (level)
    {
    case LogLevel::Debug: return "debug";
    case LogLevel::Info: return "info";
    case LogLevel::Warn: return "warn";
    case LogLevel::Error: return "error";
    }
    return "unknown";
}

bool parseLogLevel(const std::string &text, LogLevel &out)
{
    if (text == "debug")
        out = LogLevel::Debug;
    else if (text == "info")
        out = LogLevel::Info;
    else if (text == "warn")
        out = LogLevel::Warn;
    else if (text == "error")
        out = LogLevel::Error;
    else
        return false;
    return true;
}

// ---- Logger ------------------------------------------------------------

Logger &Logger::global()
{
    // Leaky: outlives every static/thread_local destructor so late
    // records during teardown stay safe.
    static Logger *g = new Logger();
    return *g;
}

void Logger::append(LogRecord &&rec)
{
    rec.tid = threadIndex();
    std::lock_guard lock(mu_);
    records_.push_back(std::move(rec));
}

std::vector<LogRecord> Logger::collect()
{
    std::vector<LogRecord> out;
    {
        std::lock_guard lock(mu_);
        out = records_;
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const LogRecord &a, const LogRecord &b) {
                         return a.tsNs < b.tsNs;
                     });
    return out;
}

void Logger::clear()
{
    std::lock_guard lock(mu_);
    records_.clear();
}

// ---- Free functions ----------------------------------------------------

void log(LogLevel level, const std::string &component,
         const std::string &message, LogFields fields)
{
    // The flight recorder sees every call — including records the
    // logger is about to filter — so crash dumps keep debug chatter.
    flight::record(flight::Kind::Log, component.c_str(),
                   message.c_str(), 0.0,
                   static_cast<int>(level));

    Logger &logger = Logger::global();
    if (!logger.enabled())
        return;
    if (static_cast<std::uint8_t>(level) <
        static_cast<std::uint8_t>(logger.minLevel()))
        return;

    LogRecord rec;
    rec.level = level;
    rec.tsNs = Tracer::global().sinceEpochNs(
        std::chrono::steady_clock::now());
    rec.component = component;
    rec.message = message;
    rec.job = currentJobName();
    rec.fields = std::move(fields);
    logger.append(std::move(rec));
}

std::string jsonLines(const std::vector<LogRecord> &records)
{
    std::string out;
    out.reserve(records.size() * 128);
    for (const LogRecord &r : records)
    {
        out += "{\"tsNs\":" + std::to_string(r.tsNs);
        out += ",\"level\":\"";
        out += logLevelName(r.level);
        out += "\",\"tid\":" + std::to_string(r.tid);
        out += ",\"component\":\"";
        appendJsonEscaped(out, r.component);
        out += "\"";
        if (!r.job.empty())
        {
            out += ",\"job\":\"";
            appendJsonEscaped(out, r.job);
            out += "\"";
        }
        out += ",\"msg\":\"";
        appendJsonEscaped(out, r.message);
        out += "\",\"fields\":{";
        bool first = true;
        for (const auto &[k, v] : r.fields)
        {
            if (!first)
                out += ',';
            first = false;
            out += "\"";
            appendJsonEscaped(out, k);
            out += "\":\"";
            appendJsonEscaped(out, v);
            out += "\"";
        }
        out += "}}\n";
    }
    return out;
}

} // namespace reqisc::obs
