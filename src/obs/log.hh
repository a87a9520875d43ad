/**
 * @file
 * Leveled structured logging: JSON-lines records (timestamp,
 * thread, level, component, message, key/value fields, current job)
 * appended to the sink's one locked list and sorted at export time.
 *
 * The list belongs to the sink, so records written on short-lived
 * pool threads survive into collect(). The logger is
 * a leaky singleton, *disabled* by default — reqisc-compile enables
 * it via --log-out FILE (with --log-level LVL severity filtering)
 * and writes the JSON-lines file at exit. Independent of
 * obs::setEnabled(): logging can be on with tracing off and vice
 * versa.
 *
 * Every log() call additionally feeds the always-on flight recorder
 * (before the enabled and severity checks), so the last few hundred
 * records — including filtered debug chatter — are always available
 * in a crash or job-failure dump.
 *
 * An enabled logger keeps every record at or above its minimum
 * level. No call site is hot: each fires at most once per job, cache
 * file, start-up or failing pool task.
 *
 * Timestamps are steady-clock nanoseconds since the tracer epoch and
 * `tid` is threadIndex(), so log records line up with trace spans
 * and flight events on one timeline and one thread numbering.
 */

#ifndef REQISC_OBS_LOG_HH
#define REQISC_OBS_LOG_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace reqisc::obs
{

enum class LogLevel : std::uint8_t
{
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
};

/** Lower-case wire name ("debug", "info", "warn", "error"). */
const char *logLevelName(LogLevel level);

/** Parse a wire name (case-sensitive); false on unknown input. */
bool parseLogLevel(const std::string &text, LogLevel &out);

using LogFields = std::vector<std::pair<std::string, std::string>>;

/** One structured record, ready for export. */
struct LogRecord
{
    LogLevel level = LogLevel::Info;
    std::int64_t tsNs = 0;  //!< steady ns since the tracer epoch
    std::uint32_t tid = 0;  //!< threadIndex() of the caller
    std::string component;
    std::string message;
    std::string job;  //!< JobScope name at the call ("" = none)
    LogFields fields;
};

/** Process-wide record sink; see @file for the model. */
class Logger
{
  public:
    Logger() = default;
    Logger(const Logger &) = delete;
    Logger &operator=(const Logger &) = delete;

    /** Leaky singleton (safe to use from static destructors). */
    static Logger &global();

    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Records below this severity are discarded (default Info). */
    void setMinLevel(LogLevel level)
    {
        minLevel_.store(static_cast<std::uint8_t>(level),
                        std::memory_order_relaxed);
    }
    LogLevel minLevel() const
    {
        return static_cast<LogLevel>(
            minLevel_.load(std::memory_order_relaxed));
    }

    /**
     * Copy out every buffered record, exited threads' included,
     * sorted by timestamp.
     */
    std::vector<LogRecord> collect();

    /** Drop all buffered records. */
    void clear();

    /**
     * Internal: stamp the caller's threadIndex() on a finished
     * record and append it (log() calls this).
     */
    void append(LogRecord &&rec);

  private:
    std::atomic<bool> enabled_{false};
    std::atomic<std::uint8_t> minLevel_{
        static_cast<std::uint8_t>(LogLevel::Info)};
    std::mutex mu_;  //!< guards records_
    std::vector<LogRecord> records_;
};

/**
 * Emit one structured record to Logger::global() (and, always, to
 * the flight recorder). The current JobScope name is attached
 * automatically.
 */
void log(LogLevel level, const std::string &component,
         const std::string &message, LogFields fields = {});

/**
 * Serialize records as JSON lines — one object per line:
 * {"tsNs":N,"level":"info","tid":T,"component":"...","job":"...",
 *  "msg":"...","fields":{"k":"v",...}}
 * ("job" is omitted when empty; "fields" is always present.)
 */
std::string jsonLines(const std::vector<LogRecord> &records);

} // namespace reqisc::obs

#endif // REQISC_OBS_LOG_HH
