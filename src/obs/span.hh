/**
 * @file
 * Structured spans: RAII-timed, nestable, cross-thread-linkable
 * trace sections buffered by the tracer and collectable as a flat
 * event list (exported to Chrome trace-event JSON by
 * obs/trace_json.hh).
 *
 * Model: opening a Span allocates a process-unique id, parents it on
 * the owning thread's innermost live span (or an explicit SpanContext
 * for cross-thread links, e.g. BlockPool tasks parented on the job
 * span that enqueued them) and pushes it on the thread's span stack;
 * stop()/destruction pops the stack and appends one completed
 * TraceEvent to the tracer's one locked list. A cold medium-suite
 * compile on 4 block workers records 384 spans, so one lock is no
 * contention. Timestamps are std::chrono::steady_clock
 * nanoseconds relative to the tracer's epoch (captured at
 * construction).
 *
 * Cost model mirrors obs/metrics.hh: when the tracer is disabled at
 * Span construction the span is inert — no id, no buffering, just
 * the clock reads needed for stop()'s return value (PassManager
 * feeds PassTrace from it, so the measurement must exist even with
 * tracing off). Tracer::global() is a leaky singleton, disabled by
 * default.
 */

#ifndef REQISC_OBS_SPAN_HH
#define REQISC_OBS_SPAN_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace reqisc::obs
{

/**
 * Process-wide dense index of the calling thread, assigned on its
 * first call: the `tid` of traces, log records and flight events.
 * The thread_local is trivially destructible, so it stays readable
 * during teardown.
 */
inline std::uint32_t threadIndex()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t index =
        next.fetch_add(1, std::memory_order_relaxed);
    return index;
}

using SteadyTime = std::chrono::steady_clock::time_point;

/** Opaque span identity for cross-thread parent links (0 = none). */
struct SpanContext
{
    std::uint64_t id = 0;
};

/** One completed span, ready for export. */
struct TraceEvent
{
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   //!< 0 = root
    std::uint32_t tid = 0;      //!< threadIndex() of the recorder
    std::int64_t startNs = 0;   //!< steady ns since tracer epoch
    std::int64_t durNs = 0;
    std::vector<std::pair<std::string, std::string>> args;
};

/** Process-wide span sink; see @file for the model. */
class Tracer
{
  public:
    Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Leaky singleton (safe to use from static destructors). */
    static Tracer &global();

    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Copy out every recorded event, exited threads' included,
     * sorted by start time. Spans still open are not included.
     */
    std::vector<TraceEvent> collect();

    /** Drop all buffered events (open spans still record on stop). */
    void clear();

    /**
     * Steady ns since the epoch, clamped at 0: a time captured before
     * the tracer was first touched reads 0, never negative.
     */
    std::int64_t sinceEpochNs(SteadyTime t) const
    {
        const std::int64_t ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                t - epoch_)
                .count();
        return ns < 0 ? 0 : ns;
    }

  private:
    friend class Span;
    friend void recordSpan(const std::string &, SteadyTime,
                           SteadyTime, SpanContext);

    std::uint64_t nextId()
    {
        return nextId_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    /** Stamp the caller's threadIndex() on ev and append it. */
    void append(TraceEvent &&ev);

    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> nextId_{0};
    SteadyTime epoch_;
    std::mutex mu_;  //!< guards events_
    std::vector<TraceEvent> events_;
};

/**
 * RAII trace section. Records to Tracer::global(). The enabled check
 * happens at construction: a span opened while tracing is off stays
 * inert even if tracing turns on before it closes (and vice versa),
 * so toggling mid-span never unbalances the thread's span stack.
 */
class Span
{
  public:
    /** Open now, parented on the thread's innermost live span. */
    explicit Span(std::string name);
    /** Open now with an explicit (possibly cross-thread) parent. */
    Span(std::string name, SpanContext parent);

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    ~Span();

    /**
     * Close the span and return its duration in seconds. Idempotent
     * (later calls return the first duration). Returns a valid
     * duration even when tracing is disabled.
     */
    double stop();

    /** Attach a key=value to the exported event (active spans only). */
    void annotate(const std::string &key, const std::string &value);

    /** Identity for cross-thread parent links ({0} when inert). */
    SpanContext context() const { return {id_}; }

  private:
    void open(SpanContext explicitParent, bool useStackParent);

    std::string name_;
    SteadyTime start_;
    std::uint64_t id_ = 0;  //!< 0 = inert
    std::uint64_t parent_ = 0;
    bool stopped_ = false;
    double seconds_ = 0.0;
    std::vector<std::pair<std::string, std::string>> args_;
};

/**
 * Record an already-measured interval as a completed span (used
 * where RAII does not fit, e.g. queue wait computed from an enqueue
 * timestamp carried in the job). With parent.id == 0 the event is
 * parented on the calling thread's innermost live span.
 */
void recordSpan(const std::string &name, SteadyTime start,
                SteadyTime end, SpanContext parent = {});

/** Innermost live span on this thread ({0} if none/disabled). */
SpanContext currentSpan();

/**
 * Name of the job this thread is currently working under ("" when
 * outside any JobScope). Stored in a fixed, trivially-destructible
 * thread-local buffer so it stays readable from late/teardown
 * instrumentation paths. Spans opened inside a scope auto-annotate
 * themselves with job=<name>, and the flight recorder + structured
 * logger stamp it on every record, so traces, logs and flight dumps
 * all correlate by job without manual matching.
 */
const char *currentJobName();

/**
 * RAII job attribution scope: everything this thread records between
 * construction and destruction (spans, log records, flight events —
 * and, via BlockPool's capture, block tasks fanned out to helper
 * threads) carries this job name. Scopes nest; the previous name is
 * restored on destruction. Names longer than the flight-event job
 * field (31 bytes) are cut consistently everywhere, at a UTF-8
 * character boundary.
 */
class JobScope
{
  public:
    explicit JobScope(const std::string &job);
    JobScope(const JobScope &) = delete;
    JobScope &operator=(const JobScope &) = delete;
    ~JobScope();

  private:
    std::string prev_;
};

} // namespace reqisc::obs

#endif // REQISC_OBS_SPAN_HH
