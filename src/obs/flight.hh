/**
 * @file
 * Always-on flight recorder: a black box that keeps the last few
 * hundred observability events per thread in fixed-size lock-free
 * ring buffers, so that when a job fails or the process dies on a
 * fatal signal there is always a recent-history dump to read —
 * without ever enabling the (opt-in) tracer or metrics registry.
 *
 * Model: each thread owns one single-writer ring of kRingCapacity
 * pre-sized slots (registered in a fixed global table on first use,
 * never freed, so the table stays traversable from a signal
 * handler). A record is a fixed-layout Event — span begin/end, log
 * record, or metric delta — stamped with a process-global sequence
 * number, a steady-clock timestamp on the tracer's epoch and the
 * thread's threadIndex() (so flight dumps line up with exported
 * traces and logs), and the current JobScope name. Writers
 * serialize the event into the slot as relaxed word-sized atomic
 * stores and then publish by bumping the ring head (release);
 * readers copy slots with relaxed loads and discard any slot the
 * head overtook while copying (seqlock-style torn-read rejection),
 * so no lock is ever taken on the hot path or in the dump path.
 *
 * Dump triggers: job failure (CompileService), fatal signal
 * (installSignalHandlers(): SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL via
 * an async-signal-safe writer that uses only open/write, atomics and
 * hand-rolled formatting — no malloc, no locks), or on demand
 * (reqisc-compile --flight-dump FILE dumps at exit). The dump is one
 * self-contained JSON document; see docs/OBSERVABILITY.md.
 *
 * Memory bound: kMaxThreads rings x kRingCapacity slots x
 * sizeof(Event) (~184 B) — threads beyond the table capacity drop
 * their events (counted in the dump's `droppedThreads`) rather than
 * grow.
 *
 * Always on; the cost per record (one clock read, a few
 * bounded string copies and ~23 relaxed stores) is paid identically
 * whether the tracer/registry are on or off, so it cannot move the
 * bench_service obsEfficiency perf-guard ratio.
 */

#ifndef REQISC_OBS_FLIGHT_HH
#define REQISC_OBS_FLIGHT_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace reqisc::obs::flight
{

/** What an Event records; see kindName() for the wire spelling. */
enum class Kind : std::uint8_t
{
    SpanBegin = 0,  //!< a Span opened (value unused)
    SpanEnd = 1,    //!< a Span closed (value = duration ns)
    Log = 2,        //!< a log record (level = severity)
    Counter = 3,    //!< counter increment (value = delta)
    Gauge = 4,      //!< gauge update (value = new value)
    Histogram = 5,  //!< histogram observation (value = sample)
};

/** Stable lower-camel wire name ("spanBegin", ..., "histogram"). */
const char *kindName(Kind k);

inline constexpr std::size_t kRingCapacity = 256;
inline constexpr std::size_t kMaxThreads = 128;
inline constexpr std::size_t kNameBytes = 56;
inline constexpr std::size_t kDetailBytes = 64;
inline constexpr std::size_t kJobBytes = 32;

/**
 * One recorded event. Fixed layout, trivially copyable (slots are
 * copied word-wise through atomics); strings are NUL-terminated and
 * cut to their field size at a UTF-8 character boundary.
 */
struct Event
{
    std::uint64_t seq = 0;   //!< process-global, 1-based, dense
    std::int64_t tsNs = 0;   //!< steady ns since the tracer epoch
    double value = 0.0;      //!< kind-dependent payload
    std::uint32_t tid = 0;   //!< threadIndex() of the recorder
    std::uint8_t kind = 0;   //!< Kind
    std::uint8_t level = 0;  //!< log severity (Kind::Log only)
    std::uint16_t pad = 0;
    char name[kNameBytes] = {};     //!< span/metric/component name
    char detail[kDetailBytes] = {}; //!< log message / extra context
    char job[kJobBytes] = {};       //!< JobScope name ("" = none)
};

/** Record an event now on this thread's ring. */
void record(Kind kind, const char *name, const char *detail = "",
            double value = 0.0, int level = 0);

/** Record with an explicit timestamp (backdated span ends etc.). */
void recordAt(std::chrono::steady_clock::time_point when, Kind kind,
              const char *name, const char *detail = "",
              double value = 0.0, int level = 0);

/**
 * Copy out every currently-readable event, merged across threads
 * and sorted by seq (i.e. global record order). Torn slots (lapped
 * by their writer mid-copy) and events recorded before the last
 * clear() are excluded. Safe to call concurrently with writers.
 *
 * Capacity caveat: once a thread has recorded kRingCapacity events,
 * its oldest readable slot is the one its writer may already be
 * reusing (the write is only visible after the head is published),
 * so a snapshot exposes at most kRingCapacity - 1 events per thread
 * — the price of keeping the hot path lock-free.
 */
std::vector<Event> snapshotEvents();

/** The snapshot serialized as the flight-dump JSON document. */
std::string snapshotJson(const char *trigger);

/**
 * Hide every event recorded so far from future snapshots/dumps
 * (watermark-based: rings are untouched, so this is safe against
 * concurrent writers). Test isolation helper.
 */
void clear();

/**
 * Set (or, with "", unset) the file the automatic triggers write:
 * job-failure dumps and the fatal-signal handler both go here.
 */
void setDumpPath(const std::string &path);
std::string dumpPath();

/**
 * Write a dump to the configured path with the given trigger tag.
 * Returns false when no path is set or the write fails.
 */
bool dumpNow(const char *trigger);

/** Write a dump to an explicit path (used by tests and the CLI). */
bool dumpToFile(const std::string &path, const char *trigger);

/**
 * Install SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL handlers
 * (SA_RESETHAND) that write a dump to the configured path through
 * the async-signal-safe writer and then re-raise so the process
 * still dies with the original signal. Idempotent.
 */
void installSignalHandlers();

} // namespace reqisc::obs::flight

#endif // REQISC_OBS_FLIGHT_HH
