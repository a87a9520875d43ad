#include "obs/span.hh"

#include <algorithm>
#include <cstring>

#include "obs/flight.hh"

namespace reqisc::obs
{

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * Current JobScope name. A fixed trivially-destructible buffer (not
 * a std::string) so instrumentation running during thread/process
 * teardown can still read it safely; sized to the flight-event job
 * field so every consumer sees the same truncation.
 */
thread_local char tlsJob[flight::kJobBytes] = {};

void setTlsJob(const char *s, std::size_t len)
{
    const std::size_t n =
        len < sizeof(tlsJob) - 1 ? len : sizeof(tlsJob) - 1;
    std::memcpy(tlsJob, s, n);
    tlsJob[n] = '\0';
}

std::int64_t nsSince(SteadyTime epoch, SteadyTime t)
{
    // Clamp: a backdated start captured before the tracer epoch
    // (first touch races) must not produce negative timestamps.
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                             epoch)
            .count();
    return ns < 0 ? 0 : ns;
}

/**
 * Registers this thread's log on first use and retires it (handing
 * ownership of buffered events to the tracer) at thread exit.
 */
struct ThreadLogHolder
{
    detail::ThreadLog *log = nullptr;

    ~ThreadLogHolder()
    {
        if (log != nullptr)
            log->tracer->retire(log);
    }
};

thread_local ThreadLogHolder tlsLog;

} // namespace

// ---- Tracer ------------------------------------------------------------

Tracer::Tracer() : epoch_(Clock::now()) {}

Tracer &Tracer::global()
{
    static Tracer *g = new Tracer();
    return *g;
}

detail::ThreadLog &Tracer::threadLog()
{
    if (tlsLog.log == nullptr || tlsLog.log->tracer != this)
    {
        auto log = std::make_unique<detail::ThreadLog>();
        log->tracer = this;
        std::lock_guard lock(mu_);
        log->tid = nextTid_++;
        live_.push_back(log.get());
        // The thread_local holder keeps the raw pointer; ownership
        // transfers to retired_ when the thread exits.
        tlsLog.log = log.release();
    }
    return *tlsLog.log;
}

void Tracer::retire(detail::ThreadLog *log)
{
    std::lock_guard lock(mu_);
    live_.erase(std::remove(live_.begin(), live_.end(), log),
                live_.end());
    retired_.emplace_back(log);
}

std::vector<TraceEvent> Tracer::collect()
{
    std::vector<TraceEvent> out;
    std::lock_guard lock(mu_);
    for (detail::ThreadLog *log : live_)
    {
        std::lock_guard logLock(log->mu);
        out.insert(out.end(), log->events.begin(),
                   log->events.end());
    }
    for (const auto &log : retired_)
    {
        std::lock_guard logLock(log->mu);
        out.insert(out.end(), log->events.begin(),
                   log->events.end());
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.startNs < b.startNs;
                     });
    return out;
}

void Tracer::clear()
{
    std::lock_guard lock(mu_);
    for (detail::ThreadLog *log : live_)
    {
        std::lock_guard logLock(log->mu);
        log->events.clear();
    }
    // Retired threads can never log again; drop their logs entirely.
    retired_.clear();
}

// ---- Span --------------------------------------------------------------

Span::Span(std::string name) : name_(std::move(name))
{
    open({}, /*useStackParent=*/true);
    start_ = Clock::now();
    flight::recordAt(start_, flight::Kind::SpanBegin,
                     name_.c_str());
}

Span::Span(std::string name, SpanContext parent)
    : name_(std::move(name))
{
    open(parent, /*useStackParent=*/false);
    start_ = Clock::now();
    flight::recordAt(start_, flight::Kind::SpanBegin,
                     name_.c_str());
}

void Span::open(SpanContext explicitParent, bool useStackParent)
{
    Tracer &tracer = Tracer::global();
    if (!tracer.enabled())
        return;
    detail::ThreadLog &log = tracer.threadLog();
    id_ = tracer.nextId();
    if (useStackParent)
        parent_ = log.stack.empty() ? 0 : log.stack.back();
    else
        parent_ = explicitParent.id;
    log.stack.push_back(id_);
    // Annotation inheritance: spans opened under a JobScope carry
    // the job name so traces correlate with logs/flight dumps.
    if (tlsJob[0] != '\0')
        args_.emplace_back("job", tlsJob);
}

Span::~Span()
{
    // Inert spans skip the clock read entirely unless the flight
    // recorder wants the end event; callers that need the duration
    // despite disabled tracing call stop() themselves.
    if (!stopped_ && (id_ != 0 || flight::enabled()))
        stop();
}

double Span::stop()
{
    if (stopped_)
        return seconds_;
    stopped_ = true;
    const SteadyTime end = Clock::now();
    seconds_ = std::chrono::duration<double>(end - start_).count();
    flight::recordAt(
        end, flight::Kind::SpanEnd, name_.c_str(), "",
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                end - start_)
                .count()));
    if (id_ == 0)
        return seconds_;

    Tracer &tracer = Tracer::global();
    detail::ThreadLog &log = tracer.threadLog();
    // Pop this span; an unbalanced stack (impossible with RAII use)
    // would self-heal by searching downward.
    if (!log.stack.empty() && log.stack.back() == id_)
        log.stack.pop_back();
    else
        log.stack.erase(
            std::remove(log.stack.begin(), log.stack.end(), id_),
            log.stack.end());

    TraceEvent ev;
    ev.name = name_;
    ev.id = id_;
    ev.parent = parent_;
    ev.tid = log.tid;
    ev.startNs = nsSince(tracer.epoch(), start_);
    ev.durNs = nsSince(tracer.epoch(), end) - ev.startNs;
    ev.args = std::move(args_);
    std::lock_guard lock(log.mu);
    log.events.push_back(std::move(ev));
    return seconds_;
}

void Span::annotate(const std::string &key,
                    const std::string &value)
{
    if (id_ == 0 || stopped_)
        return;
    args_.emplace_back(key, value);
}

// ---- Free functions ----------------------------------------------------

void recordSpan(const std::string &name, SteadyTime start,
                SteadyTime end, SpanContext parent)
{
    flight::recordAt(
        end, flight::Kind::SpanEnd, name.c_str(), "",
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                end - start)
                .count()));
    Tracer &tracer = Tracer::global();
    if (!tracer.enabled())
        return;
    detail::ThreadLog &log = tracer.threadLog();
    TraceEvent ev;
    ev.name = name;
    ev.id = tracer.nextId();
    ev.parent = parent.id != 0
                    ? parent.id
                    : (log.stack.empty() ? 0 : log.stack.back());
    ev.tid = log.tid;
    ev.startNs = nsSince(tracer.epoch(), start);
    ev.durNs = nsSince(tracer.epoch(), end) - ev.startNs;
    if (ev.durNs < 0)
        ev.durNs = 0;
    std::lock_guard lock(log.mu);
    log.events.push_back(std::move(ev));
}

SpanContext currentSpan()
{
    Tracer &tracer = Tracer::global();
    if (!tracer.enabled())
        return {};
    detail::ThreadLog &log = tracer.threadLog();
    return {log.stack.empty() ? 0 : log.stack.back()};
}

// ---- Job attribution ---------------------------------------------------

const char *currentJobName()
{
    return tlsJob;
}

JobScope::JobScope(const std::string &job) : prev_(tlsJob)
{
    setTlsJob(job.data(), job.size());
}

JobScope::~JobScope()
{
    setTlsJob(prev_.data(), prev_.size());
}

} // namespace reqisc::obs
