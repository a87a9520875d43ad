#include "obs/span.hh"

#include <algorithm>
#include <cstring>

#include "obs/flight.hh"
#include "obs/json_escape.hh"

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

void setTlsJob(std::string_view s)
{
    const std::size_t n = utf8Prefix(s, sizeof(tlsJob) - 1);
    std::memcpy(tlsJob, s.data(), n);
    tlsJob[n] = '\0';
}

/**
 * Ids of this thread's open active spans, innermost last. Spans are
 * scoped, so the stack is empty before thread exit destroys it.
 */
thread_local std::vector<std::uint64_t> tlsOpenSpans;

std::uint64_t innermostOpenSpan()
{
    return tlsOpenSpans.empty() ? 0 : tlsOpenSpans.back();
}

} // namespace

// ---- Tracer ------------------------------------------------------------

Tracer::Tracer() : epoch_(Clock::now()) {}

Tracer &Tracer::global()
{
    static Tracer *g = new Tracer();
    return *g;
}

void Tracer::append(TraceEvent &&ev)
{
    ev.tid = threadIndex();
    std::lock_guard lock(mu_);
    events_.push_back(std::move(ev));
}

std::vector<TraceEvent> Tracer::collect()
{
    std::vector<TraceEvent> out;
    {
        std::lock_guard lock(mu_);
        out = events_;
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
    events_.clear();
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
    id_ = tracer.nextId();
    parent_ = useStackParent ? innermostOpenSpan() : explicitParent.id;
    tlsOpenSpans.push_back(id_);
    // Annotation inheritance: spans opened under a JobScope carry
    // the job name so traces correlate with logs/flight dumps.
    if (tlsJob[0] != '\0')
        args_.emplace_back("job", tlsJob);
}

Span::~Span()
{
    // The flight recorder takes every span's end event, so even an
    // inert span reads the clock here.
    if (!stopped_)
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

    // Pop this span; an unbalanced stack (impossible with RAII use)
    // would self-heal by searching downward.
    if (!tlsOpenSpans.empty() && tlsOpenSpans.back() == id_)
        tlsOpenSpans.pop_back();
    else
        std::erase(tlsOpenSpans, id_);

    Tracer &tracer = Tracer::global();
    TraceEvent ev;
    ev.name = name_;
    ev.id = id_;
    ev.parent = parent_;
    ev.startNs = tracer.sinceEpochNs(start_);
    ev.durNs = tracer.sinceEpochNs(end) - ev.startNs;
    ev.args = std::move(args_);
    tracer.append(std::move(ev));
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
    TraceEvent ev;
    ev.name = name;
    ev.id = tracer.nextId();
    ev.parent = parent.id != 0 ? parent.id : innermostOpenSpan();
    ev.startNs = tracer.sinceEpochNs(start);
    ev.durNs = tracer.sinceEpochNs(end) - ev.startNs;
    if (ev.durNs < 0)
        ev.durNs = 0;
    tracer.append(std::move(ev));
}

SpanContext currentSpan()
{
    if (!Tracer::global().enabled())
        return {};
    return {innermostOpenSpan()};
}

// ---- Job attribution ---------------------------------------------------

const char *currentJobName()
{
    return tlsJob;
}

JobScope::JobScope(const std::string &job) : prev_(tlsJob)
{
    setTlsJob(job);
}

JobScope::~JobScope()
{
    setTlsJob(prev_);
}

} // namespace reqisc::obs
