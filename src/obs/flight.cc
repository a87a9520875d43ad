#include "obs/flight.hh"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <type_traits>

#include "obs/json_escape.hh"
#include "obs/span.hh"

namespace reqisc::obs::flight
{

namespace
{

static_assert(sizeof(Event) % sizeof(std::uint64_t) == 0,
              "Event must be word-copyable");
static_assert(std::is_trivially_copyable_v<Event>,
              "Event slots are copied as raw words");

constexpr std::size_t kEventWords =
    sizeof(Event) / sizeof(std::uint64_t);

/**
 * Single-writer ring: the owning thread serializes events into the
 * slot words with relaxed stores and publishes with a release bump
 * of head; readers validate against head after copying (see @file
 * in flight.hh). Allocated once per thread, never freed.
 */
struct Ring
{
    std::atomic<std::uint64_t> head{0};  //!< next write index
    std::uint32_t tid = 0;  //!< the owner's threadIndex()
    std::atomic<std::uint64_t> words[kRingCapacity * kEventWords];
};

// All globals are constant-initialized (zero) so the signal handler
// can touch them even if it fires before any dynamic initializer.
std::atomic<std::uint64_t> g_seq{0};
std::atomic<std::uint64_t> g_clearSeq{0};
std::atomic<std::uint32_t> g_ringCount{0};
std::atomic<std::uint64_t> g_droppedThreads{0};
std::atomic<Ring *> g_rings[kMaxThreads];

char g_dumpPath[1024];
std::atomic<bool> g_dumpPathSet{false};
std::atomic<bool> g_dumpBusy{false};

/** Scratch for the signal-handler dump (bss; pages touched lazily). */
Event g_dumpBuf[kMaxThreads * kRingCapacity];

Ring *threadRing()
{
    thread_local Ring *ring = []() -> Ring * {
        const std::uint32_t slot =
            g_ringCount.fetch_add(1, std::memory_order_relaxed);
        if (slot >= kMaxThreads)
        {
            g_droppedThreads.fetch_add(1,
                                       std::memory_order_relaxed);
            return nullptr;
        }
        Ring *r = new Ring();  // leaky: signal-handler traversable
        r->tid = threadIndex();
        g_rings[slot].store(r, std::memory_order_release);
        return r;
    }();
    return ring;
}

void copyField(char *dst, std::size_t cap, const char *src)
{
    if (src == nullptr)
        src = "";
    std::size_t len = 0;  // reads at most cap bytes of src
    while (len < cap && src[len] != '\0')
        ++len;
    const std::size_t n = utf8Prefix({src, len}, cap - 1);
    std::memcpy(dst, src, n);
    dst[n] = '\0';
}

// ---- Async-signal-safe collection --------------------------------------

/**
 * Copy every readable event into out (capacity cap), heapsort by
 * seq, return the count. Uses only atomics, memcpy and stack space —
 * shared between the signal handler and the normal snapshot path.
 */
std::size_t collectInto(Event *out, std::size_t cap)
{
    const std::uint64_t minSeq =
        g_clearSeq.load(std::memory_order_relaxed);
    std::size_t n = 0;
    std::uint32_t rings =
        g_ringCount.load(std::memory_order_acquire);
    if (rings > kMaxThreads)
        rings = kMaxThreads;
    for (std::uint32_t i = 0; i < rings && n < cap; ++i)
    {
        Ring *r = g_rings[i].load(std::memory_order_acquire);
        if (r == nullptr)
            continue;
        const std::uint64_t h0 =
            r->head.load(std::memory_order_acquire);
        const std::uint64_t lo =
            h0 > kRingCapacity ? h0 - kRingCapacity : 0;
        for (std::uint64_t e = lo; e < h0 && n < cap; ++e)
        {
            std::uint64_t raw[kEventWords];
            const std::atomic<std::uint64_t> *w =
                &r->words[(e % kRingCapacity) * kEventWords];
            for (std::size_t j = 0; j < kEventWords; ++j)
                raw[j] = w[j].load(std::memory_order_relaxed);
            // Validate after copying: if the writer has started
            // overwriting this slot (head advanced past e + cap - 1)
            // the copy may be torn — discard it.
            const std::uint64_t h1 =
                r->head.load(std::memory_order_acquire);
            if (h1 - e > kRingCapacity - 1)
                continue;
            Event ev;
            std::memcpy(&ev, raw, sizeof(Event));
            if (ev.seq == 0 || ev.seq <= minSeq)
                continue;
            // Defensive termination: a torn-but-validated-looking
            // slot must still not overrun the string fields.
            ev.name[kNameBytes - 1] = '\0';
            ev.detail[kDetailBytes - 1] = '\0';
            ev.job[kJobBytes - 1] = '\0';
            out[n++] = ev;
        }
    }

    // In-place heapsort by seq (no allocation, no recursion).
    auto siftDown = [&out](std::size_t start, std::size_t end) {
        std::size_t root = start;
        while (2 * root + 1 < end)
        {
            std::size_t child = 2 * root + 1;
            if (child + 1 < end &&
                out[child].seq < out[child + 1].seq)
                ++child;
            if (out[root].seq >= out[child].seq)
                return;
            Event tmp = out[root];
            out[root] = out[child];
            out[child] = tmp;
            root = child;
        }
    };
    if (n > 1)
    {
        for (std::size_t s = n / 2; s > 0; --s)
            siftDown(s - 1, n);
        for (std::size_t e = n - 1; e > 0; --e)
        {
            Event tmp = out[0];
            out[0] = out[e];
            out[e] = tmp;
            siftDown(0, e);
        }
    }
    return n;
}

// ---- Async-signal-safe serialization -----------------------------------

struct FdSink
{
    int fd = -1;
    bool ok = true;
    std::size_t len = 0;
    char buf[4096];
};

void fdFlush(FdSink &s)
{
    std::size_t off = 0;
    while (s.ok && off < s.len)
    {
        const ::ssize_t w = ::write(s.fd, s.buf + off, s.len - off);
        if (w < 0)
        {
            if (errno == EINTR)
                continue;
            s.ok = false;
            break;
        }
        off += static_cast<std::size_t>(w);
    }
    s.len = 0;
}

void fdSinkWrite(void *ctx, const char *data, std::size_t n)
{
    FdSink &s = *static_cast<FdSink *>(ctx);
    while (n > 0 && s.ok)
    {
        const std::size_t room = sizeof(s.buf) - s.len;
        const std::size_t take = n < room ? n : room;
        std::memcpy(s.buf + s.len, data, take);
        s.len += take;
        data += take;
        n -= take;
        if (s.len == sizeof(s.buf))
            fdFlush(s);
    }
}

void put(ByteSink sink, void *ctx, const char *s)
{
    sink(ctx, s, std::strlen(s));
}

void putUInt(ByteSink sink, void *ctx, std::uint64_t v)
{
    char buf[24];
    std::size_t i = sizeof(buf);
    do
    {
        buf[--i] = static_cast<char>('0' + v % 10);
        v /= 10;
    } while (v != 0);
    sink(ctx, buf + i, sizeof(buf) - i);
}

void putInt(ByteSink sink, void *ctx, std::int64_t v)
{
    if (v < 0)
    {
        put(sink, ctx, "-");
        // Negate via uint64 so INT64_MIN stays defined.
        putUInt(sink, ctx,
                ~static_cast<std::uint64_t>(v) + 1);
    }
    else
    {
        putUInt(sink, ctx, static_cast<std::uint64_t>(v));
    }
}

/**
 * JSON number for a double without snprintf: integers print as
 * integers, other finite values as fixed 6-decimal point values,
 * non-finite values as null (JSON has no NaN/Inf literals).
 */
void putDouble(ByteSink sink, void *ctx, double v)
{
    if (!(v == v) || v > 9e15 || v < -9e15)
    {
        if (v > 9e15)
            put(sink, ctx, "9e15");
        else if (v < -9e15)
            put(sink, ctx, "-9e15");
        else
            put(sink, ctx, "null");
        return;
    }
    const std::int64_t ip = static_cast<std::int64_t>(v);
    if (static_cast<double>(ip) == v)
    {
        putInt(sink, ctx, ip);
        return;
    }
    double a = v;
    if (a < 0)
    {
        put(sink, ctx, "-");
        a = -a;
    }
    const std::uint64_t scaled =
        static_cast<std::uint64_t>(a * 1e6 + 0.5);
    putUInt(sink, ctx, scaled / 1000000);
    put(sink, ctx, ".");
    char frac[7];
    std::uint64_t f = scaled % 1000000;
    for (std::size_t i = 6; i > 0; --i)
    {
        frac[i - 1] = static_cast<char>('0' + f % 10);
        f /= 10;
    }
    frac[6] = '\0';
    sink(ctx, frac, 6);
}

const char *levelNameFor(std::uint8_t level)
{
    static const char *const names[] = {"debug", "info", "warn",
                                        "error"};
    return level < 4 ? names[level] : "unknown";
}

void serializeEvents(const Event *evs, std::size_t n,
                     const char *trigger, int signo, ByteSink sink,
                     void *ctx)
{
    put(sink, ctx, "{\"flightRecorder\":{\"version\":1");
    put(sink, ctx, ",\"trigger\":\"");
    writeJsonEscaped(trigger, sink, ctx);
    put(sink, ctx, "\",\"signal\":");
    putInt(sink, ctx, signo);
    put(sink, ctx, ",\"capacityPerThread\":");
    putUInt(sink, ctx, kRingCapacity);
    put(sink, ctx, ",\"threads\":");
    putUInt(sink, ctx,
            g_ringCount.load(std::memory_order_relaxed));
    put(sink, ctx, ",\"droppedThreads\":");
    putUInt(sink, ctx,
            g_droppedThreads.load(std::memory_order_relaxed));
    put(sink, ctx, ",\"events\":[");
    for (std::size_t i = 0; i < n; ++i)
    {
        const Event &e = evs[i];
        put(sink, ctx, i == 0 ? "\n{\"seq\":" : ",\n{\"seq\":");
        putUInt(sink, ctx, e.seq);
        put(sink, ctx, ",\"tsNs\":");
        putInt(sink, ctx, e.tsNs);
        put(sink, ctx, ",\"tid\":");
        putUInt(sink, ctx, e.tid);
        put(sink, ctx, ",\"kind\":\"");
        put(sink, ctx, kindName(static_cast<Kind>(e.kind)));
        put(sink, ctx, "\"");
        if (static_cast<Kind>(e.kind) == Kind::Log)
        {
            put(sink, ctx, ",\"level\":\"");
            put(sink, ctx, levelNameFor(e.level));
            put(sink, ctx, "\"");
        }
        put(sink, ctx, ",\"name\":\"");
        writeJsonEscaped(e.name, sink, ctx);
        put(sink, ctx, "\",\"detail\":\"");
        writeJsonEscaped(e.detail, sink, ctx);
        put(sink, ctx, "\",\"job\":\"");
        writeJsonEscaped(e.job, sink, ctx);
        put(sink, ctx, "\",\"value\":");
        putDouble(sink, ctx, e.value);
        put(sink, ctx, "}");
    }
    put(sink, ctx, "\n]}}\n");
}

bool dumpToFd(int fd, const Event *evs, std::size_t n,
              const char *trigger, int signo)
{
    FdSink s;
    s.fd = fd;
    serializeEvents(evs, n, trigger, signo, fdSinkWrite, &s);
    fdFlush(s);
    return s.ok;
}

void signalHandler(int sig)
{
    // Re-entrancy guard: a crash inside the dump must not recurse.
    if (!g_dumpBusy.exchange(true, std::memory_order_acq_rel) &&
        g_dumpPathSet.load(std::memory_order_acquire))
    {
        const int fd = ::open(g_dumpPath,
                              O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0)
        {
            const std::size_t n = collectInto(
                g_dumpBuf, kMaxThreads * kRingCapacity);
            dumpToFd(fd, g_dumpBuf, n, "signal", sig);
            ::close(fd);
        }
    }
    // SA_RESETHAND restored the default disposition; re-raise so
    // the process still dies with the original signal.
    ::raise(sig);
}

} // namespace

// ---- Public API --------------------------------------------------------

const char *kindName(Kind k)
{
    switch (k)
    {
    case Kind::SpanBegin: return "spanBegin";
    case Kind::SpanEnd: return "spanEnd";
    case Kind::Log: return "log";
    case Kind::Counter: return "counter";
    case Kind::Gauge: return "gauge";
    case Kind::Histogram: return "histogram";
    }
    return "unknown";
}

void recordAt(std::chrono::steady_clock::time_point when, Kind kind,
              const char *name, const char *detail, double value,
              int level)
{
    Ring *r = threadRing();
    if (r == nullptr)
        return;
    Event e{};
    e.seq = g_seq.fetch_add(1, std::memory_order_relaxed) + 1;
    // The tracer is leaky, so the cached reference never dangles; the
    // hot path pays a guard check instead of a call.
    static const Tracer &tracer = Tracer::global();
    e.tsNs = tracer.sinceEpochNs(when);
    e.value = value;
    e.tid = r->tid;
    e.kind = static_cast<std::uint8_t>(kind);
    e.level = static_cast<std::uint8_t>(level);
    copyField(e.name, kNameBytes, name);
    copyField(e.detail, kDetailBytes, detail);
    copyField(e.job, kJobBytes, currentJobName());

    std::uint64_t raw[kEventWords];
    std::memcpy(raw, &e, sizeof(Event));
    const std::uint64_t h =
        r->head.load(std::memory_order_relaxed);
    std::atomic<std::uint64_t> *w =
        &r->words[(h % kRingCapacity) * kEventWords];
    for (std::size_t j = 0; j < kEventWords; ++j)
        w[j].store(raw[j], std::memory_order_relaxed);
    r->head.store(h + 1, std::memory_order_release);
}

void record(Kind kind, const char *name, const char *detail,
            double value, int level)
{
    recordAt(std::chrono::steady_clock::now(), kind, name, detail,
             value, level);
}

std::vector<Event> snapshotEvents()
{
    std::vector<Event> out(kMaxThreads * kRingCapacity);
    out.resize(collectInto(out.data(), out.size()));
    return out;
}

std::string snapshotJson(const char *trigger)
{
    const std::vector<Event> evs = snapshotEvents();
    std::string out;
    out.reserve(256 + evs.size() * 160);
    serializeEvents(evs.data(), evs.size(), trigger, 0,
                    appendToString, &out);
    return out;
}

void clear()
{
    g_clearSeq.store(g_seq.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
}

void setDumpPath(const std::string &path)
{
    if (path.empty() || path.size() >= sizeof(g_dumpPath))
    {
        g_dumpPathSet.store(false, std::memory_order_release);
        return;
    }
    g_dumpPathSet.store(false, std::memory_order_release);
    std::memcpy(g_dumpPath, path.c_str(), path.size() + 1);
    g_dumpPathSet.store(true, std::memory_order_release);
}

std::string dumpPath()
{
    if (!g_dumpPathSet.load(std::memory_order_acquire))
        return {};
    return g_dumpPath;
}

bool dumpToFile(const std::string &path, const char *trigger)
{
    const int fd = ::open(path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;
    const std::vector<Event> evs = snapshotEvents();
    const bool ok =
        dumpToFd(fd, evs.data(), evs.size(), trigger, 0);
    return ::close(fd) == 0 && ok;
}

bool dumpNow(const char *trigger)
{
    const std::string path = dumpPath();
    if (path.empty())
        return false;
    return dumpToFile(path, trigger);
}

void installSignalHandlers()
{
    // Make sure the epoch + this thread's ring exist before any
    // handler can fire (the handler itself allocates nothing).
    record(Kind::Log, "flight", "signal handlers installed", 0.0,
           /*level=*/0);
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = signalHandler;
    sa.sa_flags = SA_RESETHAND;
    sigemptyset(&sa.sa_mask);
    for (const int sig :
         {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL})
        ::sigaction(sig, &sa, nullptr);
}

} // namespace reqisc::obs::flight
