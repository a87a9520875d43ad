#include "service/cache.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <tuple>

#include "obs/obs.hh"
#include "service/persist.hh"
#include "synth/instantiate.hh"

namespace reqisc::service
{

namespace
{

/**
 * Process-wide cache metrics, registered lazily on first cache use.
 * These run beside the per-instance CacheCounters (which feed the
 * per-job --json report); the obs view aggregates over every cache
 * instance in the process, which is what a /metrics scrape wants.
 */
struct CacheMetrics
{
    obs::Counter *synthHits;
    obs::Counter *synthMisses;
    obs::Counter *synthEvictions;
    obs::Histogram *synthVerifySeconds;
    obs::Counter *pulseHits;
    obs::Counter *pulseMisses;
    obs::Counter *pulseEvictions;
};

CacheMetrics &cacheMetrics()
{
    static CacheMetrics m = [] {
        auto &r = obs::Registry::global();
        return CacheMetrics{
            r.counter("reqisc_synth_cache_hits_total",
                      "SynthCache lookups served (verified)"),
            r.counter("reqisc_synth_cache_misses_total",
                      "SynthCache lookups not served (absent or "
                      "failed re-verification)"),
            r.counter("reqisc_synth_cache_evictions_total",
                      "SynthCache LRU evictions"),
            r.histogram("reqisc_synth_cache_verify_seconds",
                        "Rebuild-and-compare re-verification time "
                        "of a SynthCache hit candidate"),
            r.counter("reqisc_pulse_cache_hits_total",
                      "PulseCache lookups served within tolerance"),
            r.counter("reqisc_pulse_cache_misses_total",
                      "PulseCache lookups not served"),
            r.counter("reqisc_pulse_cache_evictions_total",
                      "PulseCache LRU evictions"),
        };
    }();
    return m;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// Persistent-file identity: magic tags, format versions (bump on any
// layout or key-scheme change; old files are then rejected wholesale)
// and the fingerprint quantization scale the synth keys depend on.
constexpr std::uint32_t kSynthMagic = 0x43535152u;   // "RQSC"
constexpr std::uint32_t kPulseMagic = 0x43505152u;   // "RQPC"
constexpr std::uint32_t kSynthFormatVersion = 1;
constexpr std::uint32_t kPulseFormatVersion = 1;
constexpr double kFingerprintScale = 1e12;

// Parse-time sanity caps (see persist.hh: corrupt counts must fail
// the load, not drive huge allocations).
constexpr std::uint64_t kMaxEntries = 1ull << 22;
constexpr std::uint64_t kMaxKeyWords = 4096;
constexpr std::uint64_t kMaxGates = 1ull << 16;

std::uint64_t
fnv1a(const std::vector<std::int64_t> &words)
{
    std::uint64_t h = kFnvOffset;
    for (std::int64_t w : words) {
        auto u = static_cast<std::uint64_t>(w);
        for (int i = 0; i < 8; ++i) {
            h ^= (u >> (8 * i)) & 0xffu;
            h *= kFnvPrime;
        }
    }
    return h;
}

/**
 * Quantized fingerprint of a unitary after canonicalizing its global
 * phase (divide by the phase of the first maximum-magnitude entry, a
 * deterministic choice). Identical inputs — and inputs differing only
 * by global phase — map to the same word sequence; anything else is
 * a different key, so a key collision never silently changes results
 * (hits are re-verified against the requested target anyway).
 */
std::vector<std::int64_t>
fingerprint(const qmath::Matrix &u)
{
    const int n = u.rows();
    // First strictly-maximal-magnitude entry, scanned row-major.
    double best = -1.0;
    qmath::Complex phase{1.0, 0.0};
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            const double m = std::abs(u(i, j));
            if (m > best + 1e-12) {
                best = m;
                phase = u(i, j) / m;
            }
        }
    }
    std::vector<std::int64_t> words;
    words.reserve(2 * n * n);
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            const qmath::Complex v = u(i, j) / phase;
            words.push_back(
                std::llround(v.real() * kFingerprintScale));
            words.push_back(
                std::llround(v.imag() * kFingerprintScale));
        }
    }
    return words;
}

/** Append the search options that determine the outcome. */
void
appendOptions(std::vector<std::int64_t> &words,
              const synth::SynthesisOptions &opts)
{
    words.push_back(std::llround(opts.tol * 1e15));
    words.push_back(opts.maxBlocks);
    words.push_back(opts.restarts);
    words.push_back(static_cast<std::int64_t>(opts.seed));
    words.push_back(opts.descending ? 1 : 0);
}

/** Exact (bit-pattern) double equality, the persistence contract. */
bool
sameBits(double a, double b)
{
    std::uint64_t ua, ub;
    std::memcpy(&ua, &a, sizeof(ua));
    std::memcpy(&ub, &b, sizeof(ub));
    return ua == ub;
}

} // namespace

// ---- SynthCache --------------------------------------------------------

SynthCache::SynthCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      nshards_(capacity_ >= kStripeThreshold ? 16 : 1),
      shardCapacity_(std::max<std::size_t>(capacity_ / nshards_, 1)),
      shards_(std::make_unique<Shard[]>(nshards_))
{
}

bool
SynthCache::lookup(const qmath::Matrix &target,
                   const synth::SynthesisOptions &opts,
                   synth::SynthesisResult &out)
{
    std::vector<std::int64_t> key = fingerprint(target);
    appendOptions(key, opts);
    const std::uint64_t h = fnv1a(key);
    Shard &shard = shardOf(h);

    // Copy the candidate out under the lock, verify outside it: the
    // rebuild-and-compare is the expensive part of a hit, and doing
    // it in the critical section would serialize warm-cache workers.
    synth::SynthesisResult candidate;
    bool found = false;
    {
        std::lock_guard<std::mutex> lk(shard.mu);
        auto [it, last] = shard.entries.equal_range(h);
        for (; it != last; ++it) {
            if (it->second.key == key) {
                candidate = it->second.result;
                found = true;
                break;
            }
        }
        if (!found) {
            ++shard.stats.misses;
            cacheMetrics().synthMisses->inc();
            return false;
        }
    }
    // Re-verify successful entries against the requested target; a
    // failed verification is treated as a miss (the caller
    // recomputes), never as a wrong answer. Failure entries carry no
    // gates to verify — they are trusted on the exact key, which
    // reproduces the deterministic search outcome.
    bool verified = true;
    if (candidate.success) {
        const auto v0 = std::chrono::steady_clock::now();
        // Cached gates carry local ids 0..2.
        verified = qmath::traceInfidelity(
                       synth::blockUnitary(candidate.gates, {0, 1, 2}),
                       target) <= opts.tol;
        cacheMetrics().synthVerifySeconds->observe(
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - v0)
                .count());
    }
    std::lock_guard<std::mutex> lk(shard.mu);
    if (!verified) {
        ++shard.stats.misses;
        cacheMetrics().synthMisses->inc();
        return false;
    }
    ++shard.stats.hits;
    cacheMetrics().synthHits->inc();
    auto [it, last] = shard.entries.equal_range(h);
    for (; it != last; ++it) {
        if (it->second.key == key) {  // may have been evicted since
            ++it->second.uses;
            it->second.lastUse = ++clock_;
            break;
        }
    }
    out = std::move(candidate);
    return true;
}

void
SynthCache::store(const qmath::Matrix &target,
                  const synth::SynthesisOptions &opts,
                  const synth::SynthesisResult &result,
                  double solve_seconds)
{
    std::vector<std::int64_t> key = fingerprint(target);
    appendOptions(key, opts);
    const std::uint64_t h = fnv1a(key);
    Shard &shard = shardOf(h);

    std::lock_guard<std::mutex> lk(shard.mu);
    shard.stats.solveSeconds += solve_seconds;
    auto [it, last] = shard.entries.equal_range(h);
    for (; it != last; ++it)
        if (it->second.key == key)
            return;  // racing job stored the identical result first
    Entry e;
    e.key = std::move(key);
    e.result = result;
    e.solveSeconds = solve_seconds;
    e.uses = 1;
    e.lastUse = ++clock_;
    shard.entries.emplace(h, std::move(e));
    evictIfNeeded(shard);
}

void
SynthCache::evictIfNeeded(Shard &shard)
{
    while (shard.entries.size() > shardCapacity_) {
        auto victim = shard.entries.begin();
        for (auto it = shard.entries.begin();
             it != shard.entries.end(); ++it)
            if (it->second.lastUse < victim->second.lastUse)
                victim = it;
        shard.entries.erase(victim);
        ++shard.stats.evictions;
        cacheMetrics().synthEvictions->inc();
    }
}

CacheCounters
SynthCache::stats() const
{
    CacheCounters total;
    for (std::size_t s = 0; s < nshards_; ++s) {
        std::lock_guard<std::mutex> lk(shards_[s].mu);
        total.hits += shards_[s].stats.hits;
        total.misses += shards_[s].stats.misses;
        total.evictions += shards_[s].stats.evictions;
        total.solveSeconds += shards_[s].stats.solveSeconds;
    }
    return total;
}

std::size_t
SynthCache::size() const
{
    std::size_t n = 0;
    for (std::size_t s = 0; s < nshards_; ++s) {
        std::lock_guard<std::mutex> lk(shards_[s].mu);
        n += shards_[s].entries.size();
    }
    return n;
}

std::vector<ClassStats>
SynthCache::perClass() const
{
    std::vector<ClassStats> out;
    for (std::size_t s = 0; s < nshards_; ++s) {
        std::lock_guard<std::mutex> lk(shards_[s].mu);
        for (const auto &[h, e] : shards_[s].entries) {
            (void)h;
            ClassStats row;
            row.blockCount = e.result.blockCount;
            row.uses = e.uses;
            row.solveSeconds = e.solveSeconds;
            out.push_back(row);
        }
    }
    return out;
}

bool
SynthCache::save(const std::string &path) const
{
    obs::Span span("persist:synth-save");
    // Snapshot shard by shard, then order deterministically by key so
    // identical cache contents always produce identical files.
    std::vector<Entry> snapshot;
    for (std::size_t s = 0; s < nshards_; ++s) {
        std::lock_guard<std::mutex> lk(shards_[s].mu);
        for (const auto &[h, e] : shards_[s].entries) {
            (void)h;
            snapshot.push_back(e);
        }
    }
    std::sort(snapshot.begin(), snapshot.end(),
              [](const Entry &a, const Entry &b) {
                  return a.key < b.key;
              });

    persist::Writer w;
    w.u32(kSynthMagic);
    w.u32(kSynthFormatVersion);
    w.f64(kFingerprintScale);
    w.u64(snapshot.size());
    for (const Entry &e : snapshot) {
        w.u64(e.key.size());
        for (std::int64_t word : e.key)
            w.i64(word);
        w.u32(e.result.success ? 1u : 0u);
        w.f64(e.result.infidelity);
        w.u32(static_cast<std::uint32_t>(e.result.blockCount));
        w.u64(e.result.gates.size());
        for (const circuit::Gate &g : e.result.gates)
            w.gate(g);
        w.f64(e.solveSeconds);
        w.i64(e.uses);
    }
    const bool ok = w.commit(path);
    obs::log(ok ? obs::LogLevel::Info : obs::LogLevel::Warn,
             "persist",
             ok ? "synth cache saved" : "synth cache save failed",
             {{"path", path},
              {"entries", std::to_string(snapshot.size())}});
    return ok;
}

bool
SynthCache::load(const std::string &path)
{
    obs::Span span("persist:synth-load");
    std::string data;
    if (!persist::Reader::slurp(path, data)) {
        obs::log(obs::LogLevel::Debug, "persist",
                 "synth cache file absent; cold start",
                 {{"path", path}});
        return false;
    }
    persist::Reader r(std::move(data));
    if (!r.verifyChecksum()) {
        obs::log(obs::LogLevel::Warn, "persist",
                 "synth cache rejected: bad checksum; cold start",
                 {{"path", path}});
        return false;
    }
    std::uint32_t magic, version;
    if (!r.u32(magic) || magic != kSynthMagic ||
        !r.u32(version) || version != kSynthFormatVersion) {
        obs::log(obs::LogLevel::Warn, "persist",
                 "synth cache rejected: format mismatch; cold "
                 "start",
                 {{"path", path}});
        return false;
    }
    double scale;
    if (!r.f64(scale) || !sameBits(scale, kFingerprintScale))
        return false;

    // All-or-nothing: parse everything before touching the shards.
    std::uint64_t count;
    if (!r.u64(count) || count > kMaxEntries)
        return false;
    std::vector<Entry> parsed;
    parsed.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        Entry e;
        std::uint64_t nwords;
        if (!r.u64(nwords) || nwords > kMaxKeyWords)
            return false;
        e.key.resize(nwords);
        for (std::uint64_t k = 0; k < nwords; ++k)
            if (!r.i64(e.key[k]))
                return false;
        std::uint32_t success, block_count;
        if (!r.u32(success) || success > 1)
            return false;
        e.result.success = success == 1;
        if (!r.f64(e.result.infidelity))
            return false;
        if (!r.u32(block_count))
            return false;
        e.result.blockCount = static_cast<int>(block_count);
        std::uint64_t ngates;
        if (!r.u64(ngates) || ngates > kMaxGates)
            return false;
        e.result.gates.resize(ngates);
        for (std::uint64_t g = 0; g < ngates; ++g)
            if (!r.gate(e.result.gates[g]))
                return false;
        if (!r.f64(e.solveSeconds) || !r.i64(e.uses))
            return false;
        parsed.push_back(std::move(e));
    }
    if (r.remaining() != 0)
        return false;

    for (Entry &e : parsed) {
        const std::uint64_t h = fnv1a(e.key);
        Shard &shard = shardOf(h);
        std::lock_guard<std::mutex> lk(shard.mu);
        auto [it, last] = shard.entries.equal_range(h);
        bool dup = false;
        for (; it != last; ++it) {
            if (it->second.key == e.key) {
                dup = true;
                break;
            }
        }
        if (dup)
            continue;  // live entry wins over the persisted one
        e.lastUse = ++clock_;
        shard.entries.emplace(h, std::move(e));
        evictIfNeeded(shard);
    }
    obs::log(obs::LogLevel::Info, "persist", "synth cache loaded",
             {{"path", path},
              {"entries", std::to_string(parsed.size())}});
    return true;
}

// ---- PulseCache --------------------------------------------------------

PulseCache::PulseCache(const uarch::Coupling &cpl, double tol,
                       std::size_t capacity)
    : cpl_(cpl), tol_(std::max(tol, 1e-12)), capacity_(capacity)
{
}

std::uint64_t
PulseCache::cellOf(const weyl::WeylCoord &c) const
{
    const std::vector<std::int64_t> cell = {
        static_cast<std::int64_t>(std::floor(c.x / tol_)),
        static_cast<std::int64_t>(std::floor(c.y / tol_)),
        static_cast<std::int64_t>(std::floor(c.z / tol_)),
    };
    return fnv1a(cell);
}

PulseCache::Entry *
PulseCache::nearest(const weyl::WeylCoord &coord)
{
    // Probe the coordinate's cell and all 26 neighbours so a match
    // within tolerance is found regardless of cell-boundary effects.
    auto lexLess = [](const weyl::WeylCoord &a,
                      const weyl::WeylCoord &b) {
        return std::tie(a.x, a.y, a.z) < std::tie(b.x, b.y, b.z);
    };
    Entry *best = nullptr;
    double best_dist = tol_;
    for (int dx = -1; dx <= 1; ++dx) {
        for (int dy = -1; dy <= 1; ++dy) {
            for (int dz = -1; dz <= 1; ++dz) {
                weyl::WeylCoord probe = coord;
                probe.x += dx * tol_;
                probe.y += dy * tol_;
                probe.z += dz * tol_;
                auto [it, last] = entries_.equal_range(cellOf(probe));
                for (; it != last; ++it) {
                    Entry &e = it->second;
                    const double d = e.coord.distance(coord);
                    // Deterministic choice among candidates: nearest
                    // first, coordinate-lexicographic on ties (never
                    // container iteration order).
                    const bool better =
                        !best || d < best_dist - 1e-15 ||
                        (std::abs(d - best_dist) <= 1e-15 &&
                         lexLess(e.coord, best->coord));
                    if (d <= tol_ && better) {
                        best = &e;
                        best_dist = d;
                    }
                }
            }
        }
    }
    return best;
}

bool
PulseCache::lookup(const weyl::WeylCoord &coord,
                   uarch::PulseSolution &sol)
{
    std::lock_guard<std::mutex> lk(mu_);
    Entry *best = nearest(coord);
    // Only verified solutions are served: converged, and the solver's
    // own re-extraction matched its target class.
    if (best && best->sol.converged && best->sol.coordError <= tol_) {
        ++best->uses;
        best->lastUse = ++clock_;
        ++stats_.hits;
        cacheMetrics().pulseHits->inc();
        sol = best->sol;
        return true;
    }
    ++stats_.misses;
    cacheMetrics().pulseMisses->inc();
    return false;
}

void
PulseCache::store(const weyl::WeylCoord &coord,
                  const uarch::PulseSolution &sol,
                  double solve_seconds)
{
    std::lock_guard<std::mutex> lk(mu_);
    stats_.solveSeconds += solve_seconds;
    if (!sol.converged)
        return;  // never serve unverified work; re-solve instead
    if (nearest(coord))
        return;  // racing job stored this class first
    Entry e;
    e.coord = coord;
    e.sol = sol;
    e.solveSeconds = solve_seconds;
    e.uses = 1;
    e.lastUse = ++clock_;
    entries_.emplace(cellOf(coord), std::move(e));
    evictIfNeeded();
}

void
PulseCache::evictIfNeeded()
{
    while (entries_.size() > capacity_) {
        auto victim = entries_.begin();
        for (auto it = entries_.begin(); it != entries_.end(); ++it)
            if (it->second.lastUse < victim->second.lastUse)
                victim = it;
        entries_.erase(victim);
        ++stats_.evictions;
        cacheMetrics().pulseEvictions->inc();
    }
}

CacheCounters
PulseCache::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

std::size_t
PulseCache::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return entries_.size();
}

std::vector<ClassStats>
PulseCache::perClass() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<ClassStats> out;
    out.reserve(entries_.size());
    for (const auto &[h, e] : entries_) {
        (void)h;
        ClassStats s;
        s.coord = e.coord;
        s.uses = e.uses;
        s.solveSeconds = e.solveSeconds;
        out.push_back(s);
    }
    return out;
}

namespace
{

void
writeCoord(persist::Writer &w, const weyl::WeylCoord &c)
{
    w.f64(c.x);
    w.f64(c.y);
    w.f64(c.z);
}

bool
readCoord(persist::Reader &r, weyl::WeylCoord &c)
{
    return r.f64(c.x) && r.f64(c.y) && r.f64(c.z);
}

} // namespace

bool
PulseCache::save(const std::string &path) const
{
    obs::Span span("persist:pulse-save");
    std::vector<Entry> snapshot;
    {
        std::lock_guard<std::mutex> lk(mu_);
        snapshot.reserve(entries_.size());
        for (const auto &[h, e] : entries_) {
            (void)h;
            snapshot.push_back(e);
        }
    }
    std::sort(snapshot.begin(), snapshot.end(),
              [](const Entry &a, const Entry &b) {
                  return std::tie(a.coord.x, a.coord.y, a.coord.z) <
                         std::tie(b.coord.x, b.coord.y, b.coord.z);
              });

    persist::Writer w;
    w.u32(kPulseMagic);
    w.u32(kPulseFormatVersion);
    w.f64(cpl_.a);
    w.f64(cpl_.b);
    w.f64(cpl_.c);
    w.f64(tol_);
    w.u64(snapshot.size());
    for (const Entry &e : snapshot) {
        writeCoord(w, e.coord);
        const uarch::PulseSolution &s = e.sol;
        w.u32(s.converged ? 1u : 0u);
        w.u32(static_cast<std::uint32_t>(s.scheme));
        w.f64(s.tau);
        w.f64(s.omega1);
        w.f64(s.omega2);
        w.f64(s.delta);
        writeCoord(w, s.target);
        writeCoord(w, s.effective);
        w.f64(s.coordError);
        w.u32(s.hasCorrections ? 1u : 0u);
        w.matrix(s.a1);
        w.matrix(s.a2);
        w.matrix(s.b1);
        w.matrix(s.b2);
        w.f64(e.solveSeconds);
        w.i64(e.uses);
    }
    const bool ok = w.commit(path);
    obs::log(ok ? obs::LogLevel::Info : obs::LogLevel::Warn,
             "persist",
             ok ? "pulse cache saved" : "pulse cache save failed",
             {{"path", path},
              {"entries", std::to_string(snapshot.size())}});
    return ok;
}

bool
PulseCache::load(const std::string &path)
{
    obs::Span span("persist:pulse-load");
    std::string data;
    if (!persist::Reader::slurp(path, data)) {
        obs::log(obs::LogLevel::Debug, "persist",
                 "pulse cache file absent; cold start",
                 {{"path", path}});
        return false;
    }
    persist::Reader r(std::move(data));
    if (!r.verifyChecksum()) {
        obs::log(obs::LogLevel::Warn, "persist",
                 "pulse cache rejected: bad checksum; cold start",
                 {{"path", path}});
        return false;
    }
    std::uint32_t magic, version;
    if (!r.u32(magic) || magic != kPulseMagic ||
        !r.u32(version) || version != kPulseFormatVersion) {
        obs::log(obs::LogLevel::Warn, "persist",
                 "pulse cache rejected: format mismatch; cold "
                 "start",
                 {{"path", path}});
        return false;
    }
    double a, b, c, tol;
    if (!r.f64(a) || !r.f64(b) || !r.f64(c) || !r.f64(tol))
        return false;
    // A pulse file is bound to one coupling and one cluster
    // tolerance; anything else would serve solutions for the wrong
    // hardware or cluster classes too aggressively.
    if (!sameBits(a, cpl_.a) || !sameBits(b, cpl_.b) ||
        !sameBits(c, cpl_.c) || !sameBits(tol, tol_))
        return false;

    std::uint64_t count;
    if (!r.u64(count) || count > kMaxEntries)
        return false;
    std::vector<Entry> parsed;
    parsed.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        Entry e;
        if (!readCoord(r, e.coord))
            return false;
        uarch::PulseSolution &s = e.sol;
        std::uint32_t converged, scheme, has_corr;
        if (!r.u32(converged) || converged > 1)
            return false;
        s.converged = converged == 1;
        if (!r.u32(scheme) ||
            scheme > static_cast<std::uint32_t>(
                         uarch::SubScheme::EAMinus))
            return false;
        s.scheme = static_cast<uarch::SubScheme>(scheme);
        if (!r.f64(s.tau) || !r.f64(s.omega1) || !r.f64(s.omega2) ||
            !r.f64(s.delta))
            return false;
        if (!readCoord(r, s.target) || !readCoord(r, s.effective))
            return false;
        if (!r.f64(s.coordError))
            return false;
        if (!r.u32(has_corr) || has_corr > 1)
            return false;
        s.hasCorrections = has_corr == 1;
        if (!r.matrix(s.a1) || !r.matrix(s.a2) || !r.matrix(s.b1) ||
            !r.matrix(s.b2))
            return false;
        if (!r.f64(e.solveSeconds) || !r.i64(e.uses))
            return false;
        parsed.push_back(std::move(e));
    }
    if (r.remaining() != 0)
        return false;

    std::lock_guard<std::mutex> lk(mu_);
    for (Entry &e : parsed) {
        if (!e.sol.converged)
            continue;  // store() never admits these; neither do we
        if (nearest(e.coord))
            continue;  // live entry wins over the persisted one
        e.lastUse = ++clock_;
        entries_.emplace(cellOf(e.coord), std::move(e));
        evictIfNeeded();
    }
    obs::log(obs::LogLevel::Info, "persist", "pulse cache loaded",
             {{"path", path},
              {"entries", std::to_string(parsed.size())}});
    return true;
}

} // namespace reqisc::service
