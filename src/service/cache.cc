#include "service/cache.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <mutex>
#include <tuple>
#include <unordered_map>

#include "obs/obs.hh"
#include "service/persist.hh"
#include "synth/instantiate.hh"

namespace reqisc::service
{

namespace
{

/** One cache kind's process-wide counters. */
struct TableMetrics
{
    obs::Counter *hits;
    obs::Counter *misses;
    obs::Counter *evictions;
};

/**
 * Process-wide cache metrics, registered lazily on first cache use.
 * These run beside the per-instance CacheCounters (which feed the
 * per-job --json report); the obs view aggregates over every cache
 * instance in the process, which is what a /metrics scrape wants.
 */
struct CacheMetrics
{
    TableMetrics synth;
    obs::Histogram *synthVerifySeconds;
    TableMetrics pulse;
};

CacheMetrics &cacheMetrics()
{
    static CacheMetrics m = [] {
        auto &r = obs::Registry::global();
        return CacheMetrics{
            {r.counter("reqisc_synth_cache_hits_total",
                       "SynthCache lookups served (verified)"),
             r.counter("reqisc_synth_cache_misses_total",
                       "SynthCache lookups not served (absent or "
                       "failed re-verification)"),
             r.counter("reqisc_synth_cache_evictions_total",
                       "SynthCache LRU evictions")},
            r.histogram("reqisc_synth_cache_verify_seconds",
                        "Rebuild-and-compare re-verification time "
                        "of a SynthCache hit candidate"),
            {r.counter("reqisc_pulse_cache_hits_total",
                       "PulseCache lookups served within tolerance"),
             r.counter("reqisc_pulse_cache_misses_total",
                       "PulseCache lookups not served"),
             r.counter("reqisc_pulse_cache_evictions_total",
                       "PulseCache LRU evictions")},
        };
    }();
    return m;
}

// The fingerprint quantization scale the synth keys depend on.
constexpr double kFingerprintScale = 1e12;

// Parse-time sanity caps (see persist.hh: corrupt counts must fail
// the load, not drive huge allocations).
constexpr std::uint64_t kMaxKeyWords = 4096;
constexpr std::uint64_t kMaxGates = 1ull << 16;

// Persistent-file identity: magic tags ("RQSC", "RQPC") and format
// versions (bump on any layout or key-scheme change; old files are
// then rejected wholesale). A pulse file is bound to one coupling and
// one cluster tolerance; anything else would serve solutions for the
// wrong hardware or cluster classes too aggressively.
const persist::Format kSynthFile = {"synth", 0x43535152u, 1,
                                    {kFingerprintScale}};

persist::Format
pulseFile(const uarch::Coupling &cpl, double tol)
{
    return {"pulse", 0x43505152u, 1, {cpl.a, cpl.b, cpl.c, tol}};
}

/** The key hash (it never reaches a file, so byte order is moot). */
std::uint64_t
hashWords(const std::int64_t *words, std::size_t n)
{
    return persist::fnv1aBytes(words, n * sizeof(*words));
}

/**
 * Synth key: a quantized fingerprint of the target after
 * canonicalizing its global phase (divide by the phase of the first
 * maximum-magnitude entry, a deterministic choice), then the search
 * options that determine the outcome. Identical inputs — and inputs
 * differing only by global phase — map to the same word sequence;
 * anything else is a different key, so a key collision never
 * silently changes results (hits are re-verified against the
 * requested target anyway).
 */
std::vector<std::int64_t>
synthKey(const qmath::Matrix &u, const synth::SynthesisOptions &opts)
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
    words.reserve(2 * n * n + 5);
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            const qmath::Complex v = u(i, j) / phase;
            words.push_back(
                std::llround(v.real() * kFingerprintScale));
            words.push_back(
                std::llround(v.imag() * kFingerprintScale));
        }
    }
    words.push_back(std::llround(opts.tol * 1e15));
    words.push_back(opts.maxBlocks);
    words.push_back(opts.restarts);
    words.push_back(static_cast<std::int64_t>(opts.seed));
    words.push_back(opts.descending ? 1 : 0);
    return words;
}

/** Coordinate-lexicographic order: ties and files never depend on
 *  container iteration order. */
bool
coordLess(const weyl::WeylCoord &a, const weyl::WeylCoord &b)
{
    return std::tie(a.x, a.y, a.z) < std::tie(b.x, b.y, b.z);
}

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

namespace detail
{

/** What an entry cost to solve and how it has been used since. */
struct Use
{
    double solveSeconds = 0.0;  //!< wall time of the initial solve
    std::int64_t uses = 0;      //!< lookups served, initial solve incl.
    std::uint64_t lastUse = 0;  //!< LRU stamp (not persisted)
};

/**
 * The one memo table behind both caches: each cache hashes its own
 * keys and picks its own entries. `Entry` carries a `Use use` and
 * names its counters in `Entry::metrics()`. Every member function
 * requires `mu` held.
 */
template <class Entry>
struct MemoTable
{
    std::size_t capacity = 0;
    std::mutex mu;
    std::unordered_multimap<std::uint64_t, Entry> entries;
    CacheCounters stats;
    std::uint64_t clock = 0;

    /** The first entry under hash `h` that `match` accepts. */
    template <class Match>
    Entry *find(std::uint64_t h, const Match &match)
    {
        auto [it, last] = entries.equal_range(h);
        for (; it != last; ++it)
            if (match(it->second))
                return &it->second;
        return nullptr;
    }

    void miss()
    {
        ++stats.misses;
        Entry::metrics().misses->inc();
    }

    /** A lookup served by `e` (nullptr: evicted since it was read). */
    void hit(Entry *e)
    {
        ++stats.hits;
        Entry::metrics().hits->inc();
        if (e) {
            ++e->use.uses;
            e->use.lastUse = ++clock;
        }
    }

    /** Admit `e`, then evict least recently used entries past capacity. */
    void insert(std::uint64_t h, Entry e)
    {
        e.use.lastUse = ++clock;
        entries.emplace(h, std::move(e));
        while (entries.size() > capacity) {
            auto victim = entries.begin();
            for (auto it = entries.begin(); it != entries.end(); ++it)
                if (it->second.use.lastUse < victim->second.use.lastUse)
                    victim = it;
            entries.erase(victim);
            ++stats.evictions;
            Entry::metrics().evictions->inc();
        }
    }
};

} // namespace detail

// ---- SynthCache --------------------------------------------------------

struct SynthCache::Entry
{
    std::vector<std::int64_t> key;
    synth::SynthesisResult result;  //!< local qubit ids 0..2
    detail::Use use;

    static const TableMetrics &metrics() { return cacheMetrics().synth; }
};

SynthCache::SynthCache(std::size_t capacity)
    : nshards_(capacity >= kStripeThreshold ? 16 : 1),
      shards_(std::make_unique<Table[]>(nshards_))
{
    // The global bound, split evenly over the stripes.
    for (std::size_t s = 0; s < nshards_; ++s)
        shards_[s].capacity = std::max<std::size_t>(capacity / nshards_, 1);
}

SynthCache::~SynthCache() = default;

SynthCache::Table &
SynthCache::shardOf(std::uint64_t h) const
{
    return shards_[h % nshards_];
}

bool
SynthCache::lookup(const qmath::Matrix &target,
                   const synth::SynthesisOptions &opts,
                   synth::SynthesisResult &out)
{
    const std::vector<std::int64_t> key = synthKey(target, opts);
    const std::uint64_t h = hashWords(key.data(), key.size());
    Table &t = shardOf(h);
    const auto same = [&key](const Entry &e) { return e.key == key; };

    // Copy the candidate out under the lock, verify outside it: the
    // rebuild-and-compare is the expensive part of a hit, and doing
    // it in the critical section would serialize warm-cache workers.
    synth::SynthesisResult candidate;
    {
        std::lock_guard<std::mutex> lk(t.mu);
        const Entry *e = t.find(h, same);
        if (!e) {
            t.miss();
            return false;
        }
        candidate = e->result;
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
    std::lock_guard<std::mutex> lk(t.mu);
    if (!verified) {
        t.miss();
        return false;
    }
    t.hit(t.find(h, same));
    out = std::move(candidate);
    return true;
}

void
SynthCache::store(const qmath::Matrix &target,
                  const synth::SynthesisOptions &opts,
                  const synth::SynthesisResult &result,
                  double solve_seconds)
{
    std::vector<std::int64_t> key = synthKey(target, opts);
    const std::uint64_t h = hashWords(key.data(), key.size());
    Table &t = shardOf(h);

    std::lock_guard<std::mutex> lk(t.mu);
    t.stats.solveSeconds += solve_seconds;
    if (t.find(h, [&key](const Entry &e) { return e.key == key; }))
        return;  // racing job stored the identical result first
    t.insert(h, {std::move(key), result, {solve_seconds, 1}});
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
        for (const auto &kv : shards_[s].entries) {
            ClassStats row;
            row.blockCount = kv.second.result.blockCount;
            row.uses = kv.second.use.uses;
            row.solveSeconds = kv.second.use.solveSeconds;
            out.push_back(row);
        }
    }
    return out;
}

bool
SynthCache::save(const std::string &path) const
{
    return persist::save(path, kSynthFile, [this](persist::Writer &w) {
        // Snapshot stripe by stripe, then order deterministically by
        // key so identical cache contents always produce identical
        // files.
        std::vector<Entry> snapshot;
        for (std::size_t s = 0; s < nshards_; ++s) {
            std::lock_guard<std::mutex> lk(shards_[s].mu);
            for (const auto &kv : shards_[s].entries)
                snapshot.push_back(kv.second);
        }
        std::sort(snapshot.begin(), snapshot.end(),
                  [](const Entry &a, const Entry &b) {
                      return a.key < b.key;
                  });
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
            w.f64(e.use.solveSeconds);
            w.i64(e.use.uses);
        }
        return snapshot.size();
    });
}

bool
SynthCache::load(const std::string &path)
{
    std::vector<Entry> parsed;
    const auto parse = [&parsed](persist::Reader &r) {
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
        // Cached gates carry local ids 0..2, which hit verification
        // indexes.
        e.result.gates.resize(ngates);
        for (circuit::Gate &g : e.result.gates)
            if (!r.gate(g) || !circuit::gateError(g, 3).empty())
                return false;
        if (!r.f64(e.use.solveSeconds) || !r.i64(e.use.uses))
            return false;
        parsed.push_back(std::move(e));
        return true;
    };
    const auto merge = [this, &parsed] {
        for (Entry &e : parsed) {
            const std::uint64_t h = hashWords(e.key.data(), e.key.size());
            Table &t = shardOf(h);
            std::lock_guard<std::mutex> lk(t.mu);
            if (t.find(h, [&e](const Entry &o) { return o.key == e.key; }))
                continue;  // live entry wins over the persisted one
            t.insert(h, std::move(e));
        }
    };
    return persist::load(path, kSynthFile, parse, merge);
}

// ---- PulseCache --------------------------------------------------------

struct PulseCache::Entry
{
    weyl::WeylCoord coord;
    uarch::PulseSolution sol;
    detail::Use use;

    static const TableMetrics &metrics() { return cacheMetrics().pulse; }
};

PulseCache::PulseCache(const uarch::Coupling &cpl, double tol,
                       std::size_t capacity)
    : cpl_(cpl), tol_(std::max(tol, 1e-12)),
      table_(std::make_unique<Table>())
{
    table_->capacity = capacity;
}

PulseCache::~PulseCache() = default;

std::uint64_t
PulseCache::cellOf(const weyl::WeylCoord &c) const
{
    const std::array<std::int64_t, 3> cell = {
        static_cast<std::int64_t>(std::floor(c.x / tol_)),
        static_cast<std::int64_t>(std::floor(c.y / tol_)),
        static_cast<std::int64_t>(std::floor(c.z / tol_)),
    };
    return hashWords(cell.data(), cell.size());
}

PulseCache::Entry *
PulseCache::nearest(const weyl::WeylCoord &coord)
{
    // Probe the coordinate's cell and all 26 neighbours so a match
    // within tolerance is found regardless of cell-boundary effects.
    Entry *best = nullptr;
    double best_dist = tol_;
    for (int dx = -1; dx <= 1; ++dx) {
        for (int dy = -1; dy <= 1; ++dy) {
            for (int dz = -1; dz <= 1; ++dz) {
                weyl::WeylCoord probe = coord;
                probe.x += dx * tol_;
                probe.y += dy * tol_;
                probe.z += dz * tol_;
                auto [it, last] =
                    table_->entries.equal_range(cellOf(probe));
                for (; it != last; ++it) {
                    Entry &e = it->second;
                    const double d = e.coord.distance(coord);
                    // Deterministic choice among candidates: nearest
                    // first, coordinate-lexicographic on ties (never
                    // container iteration order).
                    const bool better =
                        !best || d < best_dist - 1e-15 ||
                        (std::abs(d - best_dist) <= 1e-15 &&
                         coordLess(e.coord, best->coord));
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
    std::lock_guard<std::mutex> lk(table_->mu);
    Entry *best = nearest(coord);
    // Only verified solutions are served: converged, and the solver's
    // own re-extraction matched its target class.
    if (best && best->sol.converged && best->sol.coordError <= tol_) {
        table_->hit(best);
        sol = best->sol;
        return true;
    }
    table_->miss();
    return false;
}

void
PulseCache::store(const weyl::WeylCoord &coord,
                  const uarch::PulseSolution &sol,
                  double solve_seconds)
{
    std::lock_guard<std::mutex> lk(table_->mu);
    table_->stats.solveSeconds += solve_seconds;
    if (!sol.converged)
        return;  // never serve unverified work; re-solve instead
    if (nearest(coord))
        return;  // racing job stored this class first
    table_->insert(cellOf(coord), {coord, sol, {solve_seconds, 1}});
}

CacheCounters
PulseCache::stats() const
{
    std::lock_guard<std::mutex> lk(table_->mu);
    return table_->stats;
}

std::size_t
PulseCache::size() const
{
    std::lock_guard<std::mutex> lk(table_->mu);
    return table_->entries.size();
}

std::vector<ClassStats>
PulseCache::perClass() const
{
    std::lock_guard<std::mutex> lk(table_->mu);
    std::vector<ClassStats> out;
    out.reserve(table_->entries.size());
    for (const auto &kv : table_->entries) {
        ClassStats row;
        row.coord = kv.second.coord;
        row.uses = kv.second.use.uses;
        row.solveSeconds = kv.second.use.solveSeconds;
        out.push_back(row);
    }
    return out;
}

bool
PulseCache::save(const std::string &path) const
{
    return persist::save(
        path, pulseFile(cpl_, tol_), [this](persist::Writer &w) {
            std::vector<Entry> snapshot;
            {
                std::lock_guard<std::mutex> lk(table_->mu);
                snapshot.reserve(table_->entries.size());
                for (const auto &kv : table_->entries)
                    snapshot.push_back(kv.second);
            }
            std::sort(snapshot.begin(), snapshot.end(),
                      [](const Entry &a, const Entry &b) {
                          return coordLess(a.coord, b.coord);
                      });
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
                w.f64(e.use.solveSeconds);
                w.i64(e.use.uses);
            }
            return snapshot.size();
        });
}

bool
PulseCache::load(const std::string &path)
{
    std::vector<Entry> parsed;
    const auto parse = [&parsed](persist::Reader &r) {
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
        if (!r.f64(e.use.solveSeconds) || !r.i64(e.use.uses))
            return false;
        parsed.push_back(std::move(e));
        return true;
    };
    const auto merge = [this, &parsed] {
        std::lock_guard<std::mutex> lk(table_->mu);
        for (Entry &e : parsed) {
            if (!e.sol.converged)
                continue;  // store() never admits these; neither do we
            if (nearest(e.coord))
                continue;  // live entry wins over the persisted one
            const std::uint64_t cell = cellOf(e.coord);
            table_->insert(cell, std::move(e));
        }
    };
    return persist::load(path, pulseFile(cpl_, tol_), parse, merge);
}

} // namespace reqisc::service
