/**
 * @file
 * SU(4)-equivalence memoization caches for the compilation service.
 *
 * The two expensive kernels of the stack — the 3-qubit structure
 * search (synth::synthesizeBlock) and the genAshN multistart Newton
 * pulse solve (uarch::GateScheme::solveCoord) — are memoized here so
 * repeated classes across a batch of circuits are computed exactly
 * once:
 *
 *  - SynthCache (implements synth::BlockMemo) keys block-resynthesis
 *    results on a phase-canonicalized fingerprint of the target
 *    unitary plus the search options. A hit therefore returns
 *    exactly what the caller would have computed (the search is a
 *    deterministic function of both), and is additionally re-verified
 *    against the requested target before being returned — the bit-
 *    identical-across-thread-counts guarantee of the service rests on
 *    this.
 *
 *  - PulseCache (implements uarch::PulseMemo) keys pulse solutions on
 *    the Weyl coordinate of the SU(4) local-equivalence class, with a
 *    tolerance-aware bucketed lookup (coordinates are hashed into
 *    cells of the cluster tolerance and neighbouring cells are
 *    probed, so equality never depends on which side of a cell
 *    boundary a coordinate falls). Only converged, verified solutions
 *    are ever returned. A PulseCache is bound to one coupling.
 *
 * Concurrency. Both caches are thread-safe. The SynthCache is on the
 * hot path of intra-job parallel block resynthesis (synth::BlockPool
 * workers hammer it concurrently), so its entries are striped across
 * independently locked shards keyed by the fingerprint hash; small
 * caches (below kStripeThreshold) collapse to a single shard, which
 * keeps exact global LRU semantics where capacity pressure actually
 * matters in tests. With multiple shards the capacity bound and LRU
 * eviction are per-shard — an approximation of global LRU that never
 * affects results, only which entries survive pressure. The
 * PulseCache keeps one mutex (its critical sections are microseconds
 * against milliseconds-to-seconds solves). Both are instrumented
 * with compiler::CacheCounters plus per-class solve times.
 *
 * Persistence. Both caches serialize to a single binary file
 * (save/load) in the persist.hh format: a versioned header carrying
 * everything a key's meaning depends on (the fingerprint
 * quantization scale for synthesis; coupling and tolerance for
 * pulses), then the entries, then a whole-file checksum. load() is
 * all-or-nothing: any mismatch (magic, version, header parameters)
 * or corruption (bad checksum, truncation, implausible counts)
 * returns false and leaves the cache exactly as it was — a clean
 * cold start, never an error. Saves go through an atomic rename so
 * readers never observe a partial file.
 */

#ifndef REQISC_SERVICE_CACHE_HH
#define REQISC_SERVICE_CACHE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "compiler/metrics.hh"
#include "synth/synthesis.hh"
#include "uarch/calibration.hh"

namespace reqisc::service
{

using compiler::CacheCounters;

/** Per-class instrumentation row (see `--stats` in reqisc-compile). */
struct ClassStats
{
    weyl::WeylCoord coord;     //!< class representative (pulse cache)
    int blockCount = 0;        //!< synthesized SU(4)s (synth cache)
    std::int64_t uses = 0;     //!< lookups served (initial solve incl.)
    double solveSeconds = 0.0; //!< wall time of the initial solve
};

/** Memoization cache for 3-qubit block resynthesis. */
class SynthCache final : public synth::BlockMemo
{
  public:
    /** Capacities at or above this are striped across shards. */
    static constexpr std::size_t kStripeThreshold = 1024;

    explicit SynthCache(std::size_t capacity = 1 << 14);

    bool lookup(const qmath::Matrix &target,
                const synth::SynthesisOptions &opts,
                synth::SynthesisResult &out) override;

    void store(const qmath::Matrix &target,
               const synth::SynthesisOptions &opts,
               const synth::SynthesisResult &result,
               double solve_seconds) override;

    CacheCounters stats() const;
    std::size_t size() const;

    /** Lock stripes backing the cache (1 below kStripeThreshold). */
    int shardCount() const { return static_cast<int>(nshards_); }

    /** Snapshot of per-entry instrumentation (unordered). */
    std::vector<ClassStats> perClass() const;

    /**
     * Serialize every entry to `path` via atomic rename.
     * @return false on I/O failure (target left untouched).
     */
    bool save(const std::string &path) const;

    /**
     * Merge entries from a file previously written by save(). Any
     * mismatch or corruption returns false without modifying the
     * cache (clean cold start). Already-present keys are kept.
     */
    bool load(const std::string &path);

  private:
    struct Entry
    {
        std::vector<std::int64_t> key;
        synth::SynthesisResult result;  //!< local qubit ids 0..2
        double solveSeconds = 0.0;
        std::int64_t uses = 0;
        std::uint64_t lastUse = 0;
    };

    struct Shard
    {
        mutable std::mutex mu;
        std::unordered_multimap<std::uint64_t, Entry> entries;
        CacheCounters stats;
    };

    Shard &shardOf(std::uint64_t h) const
    {
        return shards_[h % nshards_];
    }

    void evictIfNeeded(Shard &s);  //!< requires s.mu held

    std::size_t capacity_;       //!< global bound (sum over shards)
    std::size_t nshards_;
    std::size_t shardCapacity_;
    std::unique_ptr<Shard[]> shards_;
    std::atomic<std::uint64_t> clock_{0};
};

/** Memoization cache for per-SU(4)-class pulse solutions. */
class PulseCache final : public uarch::PulseMemo
{
  public:
    /**
     * @param cpl the coupling all cached solutions belong to (a
     *        PulseCache must never be shared across couplings)
     * @param tol Weyl-coordinate distance within which two classes
     *        are considered equal (bucket width of the lookup)
     * @param capacity LRU bound on the number of classes kept
     */
    explicit PulseCache(const uarch::Coupling &cpl, double tol = 1e-6,
                        std::size_t capacity = 1 << 14);

    bool lookup(const weyl::WeylCoord &coord,
                uarch::PulseSolution &sol) override;

    void store(const weyl::WeylCoord &coord,
               const uarch::PulseSolution &sol,
               double solve_seconds) override;

    const uarch::Coupling &coupling() const { return cpl_; }
    double tolerance() const { return tol_; }

    CacheCounters stats() const;
    std::size_t size() const;

    /** Snapshot of per-class instrumentation (unordered). */
    std::vector<ClassStats> perClass() const;

    /**
     * Serialize every entry to `path` via atomic rename. The header
     * carries the bound coupling and tolerance.
     * @return false on I/O failure (target left untouched).
     */
    bool save(const std::string &path) const;

    /**
     * Merge entries from a file previously written by save(). The
     * file's coupling and tolerance must match this cache's exactly
     * (bit-for-bit); any mismatch or corruption returns false
     * without modifying the cache (clean cold start).
     */
    bool load(const std::string &path);

  private:
    struct Entry
    {
        weyl::WeylCoord coord;
        uarch::PulseSolution sol;
        double solveSeconds = 0.0;
        std::int64_t uses = 0;
        std::uint64_t lastUse = 0;
    };

    std::uint64_t cellOf(const weyl::WeylCoord &c) const;
    /**
     * The entry nearest `coord` within the tolerance, searched over
     * its cell and the 26 neighbouring cells (ties broken
     * coordinate-lexicographically), or nullptr. lookup, store and
     * load all find a class through this one scan. Requires mu_ held.
     */
    Entry *nearest(const weyl::WeylCoord &coord);
    void evictIfNeeded();  //!< requires mu_ held

    uarch::Coupling cpl_;
    double tol_;
    std::size_t capacity_;
    mutable std::mutex mu_;
    /** Cell hash -> entries whose coordinate falls in that cell. */
    std::unordered_multimap<std::uint64_t, Entry> entries_;
    CacheCounters stats_;
    std::uint64_t clock_ = 0;
};

} // namespace reqisc::service

#endif // REQISC_SERVICE_CACHE_HH
