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
 * Both keep their entries in one private table type (cache.cc) and
 * add only their key, hit check and entry fields.
 *
 * Concurrency. Both caches are thread-safe. The SynthCache is on the
 * hot path of intra-job parallel block resynthesis (synth::BlockPool
 * workers hammer it concurrently), so its entries are striped across
 * 16 independently locked tables keyed by the fingerprint hash;
 * small caches (below kStripeThreshold) keep a single table, which
 * keeps exact global LRU semantics where capacity pressure actually
 * matters in tests. With multiple tables the capacity bound and LRU
 * eviction are per-table — an approximation of global LRU that never
 * affects results, only which entries survive pressure. The
 * PulseCache is one table (its critical sections are microseconds
 * against milliseconds-to-seconds solves). Both are instrumented
 * with compiler::CacheCounters plus per-class solve times.
 *
 * Persistence. Both caches save to one binary file each through the
 * persist.hh envelope, whose header carries everything a key's
 * meaning depends on (the fingerprint quantization scale; the
 * coupling and tolerance). load() is all-or-nothing: any mismatch or
 * corruption returns false and leaves the cache exactly as it was —
 * a clean cold start, never an error.
 */

#ifndef REQISC_SERVICE_CACHE_HH
#define REQISC_SERVICE_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compiler/metrics.hh"
#include "synth/synthesis.hh"
#include "uarch/calibration.hh"

namespace reqisc::service
{

using compiler::CacheCounters;

namespace detail
{
template <class Entry> struct MemoTable;  // cache.cc
}

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
    ~SynthCache() override;

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

    /** Write every entry to `path` atomically; false on I/O failure. */
    bool save(const std::string &path) const;

    /**
     * Merge entries from a file save() wrote; already-present keys
     * are kept. Any mismatch or corruption returns false with the
     * cache unchanged (a clean cold start).
     */
    bool load(const std::string &path);

  private:
    struct Entry;  //!< key, result (local qubit ids 0..2), use
    using Table = detail::MemoTable<Entry>;

    Table &shardOf(std::uint64_t h) const;

    std::size_t nshards_;
    std::unique_ptr<Table[]> shards_;
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
    explicit PulseCache(const uarch::Coupling &cpl,
                        double tol = circuit::kSU4ClassTol,
                        std::size_t capacity = 1 << 14);
    ~PulseCache() override;

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

    /** As SynthCache::save; the header carries coupling and tolerance. */
    bool save(const std::string &path) const;

    /** As SynthCache::load; coupling and tolerance must match bit for bit. */
    bool load(const std::string &path);

  private:
    struct Entry;  //!< coordinate, solution, use
    using Table = detail::MemoTable<Entry>;

    std::uint64_t cellOf(const weyl::WeylCoord &c) const;
    /**
     * The entry nearest `coord` within the tolerance, searched over
     * its cell and the 26 neighbouring cells (ties broken
     * coordinate-lexicographically), or nullptr. lookup, store and
     * load all find a class through this one scan. Requires the
     * table's lock held.
     */
    Entry *nearest(const weyl::WeylCoord &coord);

    uarch::Coupling cpl_;
    double tol_;
    /** Cell hash -> entries whose coordinate falls in that cell. */
    std::unique_ptr<Table> table_;
};

} // namespace reqisc::service

#endif // REQISC_SERVICE_CACHE_HH
