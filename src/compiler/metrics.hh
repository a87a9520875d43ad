/**
 * @file
 * Evaluation metrics (Section 6.1.1): #2Q, Depth2Q, pulse duration
 * and distinct-SU(4) calibration count.
 *
 * Durations are expressed in 1/g units (g = canonical coupling
 * strength), so the conventional CNOT pulse is pi/sqrt(2) ~ 2.221.
 * Two duration models are provided: the conventional fixed-pulse
 * model for CNOT-ISA baselines and the genAshN optimal-duration
 * model for the SU(4) ISA; both are plugged into
 * Circuit::duration(model) as per-gate cost functions.
 */

#ifndef REQISC_COMPILER_METRICS_HH
#define REQISC_COMPILER_METRICS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "circuit/circuit.hh"
#include "isa/program.hh"
#include "uarch/coupling.hh"

namespace reqisc::compiler
{

/**
 * Memoization-cache counters (filled by the service layer when a
 * compile ran against shared caches; all-zero for standalone runs).
 *
 * `hits + misses` per compile is deterministic (the number of memo
 * consultations the pipeline makes), but the hit/miss split depends
 * on what other jobs populated the cache first — consumers comparing
 * runs for determinism should compare the compiled artifacts, not
 * the split.
 */
struct CacheCounters
{
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t evictions = 0;
    double solveSeconds = 0.0;  //!< time spent on the misses

    double hitRate() const
    {
        const std::int64_t total = hits + misses;
        return total ? static_cast<double>(hits) / total : 0.0;
    }
};

/**
 * Backend-aware evaluation report for jobs compiled against a
 * concrete chip (src/backend): the compiled circuit is routed onto
 * the chip (`used` + swap counts, set by the route pass) and scored
 * under the per-edge reconfigured gate set vs the best uniform
 * (fixed-ISA) one (fidelities, filled by the reconfigure pass —
 * zero in custom pipelines that route without reconfiguring).
 */
struct BackendStats
{
    bool used = false;  //!< a route pass ran against a chip
    int routedSwaps = 0;       //!< SWAPs SABRE inserted
    int routedSwapsAbsorbed = 0;  //!< SWAPs mirrored away
    /** backend::estimateFidelity under the per-edge table. */
    double fidelityReconfigured = 0.0;
    /** Same circuit under the best uniform gate set. */
    double fidelityUniform = 0.0;
};

/**
 * Per-pass instrumentation record, appended by the PassManager for
 * every pass it runs (src/compiler/pass_manager.hh). Wall time plus
 * the artifact deltas the paper's stage analysis cares about: gate
 * and #2Q counts of the active artifact (the routed circuit once a
 * routing pass produced one, the logical circuit before) immediately
 * before and after the pass, and the scheduled makespan known after
 * the pass (0 until a schedule pass has run).
 *
 * `seconds` is the only nondeterministic field; everything else is a
 * pure function of (input, options, pass list).
 */
struct PassTrace
{
    std::string pass;        //!< registry token ("fuse", "schedule", ...)
    double seconds = 0.0;    //!< wall time spent inside the pass
    int gatesBefore = 0;
    int gatesAfter = 0;
    int count2QBefore = 0;
    int count2QAfter = 0;
    double makespanAfter = 0.0;  //!< Metrics::schedule.makespan so far
    /**
     * Free-form pass annotation (CompilationUnit::passNote), e.g.
     * "workers=4" from hier-synth when block resynthesis ran on a
     * task pool. Purely informational: never part of the determinism
     * contract's compared artifacts.
     */
    std::string note;
};

/** Circuit-level evaluation metrics. */
struct Metrics
{
    int count2Q = 0;
    int depth2Q = 0;
    double duration = 0.0;   //!< critical-path pulse time (1/g units)
    int distinctSU4 = 0;     //!< calibration-overhead proxy
    /**
     * Calibration classes the pulse solver could not reach (set by
     * the calibrate pass). Like the cache hit/miss split, this can
     * follow the service's job schedule when two distinct classes
     * fall within the pulse cache's cluster tolerance.
     */
    int unsolvedClasses = 0;
    CacheCounters synthCache;  //!< block-resynthesis memo activity
    CacheCounters pulseCache;  //!< pulse-solve memo activity
    isa::ScheduleStats schedule;  //!< filled when the job was scheduled
    BackendStats backend;      //!< filled when compiled to a chip
    /** One entry per executed pass, in execution order. */
    std::vector<PassTrace> passes;
};

/** One pass's roll-up over a batch of compiles. */
struct PassAggregate
{
    std::string pass;     //!< PassTrace::pass token
    int runs = 0;         //!< times the pass executed
    double seconds = 0.0; //!< summed wall time
    /** Summed #2Q change (count2QAfter - count2QBefore). */
    long long delta2Q = 0;
};

/**
 * Roll up per-pass traces across many compiles, in first-execution
 * order — the one aggregation both `reqisc-compile --stats` and the
 * `bench_service --json` perf-guard summary print, kept here so the
 * two never diverge.
 */
std::vector<PassAggregate>
aggregatePassTraces(const std::vector<const Metrics *> &jobs);

/**
 * Per-gate pulse duration model.
 *
 * - Conventional: every CX/CZ costs pi/(sqrt 2 g) (the baseline pulse
 *   on XY-coupled transmons); other 2Q gates cost their minimal CX
 *   count times that (3 for SWAP etc.).
 * - ReQISC: every 2Q gate costs the genAshN optimal duration of its
 *   Weyl coordinate under the given coupling.
 */
std::function<double(const circuit::Gate &)>
conventionalDurationModel(double g = 1.0);

std::function<double(const circuit::Gate &)>
reqiscDurationModel(const uarch::Coupling &cpl);

/** Evaluate all metrics with the given duration model. */
Metrics evaluate(const circuit::Circuit &c,
                 const std::function<double(const circuit::Gate &)>
                     &duration_model);

} // namespace reqisc::compiler

#endif // REQISC_COMPILER_METRICS_HH
