/**
 * @file
 * Concurrent compilation service (the persistent-compiler framing of
 * eQASM / Quil: the compiler sits in front of the QPU as a service,
 * not a one-shot script).
 *
 * A CompileService owns a fixed pool of worker threads, a job queue,
 * and the two SU(4)-equivalence memoization caches of cache.hh,
 * shared across all jobs so repeated classes in a batch are
 * synthesized and pulse-solved exactly once. Jobs are submitted as
 * circuits or raw QASM (parsed in the worker, so parse errors are
 * captured per job like any other failure) and collected with
 * wait()/waitAll().
 *
 * Determinism contract: compilation is a pure function of
 * (input, CompileOptions) — every job carries its own options with a
 * deterministic seed, and the SynthCache only short-circuits work it
 * keys on exactly and re-verifies to tolerance — so the compiled
 * artifacts (gate stream, final permutation) and circuit metrics are
 * bit-identical regardless of the thread count or the order in which
 * jobs interleave. tests/test_service.cc pins this down. Outside the
 * contract: pulse-solve *attribution* (cache hit/miss splits, and
 * Metrics::unsolvedClasses when two distinct classes fall within
 * the cluster tolerance and only one of them converges) follows the
 * schedule, because the PulseCache deliberately shares solutions
 * within tolerance — pulse solutions never feed back into compiled
 * circuits.
 */

#ifndef REQISC_SERVICE_SERVICE_HH
#define REQISC_SERVICE_SERVICE_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <functional>

#include "backend/backend.hh"
#include "backend/reconfigure.hh"
#include "compiler/metrics.hh"
#include "compiler/pipeline.hh"
#include "isa/program.hh"
#include "isa/schedule.hh"
#include "service/cache.hh"
#include "service/error.hh"
#include "synth/pool.hh"
#include "uarch/calibration.hh"

namespace reqisc::service
{

/** Service-wide configuration (fixed at construction). */
struct ServiceOptions
{
    /** Worker threads; 0 means hardware_concurrency(). */
    int threads = 1;
    /**
     * The shared SU(4) synth and pulse caches (`--no-cache` turns
     * both off). A heterogeneous backend has no pulse cache anyway.
     */
    bool enableCaches = true;
    /** Target hardware: duration model, pulse solves, calibration. */
    uarch::Coupling coupling = uarch::Coupling::xy(1.0);
    /**
     * Intra-job workers for hier-synth's block resynthesis and
     * calibrate's EA multistarts: 1 solves both serially (no pool),
     * N > 1 creates one synth::BlockPool with N-1 helper threads
     * shared across all jobs (the submitting worker participates, so
     * the service's total thread count stays
     * `threads + blockWorkers - 1` no matter how many jobs are in
     * flight), 0 sizes the pool to the hardware concurrency left
     * over after the job workers. Compiled artifacts are
     * bit-identical at every setting.
     */
    int blockWorkers = 1;
    /**
     * Directory for persistent caches. When non-empty, the service
     * loads `synth.cache` / `pulse.cache` from it at construction
     * (silently cold-starting on missing, mismatched or corrupt
     * files) and saves both on destruction via atomic rename.
     */
    std::string cacheDir;
    /**
     * Concrete chip (per-edge calibration). When set, the service
     * runs the gate-set reconfiguration loop once at construction
     * and every job additionally: routes the compiled circuit onto
     * the chip topology (mirroring-SABRE), evaluates metrics and
     * schedules under the backend's per-edge duration model, and
     * fills Metrics::backend with the reconfigured-vs-uniform
     * fidelity estimates. The shared pulse cache stays bound to
     * `coupling`, which per-edge couplings would invalidate, so it
     * is disabled for heterogeneous backends.
     */
    std::shared_ptr<const backend::Backend> backend;
};

/** Outcome of one job; `ok == false` carries the captured error. */
struct JobResult
{
    std::uint64_t id = 0;
    std::string name;
    bool ok = false;
    /**
     * Structured failure report: classified code + HTTP status +
     * message + detail (service/error.hh). Default-constructed
     * (isError() == false) on success.
     */
    ApiError errorInfo;
    compiler::CompileResult compiled;
    /** Incl. per-job cache counters and the per-pass trace. */
    compiler::Metrics metrics;
    /**
     * Physical circuit on the backend topology (SWAPs fused into
     * Can gates); empty unless the service has a backend. Logical
     * qubit q ends on wire `finalLayout[q]`.
     */
    circuit::Circuit routed;
    std::vector<int> finalLayout;
    /** Timed program (empty unless CompileRequest::schedule). */
    isa::Program program;
    double seconds = 0.0;            //!< wall time in the worker
};

/** One unit of work. */
struct CompileRequest
{
    std::string name;             //!< label echoed in the result
    circuit::Circuit input;       //!< used unless `qasm` is set
    std::string qasm;             //!< parsed in the worker when set
    /**
     * The pipeline: "eff", "full" or "custom:pass,pass,..." (the
     * pass-manager grammar, compiler/pass_manager.hh). Named specs
     * get the service stages appended: route and reconfigure on a
     * backend, estimate, schedule and calibrate when requested.
     * Custom lists run literally, followed by whichever of
     * estimate (always), schedule and calibrate is requested and
     * missing from the list. A malformed spec is captured as the
     * job's error like any other per-job failure.
     */
    std::string pipelineSpec = "full";
    compiler::CompileOptions options;
    /**
     * Run the calibrate pass: plan the per-circuit pulse calibration
     * through the shared pulse cache (Metrics::unsolvedClasses).
     */
    bool calibrate = true;
    /**
     * Lower the compiled circuit into a timed RQISA program
     * (JobResult::program) and fill Metrics::schedule. The duration
     * model's coupling is overridden with the service-wide
     * ServiceOptions::coupling so timing, pulse solves and metrics
     * all describe the same device.
     */
    bool schedule = false;
    isa::ScheduleOptions scheduleOptions;
    /**
     * Optional per-pass progress observer, invoked on the worker
     * thread after every executed pass with the trace just recorded
     * (compiler::CompilationUnit::onPass). Must synchronize itself
     * and must not throw. Not part of the wire schema.
     */
    std::function<void(const compiler::PassTrace &)> onPass;
    /**
     * Optional completion callback. When set, the finished JobResult
     * is handed to this callback on the worker thread *instead of*
     * being stored for wait()/waitAll() — the submitter owns result
     * delivery (the daemon's job registry). Must not throw. Jobs
     * removed by cancel() never invoke it.
     */
    std::function<void(JobResult)> onDone;
};

/** The concurrent compilation service. */
class CompileService
{
  public:
    explicit CompileService(ServiceOptions opts = {});
    ~CompileService();  //!< drains the queue and joins the workers

    CompileService(const CompileService &) = delete;
    CompileService &operator=(const CompileService &) = delete;

    /** Enqueue one job; returns its id (ids are dense from 1). */
    std::uint64_t submit(CompileRequest req);

    /** Enqueue a batch; returns the ids in order. */
    std::vector<std::uint64_t>
    submitBatch(std::vector<CompileRequest> reqs);

    /**
     * Block until the given job finishes and take its result.
     * Throws std::invalid_argument for an unknown id (never issued,
     * or already taken).
     */
    JobResult wait(std::uint64_t id);

    /**
     * Block until every submitted job finishes; returns all results
     * not yet taken, in submission order.
     */
    std::vector<JobResult> waitAll();

    /** What cancel(id) found. */
    enum class CancelOutcome
    {
        Canceled,  //!< removed from the queue before any work ran
        Running,   //!< a worker already owns it; it will finish
        Finished,  //!< already completed (result stored or delivered)
        Unknown,   //!< id never issued
    };

    /**
     * Best-effort cancellation: a still-queued job is removed (its
     * onDone is never invoked and wait(id) will throw as for an
     * unknown id), a running or finished job is left untouched —
     * compilation is never interrupted mid-pass.
     */
    CancelOutcome cancel(std::uint64_t id);

    int threads() const { return threads_; }
    /** Effective intra-job block workers (>= 1). */
    int blockWorkers() const;

    /**
     * Write both caches to ServiceOptions::cacheDir now (also done
     * automatically on destruction). @return true when every enabled
     * cache saved; false with no cacheDir or on I/O failure.
     */
    bool saveCaches() const;
    /** Did construction load a persisted synth / pulse cache file? */
    bool synthCacheWarmStarted() const { return synthLoaded_; }
    bool pulseCacheWarmStarted() const { return pulseLoaded_; }

    /** The chip this service compiles to; nullptr without one. */
    const backend::Backend *backend() const
    {
        return opts_.backend.get();
    }
    /** The reconfigured gate-set tables; nullptr without a backend. */
    const backend::ReconfigureResult *reconfiguration() const
    {
        return opts_.backend ? &reconfig_ : nullptr;
    }

    /** Shared-cache instrumentation (service lifetime totals). */
    CacheCounters synthCacheStats() const;
    CacheCounters pulseCacheStats() const;
    /** Live class counts (entries currently cached). */
    std::size_t synthCacheSize() const;
    std::size_t pulseCacheSize() const;
    /** Per-class rows for `--stats`; empty when a cache is off. */
    std::vector<ClassStats> synthCachePerClass() const;
    std::vector<ClassStats> pulseCachePerClass() const;

  private:
    struct Job
    {
        std::uint64_t id = 0;
        CompileRequest req;
        /** Submission time; the worker reports the queue wait from
         *  it (obs queue-wait span + histogram). */
        std::chrono::steady_clock::time_point enqueuedAt;
    };

    void workerLoop();
    JobResult runJob(const Job &job);

    ServiceOptions opts_;
    int threads_ = 1;
    /** Gate-set tables, computed once when a backend is present. */
    backend::ReconfigureResult reconfig_;
    std::unique_ptr<SynthCache> synthCache_;   //!< null when disabled
    std::unique_ptr<PulseCache> pulseCache_;   //!< null when disabled
    /** Shared intra-job resynthesis pool; null when blockWorkers=1. */
    std::unique_ptr<synth::BlockPool> blockPool_;
    bool synthLoaded_ = false;   //!< persisted synth cache loaded
    bool pulseLoaded_ = false;   //!< persisted pulse cache loaded

    mutable std::mutex mu_;
    std::condition_variable workCv_;   //!< queue -> workers
    std::condition_variable doneCv_;   //!< results -> waiters
    std::deque<Job> queue_;
    std::map<std::uint64_t, JobResult> results_;  //!< finished jobs
    std::unordered_set<std::uint64_t> pending_;   //!< queued/running
    std::uint64_t nextId_ = 1;
    std::uint64_t inFlight_ = 0;       //!< queued or running jobs
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

} // namespace reqisc::service

#endif // REQISC_SERVICE_SERVICE_HH
