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
 * wait()/waitAll(), or read without taking them with status(): the
 * job table is the one registry of job state, the daemon's included.
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
#include <vector>

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
     * fidelity estimates. The shared pulse cache is bound to one
     * coupling, which per-edge couplings would invalidate, so it is
     * disabled for heterogeneous backends.
     */
    std::shared_ptr<const backend::Backend> backend;
    /**
     * Finished (done, failed or canceled) job records to keep: past
     * the cap the oldest-finished one is evicted and its id reads as
     * unknown. 0 keeps each until wait() or waitAll() takes it.
     */
    std::size_t maxFinished = 0;
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

/** One unit of work: what a client chooses of a compile. */
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
    /**
     * The compile options a client chooses. The service installs the
     * rest of compiler::CompileOptions, its synth memo, pulse memo
     * and block pool, in every job.
     */
    struct Options
    {
        unsigned seed = compiler::CompileOptions{}.seed;
        bool variationalMode = false;
    };
    Options options;
    /**
     * Run the calibrate pass: plan the per-circuit pulse calibration
     * through the shared pulse cache (Metrics::unsolvedClasses).
     */
    bool calibrate = true;
    /**
     * Lower the compiled circuit into a timed RQISA program
     * (JobResult::program) and fill Metrics::schedule. The job's
     * target fixes the durations and topology
     * (compiler::CompilationUnit::durationModel), so timing, pulse
     * solves and metrics all describe the same device.
     */
    bool schedule = false;
    /** The schedule option a client chooses: the strategy. */
    struct ScheduleChoice
    {
        isa::Strategy strategy = isa::ScheduleOptions{}.strategy;
    };
    ScheduleChoice scheduleOptions;
};

/** Where a job is in its life. */
enum class JobState
{
    Queued,    //!< submitted; no worker has it yet
    Running,   //!< a worker dequeued it
    Done,      //!< finished; the result is ok
    Failed,    //!< finished with a captured error
    Canceled,  //!< removed from the queue by cancel()
};

/** "queued", "running", "done", "failed" or "canceled". */
const char *jobStateName(JobState s);

/** One job's registry record, and its snapshot (status()). */
struct JobStatus
{
    JobState state = JobState::Queued;
    std::string name;
    /** The traces of the passes run so far, in pass order. */
    std::vector<compiler::PassTrace> passes;
    /** The result once the job is Done or Failed, else null. */
    std::shared_ptr<const JobResult> result;
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
     * Block until the given job finishes and take its record and
     * result. Throws std::invalid_argument for an id that is unknown
     * (never issued, already taken or evicted) or canceled.
     */
    JobResult wait(std::uint64_t id);

    /**
     * Block until every submitted job finishes; take every record
     * and return the results not yet taken, in submission order.
     */
    std::vector<JobResult> waitAll();

    /**
     * Copy job `id`'s record into `out`; false when the id is
     * unknown (never issued, taken or evicted). The lock is held for
     * the copy only, so callers render the snapshot unlocked.
     */
    bool status(std::uint64_t id, JobStatus &out) const;

    /** Block until no job is queued or running. */
    void waitIdle();
    /** Jobs queued or running now. */
    std::uint64_t inFlight() const;
    /** Jobs submitted over the service's lifetime. */
    std::uint64_t submitted() const;

    /** What cancel(id) found. */
    enum class CancelOutcome
    {
        Canceled,  //!< removed from the queue, now or by an earlier call
        Running,   //!< a worker already owns it; it will finish
        Finished,  //!< already done or failed
        Unknown,   //!< never issued, taken by wait() or evicted
    };

    /**
     * Best-effort, idempotent cancellation: a still-queued job is
     * removed from the queue and its record reads Canceled (wait(id)
     * throws); a running or finished job is left untouched —
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
        /** Its record in jobs_; only finished records are erased. */
        JobStatus *record = nullptr;
    };

    /**
     * Mark record `id` finished in `state`, out of flight, and evict
     * the oldest finished records past maxFinished.
     */
    void finishLocked(std::uint64_t id, JobStatus &record,
                      JobState state);
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
    std::condition_variable doneCv_;   //!< finished jobs -> waiters
    std::deque<Job> queue_;
    /** The registry: every job not yet taken or evicted, by id. */
    std::map<std::uint64_t, JobStatus> jobs_;
    /** Finished ids in finishing order; kept when maxFinished > 0. */
    std::deque<std::uint64_t> finished_;
    std::uint64_t nextId_ = 1;
    std::uint64_t inFlight_ = 0;       //!< queued or running jobs
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

} // namespace reqisc::service

#endif // REQISC_SERVICE_SERVICE_HH
