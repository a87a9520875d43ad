#include "service/service.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <system_error>

#include "circuit/qasm.hh"
#include "compiler/pass_manager.hh"
#include "obs/obs.hh"

namespace reqisc::service
{

namespace
{

/** Service-level metrics, registered lazily on first service use. */
struct ServiceMetrics
{
    obs::Gauge *jobsInflight;
    obs::Counter *jobsCompleted;
    obs::Counter *jobsFailed;
    obs::Counter *jobsCanceled;
    obs::Histogram *queueWaitSeconds;
    obs::Histogram *jobSeconds;
};

ServiceMetrics &serviceMetrics()
{
    static ServiceMetrics m = [] {
        auto &r = obs::Registry::global();
        return ServiceMetrics{
            r.gauge("reqisc_jobs_inflight",
                    "Jobs queued or running in the service"),
            r.counter("reqisc_jobs_completed_total",
                      "Jobs finished successfully"),
            r.counter("reqisc_jobs_failed_total",
                      "Jobs finished with a captured error"),
            r.counter("reqisc_jobs_canceled_total",
                      "Jobs canceled while still queued"),
            r.histogram("reqisc_job_queue_wait_seconds",
                        "Time from submit() to a worker picking the "
                        "job up"),
            r.histogram("reqisc_job_seconds",
                        "Wall time of one job in its worker"),
        };
    }();
    return m;
}

/**
 * Per-job counting adapters: forward to the shared cache while
 * attributing this job's hits/misses/solve time to its Metrics. The
 * hit/miss *split* depends on what other jobs populated first; the
 * compiled artifacts do not (see the determinism contract).
 *
 * The block memo is consulted from BlockPool workers when intra-job
 * parallel resynthesis is on, so its counters take a (cheap) lock.
 */
class CountingBlockMemo final : public synth::BlockMemo
{
  public:
    explicit CountingBlockMemo(synth::BlockMemo *inner)
        : inner_(inner)
    {
    }

    bool lookup(const qmath::Matrix &target,
                const synth::SynthesisOptions &opts,
                synth::SynthesisResult &out) override
    {
        const bool hit = inner_->lookup(target, opts, out);
        std::lock_guard<std::mutex> lk(mu_);
        if (hit)
            ++counters_.hits;
        else
            ++counters_.misses;
        return hit;
    }

    void store(const qmath::Matrix &target,
               const synth::SynthesisOptions &opts,
               const synth::SynthesisResult &result,
               double solve_seconds) override
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            counters_.solveSeconds += solve_seconds;
        }
        inner_->store(target, opts, result, solve_seconds);
    }

    CacheCounters counters() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return counters_;
    }

  private:
    synth::BlockMemo *inner_;
    mutable std::mutex mu_;
    CacheCounters counters_;
};

class CountingPulseMemo final : public uarch::PulseMemo
{
  public:
    explicit CountingPulseMemo(uarch::PulseMemo *inner)
        : inner_(inner)
    {
    }

    bool lookup(const weyl::WeylCoord &coord,
                uarch::PulseSolution &sol) override
    {
        const bool hit = inner_->lookup(coord, sol);
        if (hit)
            ++counters_.hits;
        else
            ++counters_.misses;
        return hit;
    }

    void store(const weyl::WeylCoord &coord,
               const uarch::PulseSolution &sol,
               double solve_seconds) override
    {
        counters_.solveSeconds += solve_seconds;
        inner_->store(coord, sol, solve_seconds);
    }

    const CacheCounters &counters() const { return counters_; }

  private:
    uarch::PulseMemo *inner_;
    CacheCounters counters_;
};

/**
 * The job's complete pass list. Named specs expand to their compile
 * stage plus route and reconfigure on a backend and estimate; custom
 * specs are taken literally. Either way, whichever of estimate
 * (always), schedule and calibrate is requested and missing is
 * appended. Throws ApiException on a malformed spec.
 */
std::vector<std::string>
jobPassList(const CompileRequest &req,
            const compiler::CompileOptions &opts, bool backend)
{
    compiler::PipelineSpec spec;
    std::string error;
    if (!compiler::parsePipelineSpec(req.pipelineSpec, spec, error))
        throw ApiException(makeError(errc::kBadPipelineSpec, error,
                                     req.pipelineSpec));
    std::vector<std::string> list = spec.passes;
    if (spec.kind != compiler::PipelineSpec::Kind::Custom) {
        list = compiler::compilePassList(spec.kind, opts);
        if (backend)
            list.push_back("route");
        list.push_back("estimate");
        if (backend)
            list.push_back("reconfigure");
    }
    auto missing = [&list](const std::string &pass) {
        return std::none_of(
            list.begin(), list.end(), [&pass](const std::string &t) {
                return t == pass || t.rfind(pass + ":", 0) == 0;
            });
    };
    if (missing("estimate"))
        list.push_back("estimate");
    if (req.schedule && missing("schedule"))
        list.push_back("schedule");
    if (req.calibrate && missing("calibrate"))
        list.push_back("calibrate");
    return list;
}

/**
 * A finished record's result, moved out when no status() snapshot
 * still shares it and copied otherwise. The worker made it non-const.
 */
JobResult
takeResult(std::shared_ptr<const JobResult> res)
{
    if (res.use_count() == 1)
        return std::move(const_cast<JobResult &>(*res));
    return *res;
}

/** Cache file names inside ServiceOptions::cacheDir. */
constexpr const char *kSynthCacheFile = "synth.cache";
constexpr const char *kPulseCacheFile = "pulse.cache";

std::string
joinPath(const std::string &dir, const char *file)
{
    return (std::filesystem::path(dir) / file).string();
}

} // namespace

const char *
jobStateName(JobState s)
{
    switch (s) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Failed: return "failed";
    case JobState::Canceled: return "canceled";
    }
    return "unknown";
}

CompileService::CompileService(ServiceOptions opts)
    : opts_(opts)
{
    threads_ = opts_.threads;
    if (threads_ <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads_ = hw ? static_cast<int>(hw) : 1;
    }
    const backend::Backend *chip = opts_.backend.get();
    // The gate-set selection loop runs once per service; jobs only
    // read the tables.
    if (chip)
        reconfig_ = backend::reconfigure(*chip);
    if (opts_.enableCaches)
        synthCache_ = std::make_unique<SynthCache>();
    // The pulse cache is bound to one coupling, which a
    // heterogeneous chip does not have: its jobs calibrate nothing.
    if (opts_.enableCaches && (!chip || chip->isHomogeneous()))
        pulseCache_ = std::make_unique<PulseCache>(
            backend::targetCoupling(chip));
    if (!opts_.cacheDir.empty()) {
        if (synthCache_)
            synthLoaded_ = synthCache_->load(
                joinPath(opts_.cacheDir, kSynthCacheFile));
        if (pulseCache_)
            pulseLoaded_ = pulseCache_->load(
                joinPath(opts_.cacheDir, kPulseCacheFile));
    }
    // One pool shared by every job keeps the total thread count at
    // threads_ + helpers regardless of how many jobs are in flight.
    int block_workers = opts_.blockWorkers;
    if (block_workers <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        block_workers = std::max(
            1, static_cast<int>(hw ? hw : 1) - threads_ + 1);
    }
    if (block_workers > 1)
        blockPool_ =
            std::make_unique<synth::BlockPool>(block_workers - 1);
    obs::log(obs::LogLevel::Info, "service", "service started",
             {{"threads", std::to_string(threads_)},
              {"blockWorkers", std::to_string(block_workers)},
              {"synthCache", synthCache_ ? "on" : "off"},
              {"pulseCache", pulseCache_ ? "on" : "off"},
              {"cacheDir", opts_.cacheDir}});
    workers_.reserve(threads_);
    for (int i = 0; i < threads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

CompileService::~CompileService()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stopping_ = true;
    }
    workCv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
    if (!opts_.cacheDir.empty())
        saveCaches();  // best effort; failure leaves old files intact
}

int
CompileService::blockWorkers() const
{
    return blockPool_ ? blockPool_->workers() : 1;
}

bool
CompileService::saveCaches() const
{
    if (opts_.cacheDir.empty())
        return false;
    std::error_code ec;
    std::filesystem::create_directories(opts_.cacheDir, ec);
    bool ok = true;
    if (synthCache_)
        ok &= synthCache_->save(
            joinPath(opts_.cacheDir, kSynthCacheFile));
    if (pulseCache_)
        ok &= pulseCache_->save(
            joinPath(opts_.cacheDir, kPulseCacheFile));
    return ok;
}

std::uint64_t
CompileService::submit(CompileRequest req)
{
    std::vector<CompileRequest> one;
    one.push_back(std::move(req));
    return submitBatch(std::move(one)).front();
}

std::vector<std::uint64_t>
CompileService::submitBatch(std::vector<CompileRequest> reqs)
{
    std::vector<std::uint64_t> ids;
    ids.reserve(reqs.size());
    {
        std::lock_guard<std::mutex> lk(mu_);
        const auto now = std::chrono::steady_clock::now();
        for (CompileRequest &r : reqs) {
            const std::uint64_t id = nextId_++;
            JobStatus &record = jobs_[id];
            record.name = r.name;
            queue_.push_back(Job{id, std::move(r), now, &record});
            ids.push_back(id);
        }
        inFlight_ += reqs.size();
        serviceMetrics().jobsInflight->set(
            static_cast<double>(inFlight_));
    }
    if (ids.size() == 1)
        workCv_.notify_one();
    else
        workCv_.notify_all();
    return ids;
}

JobResult
CompileService::wait(std::uint64_t id)
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        // Look the record up again after every wake-up: waitAll(),
        // another wait() or an eviction may have erased it.
        const auto it = jobs_.find(id);
        if (it == jobs_.end())
            throw std::invalid_argument(
                id == 0 || id >= nextId_
                    ? "unknown job id"
                    : "job result already taken or evicted");
        JobStatus &record = it->second;
        if (record.result || record.state == JobState::Canceled) {
            std::shared_ptr<const JobResult> res =
                std::move(record.result);
            jobs_.erase(it);
            if (!res)
                throw std::invalid_argument("job was canceled");
            return takeResult(std::move(res));
        }
        doneCv_.wait(lk);
    }
}

std::vector<JobResult>
CompileService::waitAll()
{
    std::unique_lock<std::mutex> lk(mu_);
    doneCv_.wait(lk, [this] { return inFlight_ == 0; });
    // Nothing is queued or running, so every record is finished.
    std::vector<JobResult> out;
    for (auto &[id, record] : jobs_) {
        (void)id;
        if (record.result)
            out.push_back(takeResult(std::move(record.result)));
    }
    jobs_.clear();
    return out;
}

bool
CompileService::status(std::uint64_t id, JobStatus &out) const
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    out = it->second;
    return true;
}

void
CompileService::waitIdle()
{
    std::unique_lock<std::mutex> lk(mu_);
    doneCv_.wait(lk, [this] { return inFlight_ == 0; });
}

std::uint64_t
CompileService::inFlight() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return inFlight_;
}

std::uint64_t
CompileService::submitted() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return nextId_ - 1;
}

void
CompileService::finishLocked(std::uint64_t id, JobStatus &record,
                             JobState state)
{
    record.state = state;
    --inFlight_;
    serviceMetrics().jobsInflight->set(static_cast<double>(inFlight_));
    if (opts_.maxFinished == 0)
        return;
    finished_.push_back(id);
    while (finished_.size() > opts_.maxFinished) {
        jobs_.erase(finished_.front());
        finished_.pop_front();
    }
}

CompileService::CancelOutcome
CompileService::cancel(std::uint64_t id)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        const auto it = jobs_.find(id);
        if (it == jobs_.end())
            return CancelOutcome::Unknown;
        switch (it->second.state) {
        case JobState::Queued: break;
        case JobState::Running: return CancelOutcome::Running;
        case JobState::Done:
        case JobState::Failed: return CancelOutcome::Finished;
        case JobState::Canceled: return CancelOutcome::Canceled;
        }
        queue_.erase(std::find_if(
            queue_.begin(), queue_.end(),
            [id](const Job &j) { return j.id == id; }));
        serviceMetrics().jobsCanceled->inc();
        finishLocked(id, it->second, JobState::Canceled);
    }
    // The canceled job may have been the last in-flight one.
    doneCv_.notify_all();
    obs::log(obs::LogLevel::Info, "service", "job canceled",
             {{"id", std::to_string(id)}});
    return CancelOutcome::Canceled;
}

void
CompileService::workerLoop()
{
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lk(mu_);
            workCv_.wait(lk, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return;  // stopping_ and fully drained
            job = std::move(queue_.front());
            queue_.pop_front();
            job.record->state = JobState::Running;
        }
        auto res = std::make_shared<JobResult>(runJob(job));
        {
            std::lock_guard<std::mutex> lk(mu_);
            const JobState state =
                res->ok ? JobState::Done : JobState::Failed;
            job.record->result = std::move(res);
            finishLocked(job.id, *job.record, state);
        }
        doneCv_.notify_all();
    }
}

JobResult
CompileService::runJob(const Job &job)
{
    JobResult res;
    res.id = job.id;
    res.name = job.req.name;
    const std::string jobName = job.req.name.empty()
                                    ? std::to_string(job.id)
                                    : job.req.name;
    // Everything recorded under this scope — spans, log records,
    // flight events, even block tasks fanned out to pool threads —
    // carries job=<name> for cross-artifact correlation.
    obs::JobScope jobScope(jobName);
    obs::log(obs::LogLevel::Debug, "service", "job started",
             {{"id", std::to_string(job.id)}, {"name", jobName}});
    obs::Span jobSpan("job:" + jobName);
    jobSpan.annotate("id", std::to_string(job.id));
    obs::recordSpan("queue-wait", job.enqueuedAt,
                    std::chrono::steady_clock::now(),
                    jobSpan.context());
    serviceMetrics().queueWaitSeconds->observe(
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - job.enqueuedAt)
            .count());
    try {
        circuit::Circuit input;
        if (job.req.qasm.empty()) {
            input = job.req.input;
        } else {
            obs::Span parseSpan("parse");
            try {
                input = circuit::fromQasm(job.req.qasm);
            } catch (const std::exception &e) {
                throw ApiException(
                    makeError(errc::kParseError, e.what()));
            }
        }
        if (opts_.backend &&
            input.numQubits() > opts_.backend->numQubits())
            throw ApiException(makeError(
                errc::kBadRequest,
                "circuit has " + std::to_string(input.numQubits()) +
                    " qubits but the chip has " +
                    std::to_string(opts_.backend->numQubits())));
        CountingBlockMemo synthMemo(synthCache_.get());
        CountingPulseMemo pulseMemo(pulseCache_.get());
        compiler::CompileOptions copts;
        copts.seed = job.req.options.seed;
        copts.variationalMode = job.req.options.variationalMode;
        copts.synthMemo = synthCache_ ? &synthMemo : nullptr;
        copts.pulseMemo = pulseCache_ ? &pulseMemo : nullptr;
        copts.synthPool = blockPool_.get();

        compiler::CompilationUnit unit =
            compiler::CompilationUnit::forInput(std::move(input),
                                                copts);
        unit.backend = opts_.backend.get();
        unit.reconfig = opts_.backend ? &reconfig_ : nullptr;
        unit.strategy = job.req.scheduleOptions.strategy;
        unit.onPass = [this, &job](const compiler::PassTrace &t) {
            std::lock_guard<std::mutex> lk(mu_);
            job.record->passes.push_back(t);
        };

        compiler::PassManager pm;
        std::string error;
        if (!compiler::buildPipeline(
                {compiler::PipelineSpec::Kind::Custom,
                 jobPassList(job.req, copts, opts_.backend != nullptr)},
                copts, pm, error))
            throw ApiException(
                makeError(errc::kBadPipelineSpec, error));
        pm.run(unit);

        obs::Span copyOut("copy-out");
        res.metrics = std::move(unit.metrics);
        if (synthCache_)
            res.metrics.synthCache = synthMemo.counters();
        if (pulseCache_)
            res.metrics.pulseCache = pulseMemo.counters();
        if (unit.hasRouted) {
            res.routed = std::move(unit.routed);
            res.finalLayout = std::move(unit.finalLayout);
        }
        if (unit.hasProgram)
            res.program = std::move(unit.program);
        res.compiled.circuit = std::move(unit.circuit);
        res.compiled.finalPermutation =
            std::move(unit.finalPermutation);
        res.ok = true;
    } catch (const ApiException &e) {
        res.errorInfo = e.error();
    } catch (const compiler::UnsupportedGateError &e) {
        res.errorInfo = makeError(errc::kBadRequest, e.what());
    } catch (const std::exception &e) {
        res.errorInfo = makeError(errc::kInternal, e.what());
    } catch (...) {
        res.errorInfo = makeError(errc::kInternal, "unknown error");
    }
    res.seconds = jobSpan.stop();
    ServiceMetrics &m = serviceMetrics();
    m.jobSeconds->observe(res.seconds);
    (res.ok ? m.jobsCompleted : m.jobsFailed)->inc();
    if (res.ok) {
        obs::log(obs::LogLevel::Info, "service", "job completed",
                 {{"id", std::to_string(job.id)},
                  {"name", jobName},
                  {"seconds", std::to_string(res.seconds)},
                  {"passes",
                   std::to_string(res.metrics.passes.size())}});
    } else {
        obs::log(obs::LogLevel::Error, "service", "job failed",
                 {{"id", std::to_string(job.id)},
                  {"name", jobName},
                  {"seconds", std::to_string(res.seconds)},
                  {"error", res.errorInfo.message}});
        // Black-box dump: the final spans + error record of the
        // failing job are still in the rings right now.
        obs::flight::dumpNow("job-failure");
    }
    return res;
}

CacheCounters
CompileService::synthCacheStats() const
{
    return synthCache_ ? synthCache_->stats() : CacheCounters{};
}

CacheCounters
CompileService::pulseCacheStats() const
{
    return pulseCache_ ? pulseCache_->stats() : CacheCounters{};
}

std::size_t
CompileService::synthCacheSize() const
{
    return synthCache_ ? synthCache_->size() : 0;
}

std::size_t
CompileService::pulseCacheSize() const
{
    return pulseCache_ ? pulseCache_->size() : 0;
}

std::vector<ClassStats>
CompileService::synthCachePerClass() const
{
    return synthCache_ ? synthCache_->perClass()
                       : std::vector<ClassStats>{};
}

std::vector<ClassStats>
CompileService::pulseCachePerClass() const
{
    return pulseCache_ ? pulseCache_->perClass()
                       : std::vector<ClassStats>{};
}

} // namespace reqisc::service
