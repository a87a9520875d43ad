#include "daemon/daemon.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "backend/json.hh"
#include "isa/schedule.hh"
#include "obs/log.hh"
#include "obs/metrics.hh"
#include "service/api.hh"
#include "service/error.hh"

namespace reqisc::daemon
{

namespace
{

using backend::JsonValue;
using service::ApiError;
using service::ApiException;
using service::makeError;
namespace errc = reqisc::service::errc;

/** Daemon-level metrics, registered lazily on first use. */
struct DaemonMetrics
{
    obs::Counter *requests;
    obs::Counter *jobsAccepted;
    obs::Counter *jobsCompleted;
    obs::Counter *jobsFailed;
    obs::Counter *jobsCanceled;
    obs::Counter *rejectsQueueFull;
    obs::Counter *rejectsQuota;
    obs::Counter *rejectsDraining;
    obs::Gauge *activeJobs;
};

DaemonMetrics &daemonMetrics()
{
    static DaemonMetrics m = [] {
        auto &r = obs::Registry::global();
        return DaemonMetrics{
            r.counter("reqisc_daemon_requests_total",
                      "HTTP requests handled"),
            r.counter("reqisc_daemon_jobs_accepted_total",
                      "Jobs admitted via POST /v1/jobs"),
            r.counter("reqisc_daemon_jobs_completed_total",
                      "Daemon jobs finished successfully"),
            r.counter("reqisc_daemon_jobs_failed_total",
                      "Daemon jobs finished with an error"),
            r.counter("reqisc_daemon_jobs_canceled_total",
                      "Jobs canceled while still queued"),
            r.counter("reqisc_daemon_rejects_queue_full_total",
                      "Submissions rejected 429 queue-full"),
            r.counter("reqisc_daemon_rejects_quota_total",
                      "Submissions rejected 429 quota-exceeded"),
            r.counter("reqisc_daemon_rejects_draining_total",
                      "Submissions rejected 503 shutting-down"),
            r.gauge("reqisc_daemon_active_jobs",
                    "Jobs queued or running in the daemon"),
        };
    }();
    return m;
}

/** A v1 document, {apiVersion}, for the caller to extend. */
JsonValue
envelope()
{
    JsonValue doc = JsonValue::makeObject();
    doc.set("apiVersion",
            JsonValue::makeNumber(
                static_cast<double>(service::api::kApiVersion)));
    return doc;
}

/** {apiVersion, error: {...}}, the body of every error reply. */
std::string
errorBody(const ApiError &err)
{
    JsonValue doc = envelope();
    doc.set("error", service::api::errorToJson(err));
    return backend::dumpJson(doc, true);
}

/** errorBody with the error's HTTP status. */
HttpResponse
errorResponse(const ApiError &err)
{
    HttpResponse res;
    res.status = err.httpStatus;
    res.body = errorBody(err);
    return res;
}

HttpResponse
jsonResponse(int status, const JsonValue &doc)
{
    HttpResponse res;
    res.status = status;
    res.body = backend::dumpJson(doc, true);
    return res;
}

/**
 * Parse the {id} path segment; 0 (no job's id) on garbage or an id
 * above 2^62. The bound is checked before each multiply, so no digit
 * string wraps around onto a small id.
 */
std::uint64_t
parseId(const std::string &s)
{
    constexpr std::uint64_t kMaxId = 1ull << 62;
    if (s.empty())
        return 0;
    std::uint64_t id = 0;
    for (char c : s) {
        if (c < '0' || c > '9' || id > kMaxId / 10)
            return 0;
        id = id * 10 + static_cast<std::uint64_t>(c - '0');
        if (id > kMaxId)
            return 0;
    }
    return id;
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

CompileDaemon::CompileDaemon(DaemonOptions opts)
    : opts_(std::move(opts)),
      svc_(std::make_unique<service::CompileService>(opts_.service)),
      server_(opts_.http,
              [this](const HttpRequest &req) { return handle(req); })
{
    // Even transport-level failures (413, malformed framing) speak
    // the wire schema.
    server_.setErrorBody([](int status, const std::string &message) {
        const char *code = errc::kInternal;
        if (status == 413)
            code = errc::kBodyTooLarge;
        else if (status >= 400 && status < 500)
            code = errc::kBadRequest;
        ApiError err = makeError(code, message);
        err.httpStatus = status;
        return errorBody(err);
    });
}

CompileDaemon::~CompileDaemon()
{
    // Stop serving first, then join the compile workers while the
    // registry (mu_, jobs_, drainedCv_) is still alive — their
    // onPass/onDone callbacks lock mu_ up to the very last job.
    server_.stop();
    svc_.reset();
}

bool
CompileDaemon::start(std::string &error)
{
    if (!server_.start(error))
        return false;
    obs::log(obs::LogLevel::Info, "daemon", "listening",
             {{"port", std::to_string(server_.port())},
              {"maxQueue", std::to_string(opts_.maxQueue)},
              {"quotaRate", std::to_string(opts_.quotaRate)}});
    return true;
}

void
CompileDaemon::beginDrain()
{
    std::lock_guard<std::mutex> lk(mu_);
    draining_ = true;
}

void
CompileDaemon::waitDrained()
{
    std::unique_lock<std::mutex> lk(mu_);
    drainedCv_.wait(lk, [this] { return active_ == 0; });
}

void
CompileDaemon::stop()
{
    server_.stop();
}

std::uint64_t
CompileDaemon::accepted() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return accepted_;
}

HttpResponse
CompileDaemon::handle(const HttpRequest &req)
{
    daemonMetrics().requests->inc();
    // Strip any query string; the v1 API does not use them.
    std::string path = req.target;
    if (const std::size_t q = path.find('?');
        q != std::string::npos)
        path.resize(q);

    if (path == "/healthz") {
        if (req.method != "GET")
            return errorResponse(makeError(errc::kMethodNotAllowed,
                                           "use GET on /healthz"));
        return handleHealth();
    }
    if (path == "/metrics") {
        if (req.method != "GET")
            return errorResponse(makeError(errc::kMethodNotAllowed,
                                           "use GET on /metrics"));
        return handleMetrics();
    }
    if (path == "/v1/jobs") {
        if (req.method != "POST")
            return errorResponse(makeError(errc::kMethodNotAllowed,
                                           "use POST on /v1/jobs"));
        return handleSubmit(req);
    }
    const std::string prefix = "/v1/jobs/";
    if (path.rfind(prefix, 0) == 0) {
        std::string rest = path.substr(prefix.size());
        bool wantResult = false;
        const std::string suffix = "/result";
        if (rest.size() > suffix.size() &&
            rest.compare(rest.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
            wantResult = true;
            rest.resize(rest.size() - suffix.size());
        }
        const std::uint64_t id = parseId(rest);
        if (id == 0)
            return errorResponse(makeError(
                errc::kNotFound, "no such job", path));
        if (wantResult) {
            if (req.method != "GET")
                return errorResponse(
                    makeError(errc::kMethodNotAllowed,
                              "use GET on /v1/jobs/{id}/result"));
            return handleResult(id);
        }
        if (req.method == "GET")
            return handleStatus(id);
        if (req.method == "DELETE")
            return handleCancel(id);
        return errorResponse(
            makeError(errc::kMethodNotAllowed,
                      "use GET or DELETE on /v1/jobs/{id}"));
    }
    return errorResponse(
        makeError(errc::kNotFound, "no such route", path));
}

bool
CompileDaemon::admitQuotaLocked(const HttpRequest &req,
                                HttpResponse &res)
{
    if (opts_.quotaRate <= 0.0)
        return true;
    // The peer IP scopes the key (the port changes per connection),
    // with the client-supplied X-Client-Id refining it — a header
    // alone must not mint unaccountable fresh buckets.
    std::string key = req.peer.substr(0, req.peer.find(':'));
    if (const std::string *cid = req.header("x-client-id"))
        key += '|' + *cid;

    const auto now = std::chrono::steady_clock::now();
    // Periodically sweep buckets idle long enough to be full again:
    // erasing one is indistinguishable from keeping it (a fresh
    // bucket starts at quotaBurst), and the map stays bounded by the
    // recent client set instead of every client ever seen.
    if (++quotaSweep_ >= 256) {
        quotaSweep_ = 0;
        for (auto it = quotas_.begin(); it != quotas_.end();) {
            const double idle =
                std::chrono::duration<double>(
                    now - it->second.lastRefill)
                    .count();
            if (it->second.tokens + idle * opts_.quotaRate >=
                opts_.quotaBurst)
                it = quotas_.erase(it);
            else
                ++it;
        }
    }

    QuotaBucket &b = quotas_[key];
    if (!b.initialized) {
        b.tokens = opts_.quotaBurst;
        b.lastRefill = now;
        b.initialized = true;
    } else {
        const double elapsed =
            std::chrono::duration<double>(now - b.lastRefill)
                .count();
        b.tokens = std::min(opts_.quotaBurst,
                            b.tokens + elapsed * opts_.quotaRate);
        b.lastRefill = now;
    }
    if (b.tokens >= 1.0) {
        b.tokens -= 1.0;
        return true;
    }
    daemonMetrics().rejectsQuota->inc();
    const double waitSeconds =
        (1.0 - b.tokens) / opts_.quotaRate;
    res = errorResponse(makeError(
        errc::kQuotaExceeded,
        "client submission quota exhausted", key));
    res.headers.emplace_back(
        "Retry-After",
        std::to_string(std::max(
            1, static_cast<int>(std::ceil(waitSeconds)))));
    return false;
}

void
CompileDaemon::recordFinishedLocked(std::uint64_t id)
{
    if (opts_.maxFinished == 0)
        return;
    finishedOrder_.push_back(id);
    while (finishedOrder_.size() > opts_.maxFinished) {
        jobs_.erase(finishedOrder_.front());
        finishedOrder_.pop_front();
    }
}

HttpResponse
CompileDaemon::handleSubmit(const HttpRequest &req)
{
    // Fast-path drain rejection before the body is even parsed; the
    // authoritative check is repeated inside the admission section
    // below, where it cannot race beginDrain()/waitDrained().
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (draining_) {
            daemonMetrics().rejectsDraining->inc();
            HttpResponse res = errorResponse(makeError(
                errc::kShuttingDown,
                "daemon is draining; resubmit elsewhere"));
            res.headers.emplace_back("Retry-After", "1");
            return res;
        }
    }

    service::CompileRequest creq;
    try {
        const JsonValue body =
            backend::parseJson(req.body, "request");
        creq = service::api::compileRequestFromJson(body);
    } catch (const ApiException &e) {
        return errorResponse(e.error());
    } catch (const backend::JsonError &e) {
        return errorResponse(
            makeError(errc::kBadRequest, e.what()));
    }

    auto rec = std::make_shared<JobRecord>();
    rec->name = creq.name;
    if (creq.schedule)
        rec->scheduleStrategy =
            isa::strategyName(creq.scheduleOptions.strategy);

    // Stream per-pass progress into the record; the first trace also
    // flips the job to Running (a worker has it).
    creq.onPass = [this, rec](const compiler::PassTrace &t) {
        std::lock_guard<std::mutex> lk(mu_);
        if (rec->state == JobState::Queued)
            rec->state = JobState::Running;
        rec->progress.push_back(t);
    };
    creq.onDone = [this, rec](service::JobResult res) {
        const bool ok = res.ok;
        {
            std::lock_guard<std::mutex> lk(mu_);
            rec->state = ok ? JobState::Done : JobState::Failed;
            rec->result = std::move(res);
            --active_;
            daemonMetrics().activeJobs->set(
                static_cast<double>(active_));
            recordFinishedLocked(rec->id);
        }
        (ok ? daemonMetrics().jobsCompleted
            : daemonMetrics().jobsFailed)
            ->inc();
        drainedCv_.notify_all();
    };

    std::uint64_t id = 0;
    {
        // Every admission decision and the submit under ONE lock:
        // concurrent submissions cannot squeeze past the bound, a
        // submission cannot slip in after waitDrained() observed an
        // empty registry, and the worker callbacks block on this
        // mutex until the record is indexed.
        std::lock_guard<std::mutex> lk(mu_);
        if (draining_) {
            daemonMetrics().rejectsDraining->inc();
            HttpResponse res = errorResponse(makeError(
                errc::kShuttingDown,
                "daemon is draining; resubmit elsewhere"));
            res.headers.emplace_back("Retry-After", "1");
            return res;
        }
        if (opts_.maxQueue && active_ >= opts_.maxQueue) {
            daemonMetrics().rejectsQueueFull->inc();
            HttpResponse res = errorResponse(makeError(
                errc::kQueueFull,
                "admission queue is full (" +
                    std::to_string(opts_.maxQueue) + " jobs)"));
            res.headers.emplace_back("Retry-After", "1");
            return res;
        }
        // Quota last: a submission bounced by the drain or the queue
        // bound must not charge the client's bucket.
        HttpResponse quotaRes;
        if (!admitQuotaLocked(req, quotaRes))
            return quotaRes;
        id = svc_->submit(std::move(creq));
        rec->id = id;
        jobs_.emplace(id, rec);
        ++accepted_;
        ++active_;
        daemonMetrics().jobsAccepted->inc();
        daemonMetrics().activeJobs->set(
            static_cast<double>(active_));
    }

    JsonValue doc = envelope();
    doc.set("id", JsonValue::makeNumber(static_cast<double>(id)));
    doc.set("status", JsonValue::makeString("queued"));
    return jsonResponse(202, doc);
}

HttpResponse
CompileDaemon::handleStatus(std::uint64_t id)
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return errorResponse(makeError(
            errc::kNotFound, "no such job", std::to_string(id)));
    const JobRecord &rec = *it->second;
    JsonValue doc = envelope();
    doc.set("id", JsonValue::makeNumber(static_cast<double>(id)));
    doc.set("name", JsonValue::makeString(rec.name));
    doc.set("status",
            JsonValue::makeString(jobStateName(rec.state)));
    JsonValue passes = JsonValue::makeArray();
    for (const compiler::PassTrace &t : rec.progress)
        passes.push(service::api::passTraceToJson(t));
    doc.set("passes", std::move(passes));
    if (rec.state == JobState::Done ||
        rec.state == JobState::Failed) {
        doc.set("ok", JsonValue::makeBool(rec.result.ok));
        doc.set("seconds",
                JsonValue::makeNumber(rec.result.seconds));
        if (!rec.result.ok)
            doc.set("error", service::api::errorToJson(
                                 rec.result.errorInfo));
    }
    return jsonResponse(200, doc);
}

HttpResponse
CompileDaemon::handleResult(std::uint64_t id)
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return errorResponse(makeError(
            errc::kNotFound, "no such job", std::to_string(id)));
    const JobRecord &rec = *it->second;
    switch (rec.state) {
    case JobState::Queued:
    case JobState::Running:
        return errorResponse(makeError(
            errc::kNotReady,
            "job is still " + std::string(jobStateName(rec.state)),
            std::to_string(id)));
    case JobState::Canceled:
        return errorResponse(makeError(
            errc::kCanceled, "job was canceled before running",
            std::to_string(id)));
    case JobState::Done:
    case JobState::Failed:
        break;
    }
    service::api::ResultEmitOptions emit;
    emit.artifacts = true;
    emit.isaText = true;
    emit.scheduleStrategy = rec.scheduleStrategy;
    return jsonResponse(
        200, service::api::jobResultToJson(rec.result, emit));
}

HttpResponse
CompileDaemon::handleCancel(std::uint64_t id)
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return errorResponse(makeError(
            errc::kNotFound, "no such job", std::to_string(id)));
    JobRecord &rec = *it->second;
    // Idempotent: canceling twice reports the same outcome.
    if (rec.state != JobState::Canceled) {
        switch (svc_->cancel(id)) {
        case service::CompileService::CancelOutcome::Canceled:
            rec.state = JobState::Canceled;
            --active_;
            daemonMetrics().activeJobs->set(
                static_cast<double>(active_));
            daemonMetrics().jobsCanceled->inc();
            recordFinishedLocked(id);
            drainedCv_.notify_all();
            break;
        case service::CompileService::CancelOutcome::Running:
            return errorResponse(makeError(
                errc::kNotCancelable,
                "job is already running; cancellation never "
                "interrupts a compile",
                std::to_string(id)));
        case service::CompileService::CancelOutcome::Finished:
        case service::CompileService::CancelOutcome::Unknown:
            return errorResponse(makeError(errc::kAlreadyCompleted,
                                           "job already completed",
                                           std::to_string(id)));
        }
    }
    JsonValue doc = envelope();
    doc.set("id", JsonValue::makeNumber(static_cast<double>(id)));
    doc.set("status", JsonValue::makeString("canceled"));
    return jsonResponse(200, doc);
}

HttpResponse
CompileDaemon::handleHealth()
{
    JsonValue doc = JsonValue::makeObject();
    doc.set("status", JsonValue::makeString("ok"));
    std::lock_guard<std::mutex> lk(mu_);
    doc.set("draining", JsonValue::makeBool(draining_));
    doc.set("activeJobs",
            JsonValue::makeNumber(static_cast<double>(active_)));
    doc.set("accepted",
            JsonValue::makeNumber(static_cast<double>(accepted_)));
    return jsonResponse(200, doc);
}

HttpResponse
CompileDaemon::handleMetrics()
{
    HttpResponse res;
    res.contentType = "text/plain; version=0.0.4";
    res.body = obs::metricsSnapshot();
    return res;
}

} // namespace reqisc::daemon
