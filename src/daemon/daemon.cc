#include "daemon/daemon.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <utility>

#include "backend/json.hh"
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
    obs::Counter *rejectsQueueFull;
    obs::Counter *rejectsQuota;
    obs::Counter *rejectsDraining;
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
            r.counter("reqisc_daemon_rejects_queue_full_total",
                      "Submissions rejected 429 queue-full"),
            r.counter("reqisc_daemon_rejects_quota_total",
                      "Submissions rejected 429 quota-exceeded"),
            r.counter("reqisc_daemon_rejects_draining_total",
                      "Submissions rejected 503 shutting-down"),
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

/** errorResponse plus `Retry-After: 1`: try again shortly. */
HttpResponse
retryResponse(const ApiError &err)
{
    HttpResponse res = errorResponse(err);
    res.headers.emplace_back("Retry-After", "1");
    return res;
}

/** The 503 every submission gets while the daemon drains. */
HttpResponse
drainingResponse()
{
    daemonMetrics().rejectsDraining->inc();
    return retryResponse(makeError(
        errc::kShuttingDown, "daemon is draining; resubmit elsewhere"));
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
 * Parse the {id} path segment; 0 (no job's id) unless it is all
 * digits and at most 2^62. from_chars reports a value past 2^64 as
 * out of range, so no digit string wraps around onto a small id.
 */
std::uint64_t
parseId(const std::string &s)
{
    std::uint64_t id = 0;
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, id);
    return ec == std::errc() && ptr == end && id <= (1ull << 62) ? id : 0;
}

} // namespace

CompileDaemon::CompileDaemon(DaemonOptions opts)
    : opts_(std::move(opts)),
      svc_(opts_.service),
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
    svc_.waitIdle();
}

void
CompileDaemon::stop()
{
    server_.stop();
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
    // bucket starts full), and the map stays bounded by the recent
    // client set instead of every client ever seen.
    if (++quotaSweep_ >= 256) {
        quotaSweep_ = 0;
        std::erase_if(quotas_, [&](const auto &kv) {
            return kv.second.fullBy(now);
        });
    }

    TokenBucket &b =
        quotas_.try_emplace(key, opts_.quotaRate, opts_.quotaBurst)
            .first->second;
    if (b.take(now))
        return true;
    daemonMetrics().rejectsQuota->inc();
    res = errorResponse(makeError(
        errc::kQuotaExceeded,
        "client submission quota exhausted", key));
    res.headers.emplace_back(
        "Retry-After",
        std::to_string(std::max(
            1, static_cast<int>(
                   std::ceil(b.secondsToToken())))));
    return false;
}

HttpResponse
CompileDaemon::handleSubmit(const HttpRequest &req)
{
    // Fast-path drain rejection before the body is even parsed; the
    // authoritative check is repeated inside the admission section
    // below, where it cannot race beginDrain()/waitDrained().
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (draining_)
            return drainingResponse();
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

    std::uint64_t id = 0;
    {
        // Every admission decision and the submit under ONE lock:
        // concurrent submissions cannot squeeze past the bound, and
        // a submission cannot slip in after waitDrained() saw the
        // service idle.
        std::lock_guard<std::mutex> lk(mu_);
        if (draining_)
            return drainingResponse();
        if (opts_.maxQueue && svc_.inFlight() >= opts_.maxQueue) {
            daemonMetrics().rejectsQueueFull->inc();
            return retryResponse(makeError(
                errc::kQueueFull,
                "admission queue is full (" +
                    std::to_string(opts_.maxQueue) + " jobs)"));
        }
        // Quota last: a submission bounced by the drain or the queue
        // bound must not charge the client's bucket.
        HttpResponse quotaRes;
        if (!admitQuotaLocked(req, quotaRes))
            return quotaRes;
        id = svc_.submit(std::move(creq));
        daemonMetrics().jobsAccepted->inc();
    }

    JsonValue doc = envelope();
    doc.set("id", JsonValue::makeNumber(static_cast<double>(id)));
    doc.set("status", JsonValue::makeString("queued"));
    return jsonResponse(202, doc);
}

HttpResponse
CompileDaemon::handleStatus(std::uint64_t id)
{
    service::JobStatus st;
    if (!svc_.status(id, st))
        return errorResponse(makeError(
            errc::kNotFound, "no such job", std::to_string(id)));
    JsonValue doc = envelope();
    doc.set("id", JsonValue::makeNumber(static_cast<double>(id)));
    doc.set("name", JsonValue::makeString(st.name));
    doc.set("status",
            JsonValue::makeString(service::jobStateName(st.state)));
    JsonValue passes = JsonValue::makeArray();
    for (const compiler::PassTrace &t : st.passes)
        passes.push(service::api::passTraceToJson(t));
    doc.set("passes", std::move(passes));
    if (st.result) {
        doc.set("ok", JsonValue::makeBool(st.result->ok));
        doc.set("seconds",
                JsonValue::makeNumber(st.result->seconds));
        if (!st.result->ok)
            doc.set("error", service::api::errorToJson(
                                 st.result->errorInfo));
    }
    return jsonResponse(200, doc);
}

HttpResponse
CompileDaemon::handleResult(std::uint64_t id)
{
    service::JobStatus st;
    if (!svc_.status(id, st))
        return errorResponse(makeError(
            errc::kNotFound, "no such job", std::to_string(id)));
    if (st.state == service::JobState::Canceled)
        return errorResponse(makeError(
            errc::kCanceled, "job was canceled before running",
            std::to_string(id)));
    if (!st.result)  // queued or running
        return errorResponse(makeError(
            errc::kNotReady,
            "job is still " +
                std::string(service::jobStateName(st.state)),
            std::to_string(id)));
    service::api::ResultEmitOptions emit;
    emit.artifacts = true;
    emit.isaText = true;
    return jsonResponse(
        200, service::api::jobResultToJson(*st.result, emit));
}

HttpResponse
CompileDaemon::handleCancel(std::uint64_t id)
{
    switch (svc_.cancel(id)) {
    case service::CompileService::CancelOutcome::Canceled:
        break;
    case service::CompileService::CancelOutcome::Running:
        return errorResponse(makeError(
            errc::kNotCancelable,
            "job is already running; cancellation never "
            "interrupts a compile",
            std::to_string(id)));
    case service::CompileService::CancelOutcome::Finished:
        return errorResponse(makeError(errc::kAlreadyCompleted,
                                       "job already completed",
                                       std::to_string(id)));
    case service::CompileService::CancelOutcome::Unknown:
        return errorResponse(makeError(
            errc::kNotFound, "no such job", std::to_string(id)));
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
    {
        std::lock_guard<std::mutex> lk(mu_);
        doc.set("draining", JsonValue::makeBool(draining_));
    }
    doc.set("activeJobs", JsonValue::makeNumber(
                              static_cast<double>(svc_.inFlight())));
    doc.set("accepted", JsonValue::makeNumber(
                            static_cast<double>(svc_.submitted())));
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
