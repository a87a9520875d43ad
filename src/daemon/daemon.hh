/**
 * @file
 * reqisc-compiled — the compile service as a network daemon, on the
 * v1 job API (service/api.hh):
 *
 *     POST   /v1/jobs           submit a compile job (202 + id)
 *     GET    /v1/jobs/{id}      status + per-pass progress so far
 *     GET    /v1/jobs/{id}/result  the full result document
 *     DELETE /v1/jobs/{id}      cancel (only a still-queued job)
 *     GET    /healthz           liveness (+ draining flag)
 *     GET    /metrics           Prometheus exposition (src/obs)
 *
 * The daemon is HTTP admission over a service::CompileService: a
 * submission is validated (strict schema, pipeline spec checked up
 * front), admitted against a bounded queue and per-client token
 * buckets, and submitted. The service's job table is the registry:
 * status, result and cancel read and act on it, and the daemon keeps
 * no per-job state. Overload is always an immediate structured 429
 * with Retry-After — the daemon never blocks a client on a full
 * queue.
 *
 * Graceful drain: beginDrain() makes every new submission a 503
 * `shutting-down` while queued and running jobs keep going;
 * waitDrained() returns once none are left. The reqisc-compiled
 * binary wires SIGTERM to exactly that, then flushes the persistent
 * caches and the flight recorder — an accepted job is never lost to
 * a shutdown.
 */

#ifndef REQISC_DAEMON_DAEMON_HH
#define REQISC_DAEMON_DAEMON_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "daemon/http.hh"
#include "service/service.hh"

namespace reqisc::daemon
{

struct DaemonOptions
{
    /**
     * The service underneath. Its maxFinished defaults to 1024 here:
     * a long-running daemon must not grow with every job it ever
     * served, so status and result of all but the newest 1024
     * finished jobs answer 404.
     */
    service::ServiceOptions service = [] {
        service::ServiceOptions o;
        o.maxFinished = 1024;
        return o;
    }();
    HttpServerOptions http;
    /**
     * Admission bound: jobs queued-or-running beyond which POST
     * /v1/jobs answers 429 `queue-full` (with Retry-After) instead
     * of enqueueing. 0 disables the bound.
     */
    std::size_t maxQueue = 64;
    /**
     * Per-client token bucket (0 rate disables quotas): each client
     * — keyed by peer IP, refined by the `X-Client-Id` header when
     * sent — accrues `quotaRate` submissions/second up to
     * `quotaBurst`. An empty bucket answers 429 `quota-exceeded` +
     * Retry-After. Quota is only charged for admitted submissions;
     * buckets idle long enough to be full again are swept out.
     */
    double quotaRate = 0.0;
    double quotaBurst = 8.0;
};

class CompileDaemon
{
  public:
    explicit CompileDaemon(DaemonOptions opts);

    CompileDaemon(const CompileDaemon &) = delete;
    CompileDaemon &operator=(const CompileDaemon &) = delete;

    /** Start the HTTP server. False (with error) on bind failure. */
    bool start(std::string &error);

    /** The bound TCP port. */
    int port() const { return server_.port(); }

    /** Stop admitting jobs (503 shutting-down); serving continues. */
    void beginDrain();
    /** Block until no job is queued or running. */
    void waitDrained();
    /** Stop the HTTP server (after draining, normally). */
    void stop();

    /** The service underneath (cache flush, stats). */
    service::CompileService &service() { return svc_; }

  private:
    /**
     * One client's quota: full when made, refilled at `rate` tokens
     * per second up to `burst`. Guarded by mu_.
     */
    class TokenBucket
    {
      public:
        using Clock = std::chrono::steady_clock;

        TokenBucket(double rate, double burst)
            : rate_(rate), burst_(burst), tokens_(burst)
        {
        }

        /** Refill up to `now`, then take one token if there is one. */
        bool take(Clock::time_point now)
        {
            tokens_ = refilled(now);
            last_ = now;
            if (tokens_ < 1.0)
                return false;
            tokens_ -= 1.0;
            return true;
        }

        /** Seconds from the last take() until the next token. */
        double secondsToToken() const { return (1.0 - tokens_) / rate_; }

        /** Is the bucket full again by `now`? */
        bool fullBy(Clock::time_point now) const
        {
            return refilled(now) >= burst_;
        }

      private:
        double refilled(Clock::time_point now) const
        {
            const double idle =
                std::chrono::duration<double>(now - last_).count();
            return std::min(burst_, tokens_ + idle * rate_);
        }

        double rate_, burst_, tokens_;
        /** Last refill; the clock's epoch at first, so the first
         *  take() finds the bucket full. */
        Clock::time_point last_;
    };

    HttpResponse handle(const HttpRequest &req);
    HttpResponse handleSubmit(const HttpRequest &req);
    HttpResponse handleStatus(std::uint64_t id);
    HttpResponse handleResult(std::uint64_t id);
    HttpResponse handleCancel(std::uint64_t id);
    HttpResponse handleHealth();
    HttpResponse handleMetrics();

    /**
     * False + a filled response when the client's bucket is empty.
     * Requires mu_ held: the token is consumed in the same critical
     * section that admits the job, so a rejected submission never
     * charges the bucket.
     */
    bool admitQuotaLocked(const HttpRequest &req, HttpResponse &res);

    DaemonOptions opts_;

    /**
     * Guards admission only: the drain flag and the quota buckets.
     * Lock order daemon -> service; the service never calls back.
     */
    std::mutex mu_;
    std::map<std::string, TokenBucket> quotas_;
    std::uint64_t quotaSweep_ = 0;  //!< admissions since last sweep
    bool draining_ = false;

    service::CompileService svc_;
    /** Declared last: it stops (joining the handlers that call into
     *  svc_) before the service is destroyed. */
    HttpServer server_;
};

} // namespace reqisc::daemon

#endif // REQISC_DAEMON_DAEMON_HH
