/**
 * @file
 * The one token bucket, full on first use and refilled at `rate`
 * tokens per second up to `burst`. The daemon's per-client quotas
 * (daemon/daemon.cc) meter with it, passing the limit on each call.
 * Not synchronized.
 */

#ifndef REQISC_OBS_TOKEN_BUCKET_HH
#define REQISC_OBS_TOKEN_BUCKET_HH

#include <algorithm>
#include <chrono>

namespace reqisc::obs
{

class TokenBucket
{
  public:
    using Clock = std::chrono::steady_clock;

    /** Refill up to `now`, then take one token if there is one. */
    bool take(double rate, double burst, Clock::time_point now)
    {
        tokens_ = started_ ? refilled(rate, burst, now) : burst;
        started_ = true;
        last_ = now;
        if (tokens_ < 1.0)
            return false;
        tokens_ -= 1.0;
        return true;
    }

    /** Seconds from the last take() until the next token. */
    double secondsToToken(double rate) const
    {
        return (1.0 - tokens_) / rate;
    }

    /** Is the bucket full again by `now`? */
    bool fullBy(double rate, double burst, Clock::time_point now) const
    {
        return refilled(rate, burst, now) >= burst;
    }

  private:
    double refilled(double rate, double burst, Clock::time_point now) const
    {
        const double idle =
            std::chrono::duration<double>(now - last_).count();
        return std::min(burst, tokens_ + idle * rate);
    }

    double tokens_ = 0.0;
    Clock::time_point last_;
    bool started_ = false;
};

} // namespace reqisc::obs

#endif // REQISC_OBS_TOKEN_BUCKET_HH
