/**
 * @file
 * Thread-safe metrics registry: counters, gauges and fixed-bucket
 * histograms with Prometheus-exposition-format snapshots.
 *
 * Each counter is one atomic and each histogram one bucket array, one
 * count and one sum, so a write is a few relaxed atomic RMWs behind a
 * relaxed enabled check. The traffic is small: a cold
 * `reqisc-compile --suite medium --no-cache --block-workers 4` run
 * makes about 4,300 registry writes from 5 threads in 0.4 s on a
 * 4-core x86_64 host. A snapshot taken while writers are running may miss
 * increments still in flight (and a histogram's count, sum and
 * buckets may disagree by those); after joining the writing threads
 * it is exact.
 *
 * Gauges are a single atomic (last-set-wins across threads), which
 * matches their use: low-frequency level signals (queue depth,
 * jobs in flight), not high-rate accumulation.
 *
 * A Registry is instantiable for tests; production code uses the
 * process-wide Registry::global(), which starts *disabled* — every
 * write is a no-op costing one relaxed load until setEnabled(true)
 * (the near-zero-cost-when-off contract, bench-guarded by
 * bench_service's obsOverhead metric). Metric registration is
 * independent of the enabled flag and idempotent by name.
 *
 * This layer is at the very bottom of the dependency order: it may
 * be used from any other subsystem and depends only on the standard
 * library. All time-valued metrics are seconds measured with
 * std::chrono::steady_clock (the repo-wide clock discipline).
 */

#ifndef REQISC_OBS_METRICS_HH
#define REQISC_OBS_METRICS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace reqisc::obs
{

class Registry;

/** Whether a counter's deltas also reach the flight recorder. */
enum class FlightEvents
{
    Record,  //!< one flight event per add() (the default)
    /**
     * No flight events: for a count bumped inside numeric inner
     * loops, whose events would push the spans a dump is for out
     * of the 256-slot per-thread rings.
     */
    Skip,
};

/** Monotonically increasing sum (Prometheus `counter`). */
class Counter
{
  public:
    /**
     * Out of line (unlike PR 7) so every delta also reaches the
     * always-on flight recorder (unless registered with
     * FlightEvents::Skip) before the registry enabled check.
     */
    void add(std::int64_t n = 1);
    void inc() { add(1); }

    std::int64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    friend class Registry;
    Counter(std::string name, std::string help,
            const std::atomic<bool> *enabled, FlightEvents flight);

    std::string name_, help_;
    const std::atomic<bool> *enabled_;
    bool flight_;
    std::atomic<std::int64_t> value_{0};
};

/** Last-set-wins level signal (Prometheus `gauge`). */
class Gauge
{
  public:
    void set(double v);
    double value() const;

  private:
    friend class Registry;
    Gauge(std::string name, std::string help,
          const std::atomic<bool> *enabled);

    std::string name_, help_;
    const std::atomic<bool> *enabled_;
    std::atomic<std::uint64_t> bits_;  //!< bit-cast double
};

/**
 * Fixed-bucket histogram (Prometheus `histogram`): cumulative `le`
 * buckets over strictly increasing finite upper bounds plus an
 * implicit +Inf overflow bucket, a total count and a value sum.
 */
class Histogram
{
  public:
    void observe(double v);

    const std::vector<double> &bounds() const { return bounds_; }

  private:
    friend class Registry;
    Histogram(std::string name, std::string help,
              std::vector<double> bounds,
              const std::atomic<bool> *enabled);

    std::string name_, help_;
    std::vector<double> bounds_;
    const std::atomic<bool> *enabled_;
    /** One per finite bound plus the +Inf overflow bucket. */
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

// ---- Snapshots ---------------------------------------------------------

struct CounterSnapshot
{
    std::string name, help;
    std::int64_t value = 0;
};

struct GaugeSnapshot
{
    std::string name, help;
    double value = 0.0;
};

struct HistogramSnapshot
{
    std::string name, help;
    std::vector<double> bounds;          //!< finite upper bounds
    std::vector<std::uint64_t> buckets;  //!< per bucket; last = +Inf
    std::uint64_t count = 0;
    double sum = 0.0;

    /**
     * Prometheus histogram_quantile semantics: find the bucket the
     * q-rank falls in and interpolate linearly inside it (lower edge
     * of the first bucket is 0 — observations are assumed
     * non-negative, which every time-valued metric here satisfies).
     * Ranks beyond the last finite bound return that bound.
     *
     * An empty histogram (count == 0) has no quantiles: returns
     * quiet NaN — the same sentinel Prometheus's
     * histogram_quantile() yields with no samples — so a consumer
     * (obsreport) can distinguish "no data" from a genuine 0-valued
     * quantile instead of dividing by a zero count. Check with
     * std::isnan before using the result.
     */
    double quantile(double q) const;
};

struct MetricsSnapshot
{
    std::vector<CounterSnapshot> counters;
    std::vector<GaugeSnapshot> gauges;
    std::vector<HistogramSnapshot> histograms;

    /**
     * Prometheus text exposition format (version 0.0.4): HELP/TYPE
     * comment pairs, one sample line per counter/gauge, cumulative
     * `le`-labelled bucket lines plus _sum/_count per histogram.
     * Families are emitted name-sorted within each type; doubles are
     * shortest-round-trip formatted.
     */
    std::string prometheusText() const;
};

// ---- Registry ----------------------------------------------------------

/** Owner of the metric objects; see @file for the hot-path model. */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Process-wide registry (leaky singleton; starts disabled). */
    static Registry &global();

    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Register (or fetch) a metric by name. Returned pointers are
     * stable for the registry's lifetime. Re-registering an existing
     * name of the same type returns the existing metric (help, a
     * counter's flight choice and a histogram's bounds of the first
     * registration win); a name clash across types throws
     * std::invalid_argument.
     */
    Counter *counter(const std::string &name, const std::string &help,
                     FlightEvents flight = FlightEvents::Record);
    Gauge *gauge(const std::string &name, const std::string &help);
    Histogram *histogram(const std::string &name,
                         const std::string &help,
                         std::vector<double> bounds = {});

    /** Copy every metric's current value (see @file). */
    MetricsSnapshot snapshot() const;

  private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;  //!< registration + snapshot only
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/**
 * Default histogram bounds for second-valued observations:
 * log-spaced 1 µs .. 10 s (1-2.5-5 decades), covering cache
 * verifications through whole-job compiles.
 */
std::vector<double> defaultTimeBuckets();

/**
 * Prometheus exposition of the global registry — the string the
 * compile daemon serves on /metrics, and what
 * `reqisc-compile --metrics-out` writes.
 */
std::string metricsSnapshot();

} // namespace reqisc::obs

#endif // REQISC_OBS_METRICS_HH
