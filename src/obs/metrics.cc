#include "obs/metrics.hh"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <system_error>

#include "obs/flight.hh"

namespace reqisc::obs
{

namespace
{

/** Shortest round-trip decimal for the exposition format. */
std::string formatDouble(double v)
{
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    if (std::isnan(v))
        return "NaN";
    char buf[32];
    const auto [end, ec] =
        std::to_chars(buf, buf + sizeof(buf), v);
    if (ec != std::errc{})
        return "0";  // unreachable for finite doubles with 32 chars
    return std::string(buf, end);
}

} // namespace

// ---- Counter -----------------------------------------------------------

Counter::Counter(std::string name, std::string help,
                 const std::atomic<bool> *enabled, FlightEvents flight)
    : name_(std::move(name)), help_(std::move(help)),
      enabled_(enabled), flight_(flight == FlightEvents::Record)
{
}

void Counter::add(std::int64_t n)
{
    // The flight recorder sees every delta regardless of whether
    // the (opt-in) registry is collecting.
    if (flight_)
        flight::record(flight::Kind::Counter, name_.c_str(), "",
                       static_cast<double>(n));
    if (!enabled_->load(std::memory_order_relaxed))
        return;
    value_.fetch_add(n, std::memory_order_relaxed);
}

// ---- Gauge -------------------------------------------------------------

Gauge::Gauge(std::string name, std::string help,
             const std::atomic<bool> *enabled)
    : name_(std::move(name)), help_(std::move(help)),
      enabled_(enabled), bits_(std::bit_cast<std::uint64_t>(0.0))
{
}

void Gauge::set(double v)
{
    flight::record(flight::Kind::Gauge, name_.c_str(), "", v);
    if (!enabled_->load(std::memory_order_relaxed))
        return;
    bits_.store(std::bit_cast<std::uint64_t>(v),
                std::memory_order_relaxed);
}

double Gauge::value() const
{
    return std::bit_cast<double>(
        bits_.load(std::memory_order_relaxed));
}

// ---- Histogram ---------------------------------------------------------

Histogram::Histogram(std::string name, std::string help,
                     std::vector<double> bounds,
                     const std::atomic<bool> *enabled)
    : name_(std::move(name)), help_(std::move(help)),
      bounds_(std::move(bounds)), enabled_(enabled)
{
    if (bounds_.empty())
        throw std::invalid_argument(
            "obs: histogram '" + name_ + "' needs >= 1 bound");
    for (std::size_t i = 0; i < bounds_.size(); ++i)
    {
        if (!std::isfinite(bounds_[i]) ||
            (i > 0 && bounds_[i] <= bounds_[i - 1]))
            throw std::invalid_argument(
                "obs: histogram '" + name_ +
                "' bounds must be finite and strictly increasing");
    }
    buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(
        bounds_.size() + 1);
}

void Histogram::observe(double v)
{
    flight::record(flight::Kind::Histogram, name_.c_str(), "", v);
    if (!enabled_->load(std::memory_order_relaxed))
        return;
    // First bound >= v, i.e. the Prometheus `le` bucket; past-the-end
    // lands in the +Inf overflow slot.
    const std::size_t idx =
        std::lower_bound(bounds_.begin(), bounds_.end(), v) -
        bounds_.begin();
    buckets_[idx].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
}

// ---- Snapshots ---------------------------------------------------------

double HistogramSnapshot::quantile(double q) const
{
    // No samples -> no quantiles: NaN sentinel (see metrics.hh).
    if (count == 0 || bounds.empty())
        return std::numeric_limits<double>::quiet_NaN();
    q = std::clamp(q, 0.0, 1.0);
    const double rank = q * static_cast<double>(count);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < bounds.size(); ++i)
    {
        const std::uint64_t prev = cum;
        cum += buckets[i];
        if (static_cast<double>(cum) >= rank)
        {
            const double lower = i == 0 ? 0.0 : bounds[i - 1];
            const std::uint64_t inBucket = buckets[i];
            if (inBucket == 0)
                return bounds[i];
            return lower +
                   (bounds[i] - lower) *
                       (rank - static_cast<double>(prev)) /
                       static_cast<double>(inBucket);
        }
    }
    // Rank falls in the +Inf bucket: the best bounded estimate is the
    // largest finite bound (Prometheus does the same).
    return bounds.back();
}

std::string MetricsSnapshot::prometheusText() const
{
    std::string out;
    out.reserve(1024);
    for (const auto &c : counters)
    {
        out += "# HELP " + c.name + " " + c.help + "\n";
        out += "# TYPE " + c.name + " counter\n";
        out += c.name + " " + std::to_string(c.value) + "\n";
    }
    for (const auto &g : gauges)
    {
        out += "# HELP " + g.name + " " + g.help + "\n";
        out += "# TYPE " + g.name + " gauge\n";
        out += g.name + " " + formatDouble(g.value) + "\n";
    }
    for (const auto &h : histograms)
    {
        out += "# HELP " + h.name + " " + h.help + "\n";
        out += "# TYPE " + h.name + " histogram\n";
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < h.bounds.size(); ++i)
        {
            cum += h.buckets[i];
            out += h.name + "_bucket{le=\"" +
                   formatDouble(h.bounds[i]) + "\"} " +
                   std::to_string(cum) + "\n";
        }
        out += h.name + "_bucket{le=\"+Inf\"} " +
               std::to_string(h.count) + "\n";
        out += h.name + "_sum " + formatDouble(h.sum) + "\n";
        out += h.name + "_count " + std::to_string(h.count) + "\n";
    }
    return out;
}

// ---- Registry ----------------------------------------------------------

Registry &Registry::global()
{
    // Leaky: outlives every static/thread_local destructor so late
    // metric writes during teardown stay safe.
    static Registry *g = new Registry();
    return *g;
}

Counter *Registry::counter(const std::string &name,
                           const std::string &help,
                           FlightEvents flight)
{
    std::lock_guard lock(mu_);
    if (gauges_.count(name) || histograms_.count(name))
        throw std::invalid_argument(
            "obs: metric '" + name +
            "' already registered with a different type");
    auto it = counters_.find(name);
    if (it == counters_.end())
        it = counters_
                 .emplace(name, std::unique_ptr<Counter>(new Counter(
                                    name, help, &enabled_, flight)))
                 .first;
    return it->second.get();
}

Gauge *Registry::gauge(const std::string &name,
                       const std::string &help)
{
    std::lock_guard lock(mu_);
    if (counters_.count(name) || histograms_.count(name))
        throw std::invalid_argument(
            "obs: metric '" + name +
            "' already registered with a different type");
    auto it = gauges_.find(name);
    if (it == gauges_.end())
        it = gauges_
                 .emplace(name, std::unique_ptr<Gauge>(
                                    new Gauge(name, help, &enabled_)))
                 .first;
    return it->second.get();
}

Histogram *Registry::histogram(const std::string &name,
                               const std::string &help,
                               std::vector<double> bounds)
{
    std::lock_guard lock(mu_);
    if (counters_.count(name) || gauges_.count(name))
        throw std::invalid_argument(
            "obs: metric '" + name +
            "' already registered with a different type");
    auto it = histograms_.find(name);
    if (it == histograms_.end())
    {
        if (bounds.empty())
            bounds = defaultTimeBuckets();
        it = histograms_
                 .emplace(name,
                          std::unique_ptr<Histogram>(new Histogram(
                              name, help, std::move(bounds),
                              &enabled_)))
                 .first;
    }
    return it->second.get();
}

MetricsSnapshot Registry::snapshot() const
{
    std::lock_guard lock(mu_);
    MetricsSnapshot snap;
    snap.counters.reserve(counters_.size());
    for (const auto &[name, c] : counters_)
        snap.counters.push_back({name, c->help_, c->value()});
    snap.gauges.reserve(gauges_.size());
    for (const auto &[name, g] : gauges_)
        snap.gauges.push_back({name, g->help_, g->value()});
    snap.histograms.reserve(histograms_.size());
    for (const auto &[name, h] : histograms_)
    {
        HistogramSnapshot hs;
        hs.name = name;
        hs.help = h->help_;
        hs.bounds = h->bounds_;
        for (std::size_t b = 0; b <= hs.bounds.size(); ++b)
            hs.buckets.push_back(
                h->buckets_[b].load(std::memory_order_relaxed));
        hs.count = h->count_.load(std::memory_order_relaxed);
        hs.sum = h->sum_.load(std::memory_order_relaxed);
        snap.histograms.push_back(std::move(hs));
    }
    return snap;
}

std::vector<double> defaultTimeBuckets()
{
    // 1-2.5-5 per decade, 1 µs .. 10 s.
    std::vector<double> b;
    for (double decade = 1e-6; decade < 10.0; decade *= 10.0)
    {
        b.push_back(decade);
        b.push_back(decade * 2.5);
        b.push_back(decade * 5.0);
    }
    b.push_back(10.0);
    return b;
}

std::string metricsSnapshot()
{
    return Registry::global().snapshot().prometheusText();
}

} // namespace reqisc::obs
