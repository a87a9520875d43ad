#include "synth/pool.hh"

#include <utility>

#include "obs/log.hh"
#include "obs/metrics.hh"

namespace reqisc::synth
{

namespace
{

/**
 * Lazily registered pool metrics. Several pools (rare outside tests)
 * share these: gauges are last-writer-wins, counters/histograms
 * accumulate across pools — both acceptable for a process that in
 * practice runs one shared pool beside the service.
 */
struct PoolMetrics
{
    obs::Gauge *queueDepth;
    obs::Gauge *workers;
    obs::Gauge *utilization;
    obs::Counter *tasks;
    obs::Histogram *taskSeconds;
};

PoolMetrics &poolMetrics()
{
    static PoolMetrics m = [] {
        auto &r = obs::Registry::global();
        return PoolMetrics{
            r.gauge("reqisc_blockpool_queue_depth",
                    "Block-synthesis and EA-multistart worker tasks "
                    "waiting in the shared pool queue"),
            r.gauge("reqisc_blockpool_workers",
                    "Executors a batch can use at once (helper "
                    "threads + the joining caller)"),
            r.gauge("reqisc_blockpool_utilization",
                    "Busy seconds / (wall seconds x workers) since "
                    "pool construction, in [0, 1]"),
            r.counter("reqisc_blockpool_tasks_total",
                      "Block-synthesis and EA-multistart worker "
                      "tasks executed"),
            r.histogram("reqisc_blockpool_task_seconds",
                        "Latency of one block-synthesis or "
                        "EA-multistart worker task"),
        };
    }();
    return m;
}

} // namespace

BlockPool::BlockPool(int helper_threads)
    : started_(std::chrono::steady_clock::now())
{
    if (helper_threads < 0)
        helper_threads = 0;
    workers_.reserve(static_cast<std::size_t>(helper_threads));
    for (int i = 0; i < helper_threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    poolMetrics().workers->set(workers());
    obs::log(obs::LogLevel::Info, "blockpool", "pool started",
             {{"helpers", std::to_string(helperThreads())}});
}

BlockPool::~BlockPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void BlockPool::noteQueueDepth() const
{
    poolMetrics().queueDepth->set(
        static_cast<double>(queue_.size()));
}

void BlockPool::execute(Item &item)
{
    obs::JobScope jobScope(item.job);
    obs::Span span("block-task", item.parent);
    try
    {
        item.fn();
    }
    catch (...)
    {
        obs::log(obs::LogLevel::Error, "blockpool",
                 "block task failed");
        std::lock_guard<std::mutex> lock(item.batch->mu);
        if (!item.batch->error)
            item.batch->error = std::current_exception();
    }
    const double secs = span.stop();
    PoolMetrics &m = poolMetrics();
    m.tasks->inc();
    m.taskSeconds->observe(secs);
    const double busy =
        busySeconds_.fetch_add(secs, std::memory_order_relaxed) +
        secs;
    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - started_)
            .count();
    if (wall > 0.0)
        m.utilization->set(busy / (wall * workers()));

    std::size_t left;
    {
        std::lock_guard<std::mutex> lock(item.batch->mu);
        left = --item.batch->remaining;
    }
    if (left == 0)
        item.batch->cv.notify_all();
}

void BlockPool::workerLoop()
{
    for (;;)
    {
        Item item;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock,
                     [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping_ and drained
            item = std::move(queue_.front());
            queue_.pop_front();
            noteQueueDepth();
        }
        execute(item);
    }
}

void BlockPool::run(std::vector<std::function<void()>> tasks)
{
    if (tasks.empty())
        return;
    auto batch = std::make_shared<Batch>();
    batch->remaining = tasks.size();
    // Tasks may execute on helper threads whose span stacks know
    // nothing about this job; carry the caller's innermost span and
    // job name so block-task events still parent and attribute onto
    // it.
    const obs::SpanContext parent = obs::currentSpan();
    const std::string job = obs::currentJobName();
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &t : tasks)
            queue_.push_back(Item{std::move(t), batch, parent, job});
        noteQueueDepth();
    }
    cv_.notify_all();

    // Caller participation: drain the queue (our batch's tasks and,
    // possibly, other batches' — executing those only helps them)
    // until it is empty, then wait for any of our tasks still being
    // executed by helper threads.
    for (;;)
    {
        Item item;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (queue_.empty())
                break;
            item = std::move(queue_.front());
            queue_.pop_front();
            noteQueueDepth();
        }
        execute(item);
    }
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->cv.wait(lock, [&] { return batch->remaining == 0; });
    if (batch->error)
        std::rethrow_exception(batch->error);
}

} // namespace reqisc::synth
