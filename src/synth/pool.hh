/**
 * @file
 * Bounded task pool for intra-job parallelism: block resynthesis and
 * pulse solving.
 *
 * The 3Q resynthesis targets inside compiler::hierarchicalSynthesis
 * are independent (each synthesizeBlock call is a pure function of
 * its target and options), so a single large circuit can fan its
 * blocks out across workers; likewise the Newton starts of a genAshN
 * EA solve (uarch::GateScheme) inside the calibrate pass. A BlockPool
 * owns a fixed number of helper threads and is designed to be
 * *shared* — the service keeps one pool beside its job pool so the
 * total thread count stays capped no matter how many jobs are in
 * flight.
 *
 * run() is a fan-out/join primitive with caller participation: the
 * submitting thread executes queued tasks itself until its batch
 * completes, so a pool with zero helper threads degrades to plain
 * serial execution and a shared pool can never deadlock a waiting
 * job (the waiter drains the queue, including other jobs' tasks).
 *
 * Determinism: the pool imposes no ordering on task execution, so it
 * must only be used for tasks that are independent and write to
 * disjoint slots — exactly the contract hierarchicalSynthesis
 * upholds (results land in an index-addressed vector and are emitted
 * in block order afterwards), which is what keeps the parallel gate
 * stream bit-identical to the serial one at every worker count. The
 * EA multistart upholds it too: its worker tasks claim starts under
 * one mutex, each start lands in its own slot and a fold consumes the
 * slots in start order.
 */

#ifndef REQISC_SYNTH_POOL_HH
#define REQISC_SYNTH_POOL_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/span.hh"

namespace reqisc::synth
{

/** Shared bounded pool for block-synthesis and pulse-solve tasks. */
class BlockPool
{
  public:
    /**
     * @param helper_threads threads spawned in addition to the
     *        callers that join their own batches; 0 means run()
     *        executes everything on the calling thread.
     */
    explicit BlockPool(int helper_threads);
    ~BlockPool();

    BlockPool(const BlockPool &) = delete;
    BlockPool &operator=(const BlockPool &) = delete;

    /** Helper threads owned by the pool. */
    int helperThreads() const
    {
        return static_cast<int>(workers_.size());
    }

    /** Workers a batch can use at once (helpers + the caller). */
    int workers() const { return helperThreads() + 1; }

    /**
     * Execute every task and return when all of them finished. The
     * caller participates; tasks of other concurrent batches may be
     * executed by this thread while it drains the queue (that only
     * speeds them up). The first exception a task of this batch
     * throws is rethrown here after the batch completes.
     */
    void run(std::vector<std::function<void()>> tasks);

  private:
    /** Join state of one run() call. */
    struct Batch
    {
        std::mutex mu;
        std::condition_variable cv;
        std::size_t remaining = 0;
        std::exception_ptr error;
    };

    struct Item
    {
        std::function<void()> fn;
        std::shared_ptr<Batch> batch;
        /** Span of the run() caller, so each executed task can be
         *  traced as its child even on a helper thread. */
        obs::SpanContext parent;
        /** JobScope name of the run() caller, re-entered on the
         *  executing thread so block-task spans / logs / flight
         *  events keep their job attribution across threads. */
        std::string job;
    };

    void execute(Item &item);
    void workerLoop();
    void noteQueueDepth() const;  //!< callers hold mu_

    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<Item> queue_;
    bool stopping_ = false;
    std::vector<std::thread> workers_;

    /** Utilization accounting: busy seconds across all executors
     *  over (wall seconds since construction x workers()). */
    std::chrono::steady_clock::time_point started_;
    std::atomic<double> busySeconds_{0.0};
};

} // namespace reqisc::synth

#endif // REQISC_SYNTH_POOL_HH
