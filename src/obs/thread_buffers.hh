/**
 * @file
 * The observability layer's one thread numbering and one per-thread
 * record registry, shared by the Tracer and the Logger.
 */

#ifndef REQISC_OBS_THREAD_BUFFERS_HH
#define REQISC_OBS_THREAD_BUFFERS_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <variant>
#include <vector>

namespace reqisc::obs
{

/**
 * Process-wide dense index of the calling thread, assigned on its
 * first call: the `tid` of traces, log records and flight events,
 * and the metric cell slot. The thread_local is trivially
 * destructible, so it stays readable during teardown.
 */
inline std::uint32_t threadIndex()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t index =
        next.fetch_add(1, std::memory_order_relaxed);
    return index;
}

namespace detail
{

/**
 * Per-thread buffers of Records (each with a `tid` field). A thread's
 * buffer registers on its first local() and is handed back at thread
 * exit, so records of short-lived pool threads survive into
 * collect(). State is scratch only the owning thread touches.
 */
template <class Record, class State = std::monostate>
class ThreadBuffers
{
  public:
    struct Buffer
    {
        ThreadBuffers *owner = nullptr;
        std::uint32_t tid = 0;  //!< threadIndex() at registration
        State state;  //!< owner thread only
        std::mutex mu;  //!< guards records
        std::vector<Record> records;

        /** Stamp this thread's tid on rec and append it. */
        void push(Record rec)
        {
            rec.tid = tid;
            std::lock_guard lock(mu);
            records.push_back(std::move(rec));
        }
    };

    /** The calling thread's buffer, registered on first use. */
    Buffer &local()
    {
        struct Holder
        {
            Buffer *buf = nullptr;
            ~Holder()
            {
                if (buf != nullptr)
                    buf->owner->retire(buf);
            }
        };
        thread_local Holder holder;
        if (holder.buf == nullptr || holder.buf->owner != this)
        {
            auto buf = std::make_unique<Buffer>();
            buf->owner = this;
            buf->tid = threadIndex();
            std::lock_guard lock(mu_);
            live_.push_back(buf.get());
            holder.buf = buf.release();  // retired_ owns it at exit
        }
        return *holder.buf;
    }

    /** Every record of live and exited threads, stable-sorted. */
    template <class Less>
    std::vector<Record> collect(Less less)
    {
        std::vector<Record> out;
        {
            std::lock_guard lock(mu_);
            const auto take = [&out](Buffer &buf) {
                std::lock_guard bufLock(buf.mu);
                out.insert(out.end(), buf.records.begin(),
                           buf.records.end());
            };
            for (Buffer *buf : live_)
                take(*buf);
            for (const auto &buf : retired_)
                take(*buf);
        }
        std::stable_sort(out.begin(), out.end(), less);
        return out;
    }

    /** Empty the live buffers and drop those of exited threads. */
    void clear()
    {
        std::lock_guard lock(mu_);
        for (Buffer *buf : live_)
        {
            std::lock_guard bufLock(buf->mu);
            buf->records.clear();
        }
        retired_.clear();
    }

  private:
    void retire(Buffer *buf)
    {
        std::lock_guard lock(mu_);
        live_.erase(std::remove(live_.begin(), live_.end(), buf),
                    live_.end());
        retired_.emplace_back(buf);
    }

    std::mutex mu_;  //!< guards live_ and retired_
    std::vector<Buffer *> live_;
    std::vector<std::unique_ptr<Buffer>> retired_;
};

} // namespace detail

} // namespace reqisc::obs

#endif // REQISC_OBS_THREAD_BUFFERS_HH
