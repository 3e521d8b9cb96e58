#include "runner/worker_pool.h"

#include <algorithm>
#include <chrono>

#include "util/metrics.h"

namespace vdram {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t
nowNanos()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

} // namespace

bool
WorkerPool::JobContext::cancelled() const
{
    return pool_->slots_[static_cast<size_t>(worker_)].cancel.load(
        std::memory_order_acquire);
}

void
WorkerPool::JobContext::armDeadline(double seconds)
{
    Slot& slot = pool_->slots_[static_cast<size_t>(worker_)];
    slot.cancel.store(false, std::memory_order_release);
    slot.deadlineNanos.store(
        seconds > 0
            ? nowNanos() + static_cast<std::int64_t>(seconds * 1e9)
            : 0,
        std::memory_order_release);
}

void
WorkerPool::JobContext::clearDeadline()
{
    pool_->slots_[static_cast<size_t>(worker_)].deadlineNanos.store(
        0, std::memory_order_release);
}

WorkerPool::WorkerPool(int threads)
    : slots_(static_cast<size_t>(std::max(1, threads)))
{
    threads_.reserve(slots_.size());
    for (int i = 0; i < threadCount(); ++i)
        threads_.emplace_back(&WorkerPool::workerMain, this, i);
    watchdog_ = std::thread(&WorkerPool::watchdogMain, this);
}

WorkerPool::~WorkerPool()
{
    shutdown();
}

bool
WorkerPool::submit(JobFn job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (shutdownCalled_)
            return false;
        queue_.push_back(std::move(job));
    }
    workAvailable_.notify_one();
    return true;
}

void
WorkerPool::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] {
        return queue_.empty() && inFlight_ == 0;
    });
}

void
WorkerPool::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (shutdownCalled_) {
            // A second shutdown (destructor after an explicit call)
            // must not re-join joined threads.
            if (threads_.empty())
                return;
        }
        shutdownCalled_ = true;
    }
    workAvailable_.notify_all();
    for (std::thread& t : threads_) {
        if (t.joinable())
            t.join();
    }
    threads_.clear();
    stopping_.store(true, std::memory_order_release);
    if (watchdog_.joinable())
        watchdog_.join();
}

void
WorkerPool::workerMain(int index)
{
    Slot& slot = slots_[static_cast<size_t>(index)];
    for (;;) {
        JobFn job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workAvailable_.wait(lock, [this] {
                return shutdownCalled_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // shutdown with nothing left to do
            job = std::move(queue_.front());
            queue_.pop_front();
            ++inFlight_;
        }
        JobContext context(*this, index);
        try {
            job(context);
        } catch (...) {
            // Jobs own their error reporting; an escaped exception is
            // contained so a poisoned job cannot kill the pool thread.
            if (metricsEnabled())
                globalMetrics().counter("pool.job.exceptions").add();
        }
        slot.deadlineNanos.store(0, std::memory_order_release);
        slot.cancel.store(false, std::memory_order_release);
        bool became_idle = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --inFlight_;
            became_idle = queue_.empty() && inFlight_ == 0;
        }
        if (became_idle)
            idle_.notify_all();
    }
}

void
WorkerPool::watchdogMain()
{
    while (!stopping_.load(std::memory_order_acquire)) {
        std::int64_t now = nowNanos();
        for (Slot& slot : slots_) {
            std::int64_t deadline =
                slot.deadlineNanos.load(std::memory_order_acquire);
            if (deadline != 0 && now > deadline)
                slot.cancel.store(true, std::memory_order_release);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

} // namespace vdram
