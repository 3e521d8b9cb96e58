/**
 * @file
 * The batch runner's worker pool: persistent threads, an unbounded FIFO
 * job queue, and a deadline watchdog with cooperative cancellation.
 *
 * BatchRunner submits a finite manifest and drains; it relies on
 * per-task deadlines and per-worker scratch indexing (worker()).
 *
 * Jobs must not throw; a job body that leaks an exception is contained
 * (counted in the `pool.job.exceptions` metric) so one poisoned job can
 * never take down the pool's thread.
 */
#ifndef VDRAM_RUNNER_WORKER_POOL_H
#define VDRAM_RUNNER_WORKER_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vdram {

class WorkerPool {
  public:
    /**
     * Per-job view handed to the job body: the worker slot index (for
     * lock-free per-worker scratch state), cooperative cancellation and
     * deadline arming against the pool's shared watchdog.
     */
    class JobContext {
      public:
        /** Worker slot index in [0, threadCount()); stable for the
         *  whole job. */
        int worker() const { return worker_; }

        /** True once the watchdog asked this job to stop.
         *  Long-running bodies poll this. */
        bool cancelled() const;

        /**
         * Arm a deadline @p seconds from now and clear any previous
         * cancellation; @p seconds <= 0 clears the deadline but still
         * resets the cancel flag (a retry loop re-arms per attempt).
         */
        void armDeadline(double seconds);

        /** Disarm the deadline (the cancel flag is left as-is so the
         *  body can still observe a late watchdog decision). */
        void clearDeadline();

      private:
        friend class WorkerPool;
        JobContext(WorkerPool& pool, int worker)
            : pool_(&pool), worker_(worker)
        {
        }
        WorkerPool* pool_;
        int worker_;
    };

    using JobFn = std::function<void(JobContext&)>;

    /** Start @p threads workers (clamped to >= 1) and the watchdog. */
    explicit WorkerPool(int threads);
    ~WorkerPool();

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    /** Enqueue @p job. Returns false only when the pool is shutting
     *  down. */
    bool submit(JobFn job);

    /** Block until the queue is empty and no job is in flight. */
    void drain();

    /** Stop accepting, finish queued jobs, join all threads. Idempotent;
     *  the destructor calls it. */
    void shutdown();

    int threadCount() const
    {
        return static_cast<int>(slots_.size());
    }

  private:
    /** Watchdog view of one worker's in-flight job. */
    struct Slot {
        /** Deadline in steady-clock nanos; 0 = none armed. */
        std::atomic<std::int64_t> deadlineNanos{0};
        /** Raised by the watchdog when the deadline passes. */
        std::atomic<bool> cancel{false};
    };

    void workerMain(int index);
    void watchdogMain();

    std::mutex mutex_;
    std::condition_variable workAvailable_;
    std::condition_variable idle_;
    std::deque<JobFn> queue_;
    std::vector<Slot> slots_;
    std::vector<std::thread> threads_;
    std::thread watchdog_;
    std::atomic<bool> stopping_{false};
    int inFlight_ = 0;
    bool shutdownCalled_ = false;
};

} // namespace vdram

#endif // VDRAM_RUNNER_WORKER_POOL_H
