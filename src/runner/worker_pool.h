/**
 * @file
 * Shared worker pool: persistent threads, a bounded job queue with
 * non-blocking admission, and a deadline watchdog with cooperative
 * cancellation.
 *
 * Extracted from BatchRunner so the batch campaigns and the long-running
 * `vdram serve` daemon execute on literally the same machinery. The two
 * clients stress different halves of the contract:
 *
 *  - BatchRunner submits a finite manifest and drains; it cares about
 *    per-task deadlines and per-worker scratch indexing (worker()).
 *  - The serve daemon runs the pool forever and cares about admission
 *    control: trySubmit() refuses work beyond the queue bound instead of
 *    blocking, which is what lets the daemon shed load with an explicit
 *    error rather than stacking requests until memory or latency dies.
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
    struct Options {
        /** Worker threads (>= 1; clamped). */
        int threads = 1;
        /** Maximum queued (not yet started) jobs trySubmit() admits;
         *  0 = unbounded. */
        long long queueCapacity = 0;
    };

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

    explicit WorkerPool(const Options& options);
    ~WorkerPool();

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    /**
     * Admission-controlled enqueue: false when the queue is at capacity
     * or the pool is shutting down. Never blocks — the caller decides
     * how to shed (the serve daemon answers E-SERVE-OVERLOAD).
     */
    bool trySubmit(JobFn job);

    /** Unbounded enqueue (ignores queueCapacity). Returns false only
     *  when the pool is shutting down. */
    bool submit(JobFn job);

    /** Block until the queue is empty and no job is in flight. */
    void drain();

    /** Stop accepting, finish queued jobs, join all threads. Idempotent;
     *  the destructor calls it. */
    void shutdown();

    /** Jobs queued but not yet started. */
    long long queueDepth() const;

    /** Jobs currently executing. */
    int inFlight() const;

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

    Options options_;
    mutable std::mutex mutex_;
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
