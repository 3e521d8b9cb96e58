/**
 * @file
 * Resilient batch evaluation runner.
 *
 * The paper's evaluation is thousands of independent model evaluations
 * (Monte-Carlo samples, sensitivity perturbations, generation-ladder
 * points, what-if sweeps). A campaign of that shape must survive a bad
 * variant, a crash and an operator Ctrl-C without losing the work
 * already done. BatchRunner provides the shared discipline:
 *
 *  - a job manifest with a deterministic seed per task,
 *  - a WorkerPool (worker_pool.h) with per-task fault isolation: a
 *    task that returns an error Result or throws is quarantined with
 *    its diagnostics attached, never aborting the run,
 *  - bounded retry with exponential backoff for transient errors
 *    (diagnostic codes starting "T-"),
 *  - a per-task deadline watchdog (cooperative cancellation),
 *  - typed task payloads: each task's value stays in the campaign's
 *    own type in memory and becomes text only in a checkpoint record,
 *  - crash-safe JSONL checkpointing (see checkpoint.h) so --resume
 *    skips already-completed tasks,
 *  - graceful stop draining: when the stop flag rises, in-flight tasks
 *    finish, the checkpoint is flushed and the report says "partial",
 *  - a structured run report rendered via the table/JSON machinery.
 */
#ifndef VDRAM_RUNNER_RUNNER_H
#define VDRAM_RUNNER_RUNNER_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runner/checkpoint.h"
#include "runner/worker_pool.h"
#include "util/diag.h"
#include "util/result.h"

namespace vdram {

/** One entry of the job manifest. */
struct TaskSpec {
    /** Human-readable task name ("sample-17", "Bitline capacitance"). */
    std::string name;
    /** Deterministic per-task seed (derive with deriveStreamSeed()). */
    std::uint64_t seed = 0;
};

/** Execution context handed to the task function. */
struct TaskContext {
    /** Index of the task in the manifest. */
    long long index = 0;
    /** 1-based attempt number (> 1 on retries). */
    int attempt = 1;
    /** Per-task seed from the manifest. */
    std::uint64_t seed = 0;
    /**
     * Index of the worker slot running this task, in
     * [0, effectiveJobCount(options.jobs)). Tasks use it to index
     * per-worker scratch state (e.g. a VariantEvaluator) without
     * locking; it is stable across the retries of one attempt chain.
     */
    int worker = 0;

    /**
     * True once the task should stop (deadline exceeded or run
     * cancelled). Long-running tasks poll this; the result of a
     * cancelled task is discarded.
     */
    std::function<bool()> cancelled;
};

/**
 * A task computes a payload of the campaign's own type @p P or reports
 * an error Result. Errors whose diagnostic code starts with "T-" are
 * treated as transient and retried.
 */
template <typename P>
using TaskFn = std::function<Result<P>(const TaskContext&)>;

/** Terminal state of one task. */
enum class TaskOutcome {
    Ok,            ///< payload produced
    Failed,        ///< transient error persisted through all retries
    Quarantined,   ///< permanent error Result or exception
    TimedOut,      ///< deadline exceeded
    SkippedResume, ///< completed in a previous run (payload restored)
    NotRun,        ///< run stopped before the task was started
};

/** Terminal record of one task after the run. */
struct TaskResult {
    long long index = 0;
    TaskSpec spec;
    TaskOutcome outcome = TaskOutcome::NotRun;
    int attempts = 0;
    /** Error description for failed/quarantined/timed-out outcomes. */
    std::string error;
    double seconds = 0;

    bool ok() const
    {
        return outcome == TaskOutcome::Ok ||
               outcome == TaskOutcome::SkippedResume;
    }
};

/** Aggregate counters and throughput of one run. */
struct RunReport {
    long long total = 0;
    long long ok = 0;
    long long failed = 0;
    long long quarantined = 0;
    long long timedOut = 0;
    long long skippedResume = 0;
    long long notRun = 0;
    /** Number of retry attempts performed (not tasks retried). */
    long long retried = 0;
    double wallSeconds = 0;
    /** Freshly evaluated tasks per second (excludes resume skips). */
    double tasksPerSecond = 0;
    /** True when the run was stopped before every task ran. */
    bool interrupted = false;

    /** All manifest tasks have a terminal outcome other than NotRun. */
    bool complete() const { return notRun == 0 && !interrupted; }

    /** Multi-line human-readable summary. */
    std::string renderText() const;
};

/** Runner configuration. */
struct RunnerOptions {
    /** Worker threads; 0 selects std::thread::hardware_concurrency(). */
    int jobs = 1;
    /** Maximum retry attempts after a transient failure. */
    int maxRetries = 2;
    /** Base backoff before the first retry; doubles per attempt. */
    double backoffSeconds = 0.005;
    /** Per-task deadline in seconds; 0 disables the watchdog. */
    double taskTimeoutSeconds = 0;
    /** Checkpoint file; empty disables checkpointing. */
    std::string checkpointPath;
    /** Skip tasks recorded "ok" in the checkpoint file. */
    bool resume = false;
    /**
     * Graceful-stop flag (e.g. raised by a SIGINT handler). Polled
     * between tasks: no new task starts once it is true.
     */
    const std::atomic<bool>* stopFlag = nullptr;
};

/**
 * The payload-independent engine behind BatchRunner: the pool, retries,
 * deadlines, failpoints, the report and the checkpoint file. The typed
 * layer supplies the task invocation and, for checkpointable payloads,
 * the text form a checkpoint record carries.
 */
class RunnerCore {
  public:
    /** Per-task results in manifest order (valid after run()). */
    const std::vector<TaskResult>& results() const { return results_; }

    /** The report of the last run(). */
    const RunReport& report() const { return report_; }

  protected:
    RunnerCore(std::vector<TaskSpec> manifest, RunnerOptions options);
    virtual ~RunnerCore() = default;

    size_t taskCount() const { return manifest_.size(); }

    /**
     * Execute the campaign. Infrastructure failures (unreadable or
     * corrupt checkpoint) are errors; task failures are not — they are
     * contained, counted and attached to @p diags when given:
     * E-RUNNER-QUARANTINE / E-RUNNER-FAILED / E-RUNNER-TIMEOUT per
     * terminal failure, plus W-RUNNER-RETRY / W-RUNNER-CKPT /
     * N-RUNNER-RESUME summaries.
     */
    Result<RunReport> runTasks(DiagnosticEngine* diags);

    /** Run the task function once; keep its payload on success. */
    virtual Status invokeTask(const TaskContext& context) = 0;
    /** Forget the payload of a task whose result came too late. */
    virtual void dropPayload(long long index) = 0;
    /** True when payloads have a checkpoint text form. */
    virtual bool checkpointable() const = 0;
    /** Checkpoint text of an ok task's payload. */
    virtual std::string encodePayload(long long index) const = 0;
    /** Restore a payload from its checkpoint text (E-CKPT-PAYLOAD). */
    virtual Status restorePayload(long long index,
                                  const std::string& text) = 0;

  private:
    TaskResult executeTask(long long index,
                           WorkerPool::JobContext& job);
    Status invokeOnce(const TaskContext& context);
    bool stopRequested() const;

    std::vector<TaskSpec> manifest_;
    RunnerOptions options_;
    std::vector<TaskResult> results_;
    RunReport report_;
};

/**
 * The batch engine. Construct with a manifest, a task function and
 * options; run() executes the campaign and returns the report. Results
 * and payloads are available per task, in manifest order, afterwards.
 *
 * Payloads stay typed in memory. They become text (PayloadCodec<P>)
 * only when a checkpoint record is written, and are read back from
 * text only on resume; a payload type without a codec runs without a
 * checkpoint (E-CKPT-UNSUPPORTED when one is configured).
 */
template <typename P>
class BatchRunner : public RunnerCore {
  public:
    BatchRunner(std::vector<TaskSpec> manifest, TaskFn<P> fn,
                RunnerOptions options)
        : RunnerCore(std::move(manifest), std::move(options)),
          fn_(std::move(fn))
    {
    }

    /** See RunnerCore::runTasks(). */
    Result<RunReport> run(DiagnosticEngine* diags = nullptr)
    {
        payloads_.assign(taskCount(), P{});
        return runTasks(diags);
    }

    /** Per-task payloads in manifest order; meaningful where
     *  results()[i].ok() (valid after run()). */
    const std::vector<P>& payloads() const { return payloads_; }

  private:
    Status invokeTask(const TaskContext& context) override
    {
        Result<P> result = fn_(context);
        if (!result.ok())
            return result.error();
        payloads_[static_cast<size_t>(context.index)] =
            std::move(result).value();
        return Status::okStatus();
    }

    void dropPayload(long long index) override
    {
        payloads_[static_cast<size_t>(index)] = P{};
    }

    bool checkpointable() const override
    {
        return CheckpointablePayload<P>;
    }

    std::string encodePayload(long long index) const override
    {
        if constexpr (CheckpointablePayload<P>)
            return PayloadCodec<P>::encode(
                payloads_[static_cast<size_t>(index)]);
        else
            return std::string();
    }

    Status restorePayload(long long index,
                          const std::string& text) override
    {
        if constexpr (CheckpointablePayload<P>) {
            Result<P> decoded = PayloadCodec<P>::decode(text);
            if (!decoded.ok())
                return decoded.error();
            payloads_[static_cast<size_t>(index)] =
                std::move(decoded).value();
        }
        return Status::okStatus();
    }

    TaskFn<P> fn_;
    std::vector<P> payloads_;
};

/** Effective worker count for a --jobs value (0 = auto). */
int effectiveJobCount(int jobs);

} // namespace vdram

#endif // VDRAM_RUNNER_RUNNER_H
