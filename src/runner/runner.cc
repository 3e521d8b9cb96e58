#include "runner/runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "runner/checkpoint.h"
#include "util/backoff.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/strings.h"
#include "util/trace.h"

namespace vdram {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

void
sleepSeconds(double seconds)
{
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

bool
isTransientCode(const std::string& code)
{
    return startsWith(code, "T-");
}

std::string
checkpointStatusOf(TaskOutcome outcome)
{
    switch (outcome) {
    case TaskOutcome::Ok:
    case TaskOutcome::SkippedResume: return "ok";
    case TaskOutcome::Failed: return "failed";
    case TaskOutcome::Quarantined: return "quarantined";
    case TaskOutcome::TimedOut: return "timeout";
    case TaskOutcome::NotRun: return "not-run";
    }
    return "unknown";
}

/** Campaign counters; references resolve once, recording is gated on
 *  the runtime metrics switch. */
struct RunnerInstruments {
    Counter& ok = globalMetrics().counter("runner.tasks.ok");
    Counter& failed = globalMetrics().counter("runner.tasks.failed");
    Counter& quarantined =
        globalMetrics().counter("runner.tasks.quarantined");
    Counter& timeout = globalMetrics().counter("runner.tasks.timeout");
    Counter& resumed = globalMetrics().counter("runner.tasks.resumed");
    Counter& retried = globalMetrics().counter("runner.tasks.retried");
    Counter& faults = globalMetrics().counter("runner.faults.injected");
    Gauge& queueDepth = globalMetrics().gauge("runner.queue.depth");
    Histogram& taskNanos = globalMetrics().histogram("runner.task.ns");
};

RunnerInstruments&
runnerInstruments()
{
    static RunnerInstruments instruments;
    return instruments;
}

/** Sidecar next to the JSONL checkpoint holding cumulative campaign
 *  counters across --resume legs. */
std::string
metricsSidecarPathOf(const std::string& checkpointPath)
{
    return checkpointPath + ".metrics.json";
}

bool
readFileToString(const std::string& path, std::string& out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
}

bool
writeFileAtomic(const std::string& path, const std::string& content)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
        if (!out)
            return false;
        out << content;
        out.flush();
        if (!out)
            return false;
    }
    return std::rename(tmp.c_str(), path.c_str()) == 0;
}

} // namespace

std::string
RunReport::renderText() const
{
    std::string out = strformat(
        "run: %lld task(s), %.2f s wall, %.1f tasks/s%s\n",
        total, wallSeconds, tasksPerSecond,
        interrupted ? " [PARTIAL: interrupted]" : "");
    out += strformat(
        "  ok %lld  failed %lld  quarantined %lld  timed-out %lld  "
        "retried %lld  resumed %lld  not-run %lld\n",
        ok, failed, quarantined, timedOut, retried, skippedResume,
        notRun);
    return out;
}

int
effectiveJobCount(int jobs)
{
    if (jobs > 0)
        return jobs;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

RunnerCore::RunnerCore(std::vector<TaskSpec> manifest,
                       RunnerOptions options)
    : manifest_(std::move(manifest)), options_(std::move(options))
{
}

bool
RunnerCore::stopRequested() const
{
    return options_.stopFlag &&
           options_.stopFlag->load(std::memory_order_relaxed);
}

Status
RunnerCore::invokeOnce(const TaskContext& context)
{
    // The named-failpoint site for task invocation. Error is reported
    // transient (exercises the retry ladder); Stall blocks until the
    // watchdog cancels, bounded so a run without an armed deadline
    // cannot hang the campaign.
    FailpointHit hit = failpointHit("runner.task", context.seed);
    if (hit.fired()) {
        if (metricsEnabled())
            runnerInstruments().faults.add();
        switch (hit.action) {
        case FailpointAction::Error:
            return Error{strformat("injected failpoint fault "
                                   "(task %lld, attempt %d)",
                                   context.index, context.attempt),
                         0, 0, "", "T-FAULT-INJECT"};
        case FailpointAction::Crash:
            throw std::runtime_error(strformat(
                "injected failpoint crash (task %lld)", context.index));
        case FailpointAction::Stall: {
            double cap = options_.taskTimeoutSeconds > 0
                             ? options_.taskTimeoutSeconds * 4
                             : 0.2;
            Clock::time_point start = Clock::now();
            while (!context.cancelled() && secondsSince(start) < cap)
                sleepSeconds(0.001);
            return Error{strformat("injected failpoint stall (task %lld)",
                                   context.index),
                         0, 0, "", "T-FAULT-STALL"};
        }
        case FailpointAction::Abort: std::abort();
        default: break; // Delay already slept; PartialWrite is n/a here
        }
    }
    return invokeTask(context);
}

TaskResult
RunnerCore::executeTask(long long index, WorkerPool::JobContext& job)
{
    TaskResult result;
    result.index = index;
    result.spec = manifest_[index];
    TraceSpan span(traceEnabled() ? "task." + result.spec.name
                                  : std::string(),
                   "runner");
    Clock::time_point start = Clock::now();

    for (int attempt = 1;; ++attempt) {
        result.attempts = attempt;
        // Re-arm per attempt: clears a previous cancellation and starts
        // a fresh deadline against the pool's watchdog.
        job.armDeadline(options_.taskTimeoutSeconds);

        TaskContext context;
        context.index = index;
        context.attempt = attempt;
        context.seed = result.spec.seed;
        context.worker = job.worker();
        context.cancelled = [&job] { return job.cancelled(); };

        Error error;
        bool threw = false;
        bool ok = false;
        try {
            Status status = invokeOnce(context);
            ok = status.ok();
            if (!ok)
                error = status.error();
        } catch (const std::exception& e) {
            threw = true;
            error = Error{std::string("uncaught exception: ") + e.what(),
                          0, 0, "", "E-RUNNER-CRASH"};
        } catch (...) {
            threw = true;
            error = Error{"uncaught non-standard exception", 0, 0, "",
                          "E-RUNNER-CRASH"};
        }
        job.clearDeadline();

        if (job.cancelled()) {
            // The watchdog fired while this attempt ran; whatever the
            // task returned after its deadline is not trusted.
            dropPayload(index);
            result.outcome = TaskOutcome::TimedOut;
            result.error = strformat("deadline of %.3f s exceeded",
                                     options_.taskTimeoutSeconds);
            break;
        }
        if (ok) {
            result.outcome = TaskOutcome::Ok;
            break;
        }
        if (!threw && isTransientCode(error.code) &&
            attempt <= options_.maxRetries && !stopRequested()) {
            // Shared backoff curve (util/backoff.h): same doubling
            // schedule the serve client and fleet supervisor pace by.
            BackoffPolicy backoff;
            backoff.baseSeconds = options_.backoffSeconds;
            sleepSeconds(backoffDelaySeconds(backoff, attempt));
            continue;
        }
        result.outcome = threw || !isTransientCode(error.code)
                             ? TaskOutcome::Quarantined
                             : TaskOutcome::Failed;
        result.error = error.toString();
        break;
    }
    result.seconds = secondsSince(start);
    if (metricsEnabled()) {
        runnerInstruments().taskNanos.record(
            static_cast<std::uint64_t>(result.seconds * 1e9));
    }
    return result;
}

Result<RunReport>
RunnerCore::runTasks(DiagnosticEngine* diags)
{
    const long long total = static_cast<long long>(manifest_.size());
    if (!options_.checkpointPath.empty() && !checkpointable()) {
        return Error{"this campaign's task payloads have no checkpoint "
                     "form; run it without --checkpoint",
                     0, 0, options_.checkpointPath, "E-CKPT-UNSUPPORTED"};
    }
    results_.assign(manifest_.size(), TaskResult{});
    for (long long i = 0; i < total; ++i) {
        results_[i].index = i;
        results_[i].spec = manifest_[i];
    }
    report_ = RunReport{};
    report_.total = total;

    // Metrics sidecar: cumulative counters across resume legs. The
    // global registry outlives individual runs, so the sidecar stores
    // prior legs' totals plus this run's delta from a start snapshot —
    // never raw registry values, which would double-count in-process
    // reruns.
    const bool sidecarActive =
        metricsEnabled() && !options_.checkpointPath.empty();
    MetricsSnapshot sidecarBaseline;
    MetricsSnapshot runStartSnapshot;
    if (sidecarActive) {
        runStartSnapshot = globalMetrics().snapshot();
        if (options_.resume) {
            std::string text;
            if (readFileToString(
                    metricsSidecarPathOf(options_.checkpointPath),
                    text)) {
                Result<MetricsSnapshot> parsed =
                    parseMetricsSnapshot(text);
                if (parsed.ok())
                    sidecarBaseline = std::move(parsed).value();
                else if (diags) {
                    diags->warning("W-RUNNER-METRICS",
                                   "metrics sidecar unreadable; "
                                   "cumulative counters restart at zero");
                }
            }
        }
    }

    // Resume: restore payloads of tasks already completed "ok".
    if (options_.resume && !options_.checkpointPath.empty()) {
        Result<std::vector<TaskRecord>> loaded =
            loadCheckpoint(options_.checkpointPath);
        if (!loaded.ok())
            return loaded.error();
        for (const TaskRecord& record : loaded.value()) {
            if (!record.ok() || record.task < 0 || record.task >= total)
                continue;
            if (!restorePayload(record.task, record.payload).ok()) {
                return Error{strformat("task %lld has a corrupt "
                                       "checkpoint payload",
                                       record.task),
                             0, 0, options_.checkpointPath,
                             "E-CKPT-PAYLOAD"};
            }
            TaskResult& r = results_[record.task];
            r.outcome = TaskOutcome::SkippedResume;
            r.attempts = record.attempts;
        }
    }

    CheckpointWriter writer;
    std::mutex checkpoint_mutex;
    std::atomic<bool> checkpoint_ok{!options_.checkpointPath.empty()};
    if (checkpoint_ok.load()) {
        if (!options_.resume) {
            std::remove(options_.checkpointPath.c_str());
            std::remove(
                metricsSidecarPathOf(options_.checkpointPath).c_str());
        }
        Status opened = writer.open(options_.checkpointPath);
        if (!opened.ok())
            return opened.error();
    }

    const int jobs = static_cast<int>(std::max<long long>(
        1, std::min<long long>(effectiveJobCount(options_.jobs), total)));

    // Per-worker utilization counters, resolved once per run (metrics
    // on at its start): a task records through the handles, never
    // through the named registry.
    struct WorkerCounters {
        Counter* busyNanos;
        Counter* tasks;
    };
    std::vector<WorkerCounters> worker_counters;
    if (metricsEnabled()) {
        for (int w = 0; w < jobs; ++w) {
            worker_counters.push_back(
                {&globalMetrics().counter(
                     strformat("runner.worker.%d.busy_ns", w)),
                 &globalMetrics().counter(
                     strformat("runner.worker.%d.tasks", w))});
        }
    }
    long long queued = 0;
    for (const TaskResult& r : results_)
        queued += r.outcome == TaskOutcome::SkippedResume ? 0 : 1;
    std::atomic<long long> started{0};

    Clock::time_point start = Clock::now();

    // One job per manifest task on the pool (FIFO dispatch, same
    // assignment order as the old per-runner thread loop). A job that
    // observes the stop flag returns immediately, leaving its task
    // NotRun — that IS the graceful drain.
    WorkerPool pool(jobs);
    for (long long i = 0; i < total; ++i) {
        if (results_[i].outcome == TaskOutcome::SkippedResume)
            continue;
        pool.submit([this, i, queued, &started, &worker_counters, &writer,
                     &checkpoint_mutex,
                     &checkpoint_ok](WorkerPool::JobContext& job) {
            if (stopRequested())
                return; // drain: no new task starts
            const bool instrumented = !worker_counters.empty();
            if (instrumented) {
                // Jobs not yet started, without taking the pool's lock.
                runnerInstruments().queueDepth.set(
                    queued - 1 -
                    started.fetch_add(1, std::memory_order_relaxed));
            }
            TaskResult result = executeTask(i, job);
            if (instrumented) {
                const WorkerCounters& counters =
                    worker_counters[static_cast<size_t>(job.worker())];
                counters.busyNanos->add(
                    static_cast<std::uint64_t>(result.seconds * 1e9));
                counters.tasks->add();
            }
            if (checkpoint_ok.load(std::memory_order_acquire)) {
                TaskRecord record;
                record.task = i;
                record.name = result.spec.name;
                record.status = checkpointStatusOf(result.outcome);
                record.attempts = result.attempts;
                if (result.ok())
                    record.payload = encodePayload(i);
                record.error = result.error;
                std::lock_guard<std::mutex> lock(checkpoint_mutex);
                // A failing checkpoint disk must not abort the campaign;
                // the run degrades to non-resumable and says so.
                if (checkpoint_ok.load(std::memory_order_relaxed) &&
                    !writer.append(record).ok()) {
                    checkpoint_ok.store(false, std::memory_order_release);
                    writer.close();
                }
            }
            results_[i] = std::move(result);
        });
    }
    pool.drain();
    pool.shutdown();

    report_.wallSeconds = secondsSince(start);

    long long executed = 0;
    for (const TaskResult& r : results_) {
        switch (r.outcome) {
        case TaskOutcome::Ok: ++report_.ok; break;
        case TaskOutcome::Failed: ++report_.failed; break;
        case TaskOutcome::Quarantined: ++report_.quarantined; break;
        case TaskOutcome::TimedOut: ++report_.timedOut; break;
        case TaskOutcome::SkippedResume: ++report_.skippedResume; break;
        case TaskOutcome::NotRun: ++report_.notRun; break;
        }
        if (r.outcome != TaskOutcome::SkippedResume &&
            r.outcome != TaskOutcome::NotRun) {
            ++executed;
            report_.retried += std::max(0, r.attempts - 1);
        }
    }
    report_.interrupted = report_.notRun > 0;
    if (report_.wallSeconds > 0) {
        report_.tasksPerSecond =
            static_cast<double>(executed) / report_.wallSeconds;
    }

    if (metricsEnabled()) {
        RunnerInstruments& m = runnerInstruments();
        m.ok.add(static_cast<std::uint64_t>(report_.ok));
        m.failed.add(static_cast<std::uint64_t>(report_.failed));
        m.quarantined.add(
            static_cast<std::uint64_t>(report_.quarantined));
        m.timeout.add(static_cast<std::uint64_t>(report_.timedOut));
        m.resumed.add(static_cast<std::uint64_t>(report_.skippedResume));
        m.retried.add(static_cast<std::uint64_t>(report_.retried));
        m.queueDepth.set(0);
    }

    if (diags) {
        for (const TaskResult& r : results_) {
            std::string what =
                "task " + std::to_string(r.index) + " '" + r.spec.name +
                "': " + r.error;
            if (r.outcome == TaskOutcome::Quarantined)
                diags->error("E-RUNNER-QUARANTINE", what);
            else if (r.outcome == TaskOutcome::Failed)
                diags->error("E-RUNNER-FAILED", what);
            else if (r.outcome == TaskOutcome::TimedOut)
                diags->error("E-RUNNER-TIMEOUT", what);
        }
        if (report_.retried > 0) {
            diags->warning("W-RUNNER-RETRY",
                           strformat("%lld transient failure(s) retried",
                                     report_.retried));
        }
        if (report_.skippedResume > 0) {
            diags->note("N-RUNNER-RESUME",
                        strformat("%lld task(s) restored from checkpoint",
                                  report_.skippedResume));
        }
        if (!options_.checkpointPath.empty() && !checkpoint_ok) {
            diags->warning("W-RUNNER-CKPT",
                           "checkpoint writes failed; this run cannot "
                           "be resumed");
        }
    }

    // Consolidate the checkpoint: one atomic rewrite in task order, so
    // the file a later --resume reads is canonical even after appends
    // from many workers or several partial runs.
    writer.close();
    if (checkpoint_ok) {
        std::vector<TaskRecord> records;
        records.reserve(results_.size());
        for (const TaskResult& r : results_) {
            if (r.outcome == TaskOutcome::NotRun)
                continue;
            TaskRecord record;
            record.task = r.index;
            record.name = r.spec.name;
            record.status = checkpointStatusOf(r.outcome);
            record.attempts = r.attempts;
            if (r.ok())
                record.payload = encodePayload(r.index);
            record.error = r.error;
            records.push_back(std::move(record));
        }
        Status status =
            consolidateCheckpoint(options_.checkpointPath, records);
        if (!status.ok() && diags) {
            diags->warning("W-RUNNER-CKPT",
                           "checkpoint consolidation failed: " +
                               status.error().toString());
        }
    }

    if (sidecarActive) {
        MetricsSnapshot cumulative = sidecarBaseline;
        cumulative.merge(
            globalMetrics().snapshot().diffSince(runStartSnapshot));
        if (!writeFileAtomic(
                metricsSidecarPathOf(options_.checkpointPath),
                cumulative.renderJson() + "\n") &&
            diags) {
            diags->warning("W-RUNNER-METRICS",
                           "metrics sidecar write failed");
        }
    }

    return report_;
}

} // namespace vdram
