/**
 * @file
 * Batch-runner robustness tests: seed-stream derivation, fault
 * injection, checkpoint crash tolerance, resume round-trips, retry and
 * quarantine semantics, deadline watchdog, graceful draining and
 * parallel determinism. The suite carries the "robustness" ctest label
 * and CI also runs it under ThreadSanitizer (-DVDRAM_SANITIZE=thread).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "presets/presets.h"
#include "runner/campaign.h"
#include "runner/checkpoint.h"
#include "runner/runner.h"
#include "core/montecarlo.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/numerics.h"
#include "util/strings.h"

namespace vdram {
namespace {

std::string
tempPath(const std::string& name)
{
    return testing::TempDir() + "vdram_runner_" + name;
}

std::vector<TaskSpec>
simpleManifest(int count)
{
    std::vector<TaskSpec> manifest;
    for (int i = 0; i < count; ++i) {
        manifest.push_back(TaskSpec{"task-" + std::to_string(i),
                                    deriveStreamSeed(99, i)});
    }
    return manifest;
}

// ---------------------------------------------------------------------
// Seed streams
// ---------------------------------------------------------------------

TEST(SeedStreamTest, AffineRegressionNoCollision)
{
    // The old derivation (seed + 977 * sample) collided between
    // (base=1955, sample=0) and (base=1, sample=2) and any other pair
    // on the same lattice. The splitmix64 stream must not.
    EXPECT_NE(deriveStreamSeed(1955, 0), deriveStreamSeed(1, 2));
    EXPECT_NE(deriveStreamSeed(978, 1), deriveStreamSeed(1, 2));
}

TEST(SeedStreamTest, ManyStreamsDistinct)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t base = 0; base < 64; ++base)
        for (std::uint64_t s = 0; s < 64; ++s)
            seen.insert(deriveStreamSeed(base, s));
    EXPECT_EQ(seen.size(), 64u * 64u);
}

TEST(SeedStreamTest, UniformDoubleInUnitInterval)
{
    for (std::uint64_t i = 0; i < 1000; ++i) {
        double u = uniformDoubleOf(splitmix64(i));
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(SeedStreamTest, MonteCarloSampleSeedMatchesStream)
{
    EXPECT_EQ(monteCarloSampleSeed(7, 3), deriveStreamSeed(7, 3));
    EXPECT_NE(monteCarloSampleSeed(7, 3), monteCarloSampleSeed(7, 4));
}

// ---------------------------------------------------------------------
// Checkpoint records
// ---------------------------------------------------------------------

TEST(CheckpointTest, RecordRoundTrip)
{
    TaskRecord record;
    record.task = 42;
    record.name = "weird \"name\" \\ with\ttabs\nand newlines";
    record.status = "ok";
    record.attempts = 3;
    record.payload = "1.5 2.25e-300 -0";

    Result<TaskRecord> back = parseTaskRecord(formatTaskRecord(record));
    ASSERT_TRUE(back.ok()) << back.error().toString();
    EXPECT_EQ(back.value().task, 42);
    EXPECT_EQ(back.value().name, record.name);
    EXPECT_EQ(back.value().status, "ok");
    EXPECT_EQ(back.value().attempts, 3);
    EXPECT_EQ(back.value().payload, record.payload);
}

TEST(CheckpointTest, ErrorRecordRoundTrip)
{
    TaskRecord record;
    record.task = 7;
    record.name = "bad";
    record.status = "quarantined";
    record.error = "boom [E-MC-INVALID]";
    Result<TaskRecord> back = parseTaskRecord(formatTaskRecord(record));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value().error, record.error);
    EXPECT_FALSE(back.value().ok());
}

TEST(CheckpointTest, ParseRejectsGarbage)
{
    EXPECT_FALSE(parseTaskRecord("").ok());
    EXPECT_FALSE(parseTaskRecord("not json").ok());
    EXPECT_FALSE(parseTaskRecord("{\"task\":1,\"status\"").ok());
    EXPECT_FALSE(parseTaskRecord("[1,2,3]").ok());
}

TEST(CheckpointTest, MissingFileIsEmpty)
{
    Result<std::vector<TaskRecord>> loaded =
        loadCheckpoint(tempPath("does_not_exist.jsonl"));
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(loaded.value().empty());
}

TEST(CheckpointTest, TruncatedTrailingLineTolerated)
{
    const std::string path = tempPath("truncated.jsonl");
    TaskRecord a;
    a.task = 0;
    a.name = "a";
    a.status = "ok";
    a.payload = "1";
    TaskRecord b = a;
    b.task = 1;
    b.name = "b";
    {
        std::ofstream out(path, std::ios::trunc);
        out << formatTaskRecord(a) << "\n"
            << formatTaskRecord(b) << "\n"
            << "{\"task\":2,\"name\":\"c\",\"sta"; // crash mid-write
    }
    Result<std::vector<TaskRecord>> loaded = loadCheckpoint(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().toString();
    EXPECT_EQ(loaded.value().size(), 2u);
    std::remove(path.c_str());
}

TEST(CheckpointTest, CorruptMiddleLineIsError)
{
    const std::string path = tempPath("corrupt_middle.jsonl");
    TaskRecord a;
    a.task = 0;
    a.name = "a";
    a.status = "ok";
    {
        std::ofstream out(path, std::ios::trunc);
        out << "garbage line\n" << formatTaskRecord(a) << "\n";
    }
    EXPECT_FALSE(loadCheckpoint(path).ok());
    std::remove(path.c_str());
}

TEST(CheckpointTest, ConsolidateReplacesAtomically)
{
    const std::string path = tempPath("consolidate.jsonl");
    {
        std::ofstream out(path, std::ios::trunc);
        out << "stale partial content\n";
    }
    std::vector<TaskRecord> records(3);
    for (int i = 0; i < 3; ++i) {
        records[i].task = i;
        records[i].name = "t" + std::to_string(i);
        records[i].status = "ok";
        records[i].payload = std::to_string(i * 10);
    }
    ASSERT_TRUE(consolidateCheckpoint(path, records).ok());
    Result<std::vector<TaskRecord>> loaded = loadCheckpoint(path);
    ASSERT_TRUE(loaded.ok());
    ASSERT_EQ(loaded.value().size(), 3u);
    EXPECT_EQ(loaded.value()[2].payload, "20");
    std::remove(path.c_str());
}

TEST(CheckpointTest, ConsolidateSyncsAndRemovesTempFile)
{
    // The atomic-rename protocol fsyncs the temp file and its
    // directory; functionally, success must leave the final file in
    // place and no ".tmp" behind, including for paths inside a
    // subdirectory (the directory-fsync path).
    const std::string dir = tempPath("ckpt_subdir");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/consolidated.jsonl";
    std::vector<TaskRecord> records(1);
    records[0].task = 0;
    records[0].name = "t0";
    records[0].status = "ok";
    records[0].payload = "42";
    ASSERT_TRUE(consolidateCheckpoint(path, records).ok());
    EXPECT_TRUE(std::filesystem::exists(path));
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    Result<std::vector<TaskRecord>> loaded = loadCheckpoint(path);
    ASSERT_TRUE(loaded.ok());
    ASSERT_EQ(loaded.value().size(), 1u);
    EXPECT_EQ(loaded.value()[0].payload, "42");
    std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, ConsolidateIntoMissingDirectoryFails)
{
    std::vector<TaskRecord> records;
    Status status = consolidateCheckpoint(
        tempPath("no_such_dir") + "/x/y/ckpt.jsonl", records);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.error().code, "E-CKPT-WRITE");
}

// ---------------------------------------------------------------------
// Runner semantics
// ---------------------------------------------------------------------

TEST(BatchRunnerTest, AllOkInManifestOrder)
{
    BatchRunner<std::string> runner(
        simpleManifest(8),
        [](const TaskContext& context) -> Result<std::string> {
            return "p" + std::to_string(context.index);
        },
        {});
    Result<RunReport> report = runner.run();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().total, 8);
    EXPECT_EQ(report.value().ok, 8);
    EXPECT_TRUE(report.value().complete());
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(runner.results()[i].index, i);
        EXPECT_EQ(runner.payloads()[i],
                  "p" + std::to_string(i));
    }
}

TEST(BatchRunnerTest, PermanentErrorQuarantinedWithoutRetry)
{
    std::atomic<int> calls{0};
    BatchRunner<std::string> runner(
        simpleManifest(3),
        [&calls](const TaskContext& context) -> Result<std::string> {
            calls.fetch_add(1);
            if (context.index == 1)
                return Error{"bad variant", 0, 0, "", "E-MC-INVALID"};
            return std::string("ok");
        },
        {});
    DiagnosticEngine diags;
    Result<RunReport> report = runner.run(&diags);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().ok, 2);
    EXPECT_EQ(report.value().quarantined, 1);
    EXPECT_EQ(report.value().retried, 0);
    EXPECT_EQ(calls.load(), 3); // no retry of the permanent error
    EXPECT_EQ(runner.results()[1].outcome, TaskOutcome::Quarantined);
    EXPECT_EQ(runner.results()[1].attempts, 1);
    bool saw_quarantine = false;
    for (const Diagnostic& d : diags.diagnostics())
        saw_quarantine |= d.code == "E-RUNNER-QUARANTINE";
    EXPECT_TRUE(saw_quarantine);
}

TEST(BatchRunnerTest, TransientErrorRetriedThenFailed)
{
    std::atomic<int> calls{0};
    RunnerOptions options;
    options.maxRetries = 2;
    options.backoffSeconds = 0.0001;
    BatchRunner<std::string> runner(
        simpleManifest(1),
        [&calls](const TaskContext&) -> Result<std::string> {
            calls.fetch_add(1);
            return Error{"flaky", 0, 0, "", "T-TEST-FLAKY"};
        },
        options);
    Result<RunReport> report = runner.run();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(calls.load(), 3); // initial + 2 retries
    EXPECT_EQ(report.value().failed, 1);
    EXPECT_EQ(report.value().retried, 2);
    EXPECT_EQ(runner.results()[0].outcome, TaskOutcome::Failed);
}

TEST(BatchRunnerTest, TransientErrorRecoversOnRetry)
{
    std::atomic<int> calls{0};
    RunnerOptions options;
    options.backoffSeconds = 0.0001;
    BatchRunner<std::string> runner(
        simpleManifest(1),
        [&calls](const TaskContext& context) -> Result<std::string> {
            calls.fetch_add(1);
            if (context.attempt < 2)
                return Error{"flaky", 0, 0, "", "T-TEST-FLAKY"};
            return std::string("recovered");
        },
        options);
    Result<RunReport> report = runner.run();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().ok, 1);
    EXPECT_EQ(report.value().retried, 1);
    EXPECT_EQ(runner.payloads()[0], "recovered");
    EXPECT_EQ(runner.results()[0].attempts, 2);
}

TEST(BatchRunnerTest, ThrownExceptionIsQuarantined)
{
    BatchRunner<std::string> runner(
        simpleManifest(2),
        [](const TaskContext& context) -> Result<std::string> {
            if (context.index == 0)
                throw std::runtime_error("task blew up");
            return std::string("ok");
        },
        {});
    DiagnosticEngine diags;
    Result<RunReport> report = runner.run(&diags);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().quarantined, 1);
    EXPECT_EQ(report.value().ok, 1);
    // The exception is quarantined; the E-RUNNER-CRASH marker rides in
    // the diagnostic message so operators can tell crashes from plain
    // error Results.
    bool saw_crash = false;
    for (const Diagnostic& d : diags.diagnostics()) {
        saw_crash |= d.code == "E-RUNNER-QUARANTINE" &&
                     d.message.find("E-RUNNER-CRASH") !=
                         std::string::npos;
    }
    EXPECT_TRUE(saw_crash);
    EXPECT_NE(runner.results()[0].error.find("task blew up"),
              std::string::npos);
}

TEST(BatchRunnerTest, DeadlineWatchdogCancelsSlowTask)
{
    RunnerOptions options;
    options.taskTimeoutSeconds = 0.02;
    BatchRunner<std::string> runner(
        simpleManifest(2),
        [](const TaskContext& context) -> Result<std::string> {
            if (context.index == 0) {
                // Busy task that honors cooperative cancellation.
                auto start = std::chrono::steady_clock::now();
                while (!context.cancelled()) {
                    if (std::chrono::steady_clock::now() - start >
                        std::chrono::seconds(5))
                        break; // safety net, watchdog should fire first
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                }
                return std::string("late");
            }
            return std::string("fast");
        },
        options);
    Result<RunReport> report = runner.run();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().timedOut, 1);
    EXPECT_EQ(report.value().ok, 1);
    EXPECT_EQ(runner.results()[0].outcome, TaskOutcome::TimedOut);
    // The late result must have been discarded.
    EXPECT_TRUE(runner.payloads()[0].empty());
}

TEST(BatchRunnerTest, StopFlagDrainsRemainingTasks)
{
    std::atomic<bool> stop{false};
    RunnerOptions options;
    options.stopFlag = &stop;
    BatchRunner<std::string> runner(
        simpleManifest(10),
        [&stop](const TaskContext& context) -> Result<std::string> {
            if (context.index == 2)
                stop.store(true); // "SIGINT" arrives mid-run
            return std::string("done");
        },
        options);
    Result<RunReport> report = runner.run();
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().interrupted);
    EXPECT_FALSE(report.value().complete());
    EXPECT_GE(report.value().notRun, 1);
    // Tasks that ran before the stop still finished normally.
    EXPECT_GE(report.value().ok, 3);
    EXPECT_EQ(report.value().ok + report.value().notRun, 10);
}

/** Arms the runner.task failpoint for one test and clears it on exit,
 *  so the activation never leaks into the next test. */
struct RunnerTaskFailpoint {
    explicit RunnerTaskFailpoint(const std::string& action)
    {
        Result<std::vector<FailpointConfig>> configs =
            parseFailpointSpec("runner.task=" + action);
        EXPECT_TRUE(configs.ok());
        if (configs.ok())
            configureFailpoints(configs.value());
    }
    ~RunnerTaskFailpoint() { clearFailpoints(); }
};

TEST(BatchRunnerTest, FaultInjectionDeterministicSubset)
{
    RunnerTaskFailpoint failpoint("error@0.4");
    RunnerOptions options;
    options.maxRetries = 0;
    auto run_once = [&options]() {
        BatchRunner<std::string> runner(
            simpleManifest(40),
            [](const TaskContext&) -> Result<std::string> {
                return std::string("ok");
            },
            options);
        EXPECT_TRUE(runner.run().ok());
        std::vector<long long> failed;
        for (const TaskResult& r : runner.results())
            if (!r.ok())
                failed.push_back(r.index);
        return failed;
    };
    std::vector<long long> first = run_once();
    std::vector<long long> second = run_once();
    EXPECT_FALSE(first.empty());
    EXPECT_LT(first.size(), 40u);
    EXPECT_EQ(first, second); // same variants fault every run
}

TEST(BatchRunnerTest, EffectiveJobCount)
{
    EXPECT_GE(effectiveJobCount(0), 1);
    EXPECT_EQ(effectiveJobCount(3), 3);
}

// ---------------------------------------------------------------------
// Checkpoint / resume through the runner
// ---------------------------------------------------------------------

TEST(BatchRunnerTest, ResumeSkipsCompletedTasksByteIdentically)
{
    const std::string path = tempPath("resume.jsonl");
    std::remove(path.c_str());

    RunnerOptions first_options;
    first_options.checkpointPath = path;
    std::atomic<bool> stop{false};
    first_options.stopFlag = &stop;
    BatchRunner<std::vector<double>> first(
        simpleManifest(12),
        [&stop](const TaskContext& context) -> Result<std::vector<double>> {
            if (context.index == 5)
                stop.store(true);
            return std::vector<double>{uniformDoubleOf(context.seed),
                                       double(context.index)};
        },
        first_options);
    ASSERT_TRUE(first.run().ok());
    ASSERT_TRUE(first.report().interrupted);
    const long long done = first.report().ok;
    ASSERT_GE(done, 1);
    ASSERT_LT(done, 12);

    RunnerOptions resume_options;
    resume_options.checkpointPath = path;
    resume_options.resume = true;
    std::atomic<int> fresh_calls{0};
    BatchRunner<std::vector<double>> second(
        simpleManifest(12),
        [&fresh_calls](const TaskContext& context)
            -> Result<std::vector<double>> {
            fresh_calls.fetch_add(1);
            return std::vector<double>{uniformDoubleOf(context.seed),
                                       double(context.index)};
        },
        resume_options);
    DiagnosticEngine diags;
    ASSERT_TRUE(second.run(&diags).ok());
    EXPECT_EQ(second.report().skippedResume, done);
    EXPECT_EQ(fresh_calls.load(), 12 - done);
    EXPECT_TRUE(second.report().complete());

    // Reference: one uninterrupted serial run.
    BatchRunner<std::vector<double>> reference(
        simpleManifest(12),
        [](const TaskContext& context) -> Result<std::vector<double>> {
            return std::vector<double>{uniformDoubleOf(context.seed),
                                       double(context.index)};
        },
        {});
    ASSERT_TRUE(reference.run().ok());
    for (int i = 0; i < 12; ++i) {
        EXPECT_TRUE(samePayload(second.payloads()[i],
                                reference.payloads()[i]))
            << "task " << i << " payload changed across resume";
    }
    std::remove(path.c_str());
}

TEST(BatchRunnerTest, ResumeReexecutesFailedTasks)
{
    const std::string path = tempPath("resume_failed.jsonl");
    std::remove(path.c_str());

    RunnerOptions options;
    options.checkpointPath = path;
    options.maxRetries = 0;
    BatchRunner<std::string> first(
        simpleManifest(4),
        [](const TaskContext& context) -> Result<std::string> {
            if (context.index == 2)
                return Error{"bad", 0, 0, "", "E-MC-INVALID"};
            return std::string("ok");
        },
        options);
    ASSERT_TRUE(first.run().ok());
    EXPECT_EQ(first.report().quarantined, 1);

    options.resume = true;
    BatchRunner<std::string> second(
        simpleManifest(4),
        [](const TaskContext&) -> Result<std::string> {
            return std::string("fixed");
        },
        options);
    ASSERT_TRUE(second.run().ok());
    // Only the previously-failed task runs again.
    EXPECT_EQ(second.report().skippedResume, 3);
    EXPECT_EQ(second.report().ok, 1);
    EXPECT_EQ(second.payloads()[2], "fixed");
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Parallel determinism (the TSan target exercises these heavily)
// ---------------------------------------------------------------------

TEST(BatchRunnerTest, ParallelRunMatchesSerial)
{
    auto payloads = [](int jobs) {
        RunnerOptions options;
        options.jobs = jobs;
        BatchRunner<std::vector<double>> runner(
            simpleManifest(64),
            [](const TaskContext& context) -> Result<std::vector<double>> {
                return std::vector<double>{
                    uniformDoubleOf(splitmix64(context.seed))};
            },
            options);
        EXPECT_TRUE(runner.run().ok());
        return runner.payloads();
    };
    EXPECT_EQ(payloads(1), payloads(4));
    EXPECT_EQ(payloads(1), payloads(0)); // 0 = hardware concurrency
}

TEST(CampaignTest, MonteCarloParallelMatchesSerial)
{
    DramDescription nominal = preset1GbDdr3(55e-9, 16, 1333);
    const std::vector<IddMeasure> measures = {IddMeasure::Idd0,
                                              IddMeasure::Idd4R};
    RunnerOptions serial;
    RunnerOptions parallel;
    parallel.jobs = 4;
    Result<MonteCarloCampaign> a =
        runMonteCarloCampaign(nominal, measures, 60, {}, 7, serial);
    Result<MonteCarloCampaign> b =
        runMonteCarloCampaign(nominal, measures, 60, {}, 7, parallel);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a.value().distributions.size(), 2u);
    for (size_t m = 0; m < 2; ++m) {
        EXPECT_DOUBLE_EQ(a.value().distributions[m].mean,
                         b.value().distributions[m].mean);
        EXPECT_DOUBLE_EQ(a.value().distributions[m].p95,
                         b.value().distributions[m].p95);
    }
}

TEST(CampaignTest, MonteCarloRejectsBadSampleCount)
{
    DramDescription nominal = preset1GbDdr3(55e-9, 16, 1333);
    Result<MonteCarloCampaign> r =
        runMonteCarloCampaign(nominal, {IddMeasure::Idd0}, 0, {}, 1, {});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, "E-MC-SAMPLES");
}

// ---------------------------------------------------------------------
// The fast-path contract shared by every campaign (evaluateFastOrSlow)
// ---------------------------------------------------------------------

Result<std::string>
payload(const char* text)
{
    return std::string(text);
}

Result<std::string>
failure(const char* code)
{
    return Error{std::string("failed with ") + code, 0, 0, "", code};
}

TEST(FastPathContractTest, ModeSelectsThePath)
{
    int fast_calls = 0, slow_calls = 0;
    auto fast = [&] {
        ++fast_calls;
        return payload("fast");
    };
    auto slow = [&] {
        ++slow_calls;
        return payload("slow");
    };
    EXPECT_EQ(evaluateFastOrSlow(FastPathMode::On, 0, fast, slow).value(),
              "fast");
    EXPECT_EQ(evaluateFastOrSlow(FastPathMode::Off, 0, fast, slow).value(),
              "slow");
    EXPECT_EQ(fast_calls, 1);
    EXPECT_EQ(slow_calls, 1);
}

TEST(FastPathContractTest, VerifyPassesIdenticalResultsThrough)
{
    auto same = [] { return payload("1 2 3"); };
    Result<std::string> r =
        evaluateFastOrSlow(FastPathMode::Verify, 4, same, same);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), "1 2 3");
}

TEST(FastPathContractTest, VerifyFlagsDifferentPayloadsWithTaskIndex)
{
    Result<std::string> r = evaluateFastOrSlow(
        FastPathMode::Verify, 17,
        [] { return payload("0.30000000000000004"); },
        [] { return payload("0.29999999999999999"); });
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, "E-FASTPATH-MISMATCH");
    EXPECT_NE(r.error().message.find("task 17 "), std::string::npos)
        << r.error().message;
}

TEST(FastPathContractTest, VerifyPassesSameErrorCodeThrough)
{
    Result<std::string> r = evaluateFastOrSlow(
        FastPathMode::Verify, 2, [] { return failure("E-TECH-RANGE"); },
        [] { return failure("E-TECH-RANGE"); });
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, "E-TECH-RANGE");
}

TEST(FastPathContractTest, VerifyFlagsDifferentOutcomes)
{
    Result<std::string> codes = evaluateFastOrSlow(
        FastPathMode::Verify, 5, [] { return failure("E-TECH-RANGE"); },
        [] { return failure("E-ARCH-RANGE"); });
    ASSERT_FALSE(codes.ok());
    EXPECT_EQ(codes.error().code, "E-FASTPATH-MISMATCH");

    Result<std::string> ok_vs_error = evaluateFastOrSlow(
        FastPathMode::Verify, 6,
        [] { return payload("1"); },
        [] { return failure("E-TECH-RANGE"); });
    ASSERT_FALSE(ok_vs_error.ok());
    EXPECT_EQ(ok_vs_error.error().code, "E-FASTPATH-MISMATCH");
}

TEST(FastPathContractTest, VerifyComparesDoublesBitForBit)
{
    // -0.0 == +0.0 numerically, but the checkpoint text ("-0" vs "0")
    // tells them apart; the typed comparison must too.
    using Values = Result<std::vector<double>>;
    Result<std::vector<double>> r = evaluateFastOrSlow(
        FastPathMode::Verify, 3, [] { return Values(std::vector{-0.0}); },
        [] { return Values(std::vector{0.0}); });
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, "E-FASTPATH-MISMATCH");

    Result<std::vector<double>> same = evaluateFastOrSlow(
        FastPathMode::Verify, 3, [] { return Values(std::vector{-0.0}); },
        [] { return Values(std::vector{-0.0}); });
    EXPECT_TRUE(same.ok());
}

TEST(CampaignTest, FaultInjectedCampaignStillAggregates)
{
    RunnerTaskFailpoint failpoint("error@0.3");
    DramDescription nominal = preset1GbDdr3(55e-9, 16, 1333);
    RunnerOptions options;
    options.maxRetries = 0;
    DiagnosticEngine diags;
    Result<MonteCarloCampaign> r = runMonteCarloCampaign(
        nominal, {IddMeasure::Idd0}, 50, {}, 7, options, &diags);
    ASSERT_TRUE(r.ok());
    EXPECT_GT(r.value().report.failed, 0);
    EXPECT_GT(r.value().report.ok, 0);
    EXPECT_EQ(r.value().report.ok + r.value().report.failed, 50);
    // Distributions come from the surviving samples.
    ASSERT_EQ(r.value().distributions.size(), 1u);
    EXPECT_GT(r.value().distributions[0].mean, 0.0);
}

// ---------------------------------------------------------------------
// Metrics sidecar continuity across interrupt + resume
// ---------------------------------------------------------------------

namespace {

/** The deterministic campaign counters of a checkpoint's metrics
 *  sidecar (scheduling-dependent ones — queue depth, per-worker load —
 *  are deliberately excluded from the comparison). */
std::map<std::string, std::uint64_t>
sidecarTaskCounters(const std::string& checkpoint_path)
{
    std::ifstream in(checkpoint_path + ".metrics.json",
                     std::ios::binary);
    EXPECT_TRUE(in.good()) << "metrics sidecar missing for "
                           << checkpoint_path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    Result<MetricsSnapshot> snapshot =
        parseMetricsSnapshot(buffer.str());
    EXPECT_TRUE(snapshot.ok());
    std::map<std::string, std::uint64_t> counters;
    if (!snapshot.ok())
        return counters;
    for (const char* name :
         {"runner.tasks.ok", "runner.tasks.failed",
          "runner.tasks.quarantined", "runner.tasks.timeout",
          "runner.tasks.retried"}) {
        auto it = snapshot.value().counters.find(name);
        counters[name] =
            it != snapshot.value().counters.end() ? it->second : 0;
    }
    return counters;
}

/** Fails transiently on the first attempt of every third task: unlike
 *  the seeded runner.task failpoint (whose faults repeat on every
 *  attempt, so a failed record fails again when resume re-executes it),
 *  this converges — exactly what the cumulative-counter identity needs. */
Result<std::vector<double>>
firstAttemptFlakyTask(const TaskContext& context)
{
    if (context.index % 3 == 0 && context.attempt == 1)
        return Error{"flaky once", 0, 0, "", "T-TEST-FLAKY"};
    return std::vector<double>{uniformDoubleOf(context.seed),
                               double(context.index)};
}

} // namespace

TEST(BatchRunnerTest, ResumedCampaignMetricsMatchUninterruptedRun)
{
    const std::string interrupted_path =
        tempPath("metrics_interrupted.jsonl");
    const std::string reference_path =
        tempPath("metrics_reference.jsonl");
    for (const std::string& p : {interrupted_path, reference_path}) {
        std::remove(p.c_str());
        std::remove((p + ".metrics.json").c_str());
    }
    setMetricsEnabled(true);

    RunnerOptions common;
    common.backoffSeconds = 0; // retries need no pacing in tests

    // Uninterrupted reference campaign.
    RunnerOptions reference_options = common;
    reference_options.checkpointPath = reference_path;
    BatchRunner<std::vector<double>> reference(
        simpleManifest(12), firstAttemptFlakyTask, reference_options);
    ASSERT_TRUE(reference.run().ok());
    ASSERT_TRUE(reference.report().complete());
    ASSERT_GT(reference.report().retried, 0);

    // Same campaign, interrupted at task 5 (not a retrying index, so
    // the drain never races a retry decision)...
    RunnerOptions first_options = common;
    first_options.checkpointPath = interrupted_path;
    std::atomic<bool> stop{false};
    first_options.stopFlag = &stop;
    BatchRunner<std::vector<double>> first(
        simpleManifest(12),
        [&stop](const TaskContext& context) -> Result<std::vector<double>> {
            if (context.index == 5)
                stop.store(true);
            return firstAttemptFlakyTask(context);
        },
        first_options);
    ASSERT_TRUE(first.run().ok());
    ASSERT_TRUE(first.report().interrupted);
    ASSERT_GT(first.report().notRun, 0);

    // ... then resumed to completion.
    RunnerOptions resume_options = common;
    resume_options.checkpointPath = interrupted_path;
    resume_options.resume = true;
    BatchRunner<std::vector<double>> second(
        simpleManifest(12), firstAttemptFlakyTask, resume_options);
    ASSERT_TRUE(second.run().ok());
    ASSERT_TRUE(second.report().complete());
    EXPECT_EQ(second.report().skippedResume, first.report().ok);

    // The cumulative sidecar of the interrupted+resumed campaign must
    // equal the uninterrupted run's counters exactly.
    EXPECT_EQ(sidecarTaskCounters(interrupted_path),
              sidecarTaskCounters(reference_path));

    setMetricsEnabled(false);
    for (const std::string& p : {interrupted_path, reference_path}) {
        std::remove(p.c_str());
        std::remove((p + ".metrics.json").c_str());
    }
}

TEST(CampaignTest, DoublePayloadRoundTripsBitExactly)
{
    // The checkpoint text is the historical strformat("%.17g") join,
    // byte for byte, and decodes back to the same bits.
    std::vector<double> values = {
        0.0,
        -0.0,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(),
        0.1,
        1.0 / 3.0,
        9007199254740992.0, // 2^53
        -9007199254740994.0,
        1e21,
        123456.5,
        -1.5e300,
        0.12345678901234567,
        3.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
    };
    // Sampled IDDs: the values a Monte-Carlo checkpoint carries.
    DramDescription nominal = preset1GbDdr3(55e-9, 16, 1333);
    const std::vector<IddMeasure> measures = {
        IddMeasure::Idd0, IddMeasure::Idd2N, IddMeasure::Idd4R,
        IddMeasure::Idd4W, IddMeasure::Idd5};
    for (int s = 0; s < 8; ++s) {
        Result<std::vector<double>> sample = evaluateMonteCarloSample(
            nominal, {}, measures, monteCarloSampleSeed(11, s));
        if (sample.ok()) {
            values.insert(values.end(), sample.value().begin(),
                          sample.value().end());
        }
    }
    ASSERT_GT(values.size(), 30u);

    std::vector<std::string> printed;
    for (double v : values)
        printed.push_back(strformat("%.17g", v));
    const std::string text = encodeDoublePayload(values);
    EXPECT_EQ(text, join(printed, " "));

    Result<std::vector<double>> back = decodeDoublePayload(text);
    ASSERT_TRUE(back.ok()) << back.error().toString();
    ASSERT_EQ(back.value().size(), values.size());
    EXPECT_EQ(std::memcmp(back.value().data(), values.data(),
                          values.size() * sizeof(double)),
              0);

    EXPECT_TRUE(encodeDoublePayload({}).empty());
    ASSERT_TRUE(decodeDoublePayload("  \t").ok());
    EXPECT_TRUE(decodeDoublePayload("  \t").value().empty());
    Result<std::vector<double>> bogus = decodeDoublePayload("1.5 bogus");
    ASSERT_FALSE(bogus.ok());
    EXPECT_EQ(bogus.error().code, "E-CKPT-PAYLOAD");
    // Forms the %.17g writer never emits are rejected.
    EXPECT_FALSE(decodeDoublePayload("+1").ok());
    EXPECT_FALSE(decodeDoublePayload("0x1p3").ok());
    EXPECT_FALSE(decodeDoublePayload("1e999").ok());
}

TEST(BatchRunnerTest, CorruptResumedPayloadFailsUpFront)
{
    const std::string path = tempPath("corrupt_payload.jsonl");
    TaskRecord record;
    record.task = 1;
    record.name = "task-1";
    record.status = "ok";
    record.payload = "0.5 not-a-number";
    ASSERT_TRUE(consolidateCheckpoint(path, {record}).ok());

    RunnerOptions options;
    options.checkpointPath = path;
    options.resume = true;
    std::atomic<int> calls{0};
    BatchRunner<std::vector<double>> runner(
        simpleManifest(3),
        [&calls](const TaskContext&) -> Result<std::vector<double>> {
            calls.fetch_add(1);
            return std::vector<double>{1.0};
        },
        options);
    Result<RunReport> report = runner.run();
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.error().code, "E-CKPT-PAYLOAD");
    EXPECT_EQ(calls.load(), 0);
    std::remove(path.c_str());
}

TEST(BatchRunnerTest, PayloadWithoutCodecRefusesCheckpoint)
{
    struct InMemoryOnly {
        int value = 0;
    };
    RunnerOptions options;
    options.checkpointPath = tempPath("no_codec.jsonl");
    BatchRunner<InMemoryOnly> runner(
        simpleManifest(2),
        [](const TaskContext& context) -> Result<InMemoryOnly> {
            return InMemoryOnly{static_cast<int>(context.index)};
        },
        options);
    Result<RunReport> refused = runner.run();
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error().code, "E-CKPT-UNSUPPORTED");

    BatchRunner<InMemoryOnly> plain(
        simpleManifest(2),
        [](const TaskContext& context) -> Result<InMemoryOnly> {
            return InMemoryOnly{static_cast<int>(context.index) + 10};
        },
        {});
    ASSERT_TRUE(plain.run().ok());
    EXPECT_EQ(plain.payloads()[1].value, 11);
}

} // namespace
} // namespace vdram
