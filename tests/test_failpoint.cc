/**
 * @file
 * Failpoint framework tests: spec parsing, gating (hit index, rate,
 * seeds), and — most importantly — the site matrix. Every registered
 * failpoint name has an entry here that activates it and proves the
 * site converts the injected failure into its documented behaviour
 * (a diagnostic, an exception, a detected short write) instead of
 * corrupting state or killing the process. A name added to the registry
 * without a matrix entry fails the suite.
 *
 * Part of the "robustness" ctest label.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/variant_evaluator.h"
#include "fit/fit_engine.h"
#include "fit/target_spec.h"
#include "presets/presets.h"
#include "protocol/trace_stream.h"
#include "runner/checkpoint.h"
#include "runner/runner.h"
#include "runner/trace_campaign.h"
#include "serve/supervisor.h"
#include "util/failpoint.h"
#include "util/numerics.h"

namespace vdram {
namespace {

/** RAII reset so one test's activation never leaks into the next. */
struct FailpointGuard {
    ~FailpointGuard() { clearFailpoints(); }
};

void
activate(const std::string& spec)
{
    Result<std::vector<FailpointConfig>> configs =
        parseFailpointSpec(spec);
    ASSERT_TRUE(configs.ok()) << configs.error().toString();
    configureFailpoints(configs.value());
}

std::string
tempPath(const std::string& name)
{
    return testing::TempDir() + "vdram_failpoint_" + name;
}

// ---------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------

TEST(FailpointSpecTest, ParsesNameActionArgAndRate)
{
    Result<std::vector<FailpointConfig>> parsed = parseFailpointSpec(
        "ckpt.append=error,trace.slice=delay:25,runner.task=crash@0.5,"
        "ckpt.consolidate=abort:3");
    ASSERT_TRUE(parsed.ok()) << parsed.error().toString();
    ASSERT_EQ(parsed.value().size(), 4u);

    EXPECT_EQ(parsed.value()[0].name, "ckpt.append");
    EXPECT_EQ(parsed.value()[0].action, FailpointAction::Error);
    EXPECT_EQ(parsed.value()[0].hitIndex, 0);
    EXPECT_EQ(parsed.value()[0].rate, 1.0);

    EXPECT_EQ(parsed.value()[1].action, FailpointAction::Delay);
    EXPECT_EQ(parsed.value()[1].delayMs, 25);

    EXPECT_EQ(parsed.value()[2].action, FailpointAction::Crash);
    EXPECT_EQ(parsed.value()[2].rate, 0.5);

    EXPECT_EQ(parsed.value()[3].action, FailpointAction::Abort);
    EXPECT_EQ(parsed.value()[3].hitIndex, 3);
}

TEST(FailpointSpecTest, RejectsMalformedSpecs)
{
    const char* bad[] = {
        "nosuch.site=error",      // unknown name (closed set)
        "ckpt.append",            // missing action
        "ckpt.append=explode",    // unknown action
        "ckpt.append=error@1.5",  // rate out of range
        "ckpt.append=error@abc",  // rate not a number
        "ckpt.append=delay",      // delay needs ms
        "ckpt.append=error:0",    // hit index must be >= 1
        "=error",                 // empty name
    };
    for (const char* spec : bad) {
        Result<std::vector<FailpointConfig>> parsed =
            parseFailpointSpec(spec);
        EXPECT_FALSE(parsed.ok()) << "accepted: " << spec;
        if (!parsed.ok()) {
            EXPECT_EQ(parsed.error().code, "E-FAILPOINT-SPEC") << spec;
        }
    }
}

TEST(FailpointSpecTest, EmptySpecActivatesNothing)
{
    Result<std::vector<FailpointConfig>> parsed = parseFailpointSpec("");
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(parsed.value().empty());
}

TEST(FailpointSpecTest, RegistryIsClosedAndSorted)
{
    std::vector<std::string> names = failpointNames();
    ASSERT_FALSE(names.empty());
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    for (const std::string& name : names) {
        EXPECT_TRUE(isFailpointName(name));
        Result<std::vector<FailpointConfig>> parsed =
            parseFailpointSpec(name + "=error");
        EXPECT_TRUE(parsed.ok()) << name;
    }
    EXPECT_FALSE(isFailpointName("nosuch.site"));
}

// ---------------------------------------------------------------------
// Gating
// ---------------------------------------------------------------------

TEST(FailpointGateTest, InactiveFailpointIsOff)
{
    FailpointGuard guard;
    clearFailpoints();
    EXPECT_FALSE(failpointHit("ckpt.append").fired());
    EXPECT_EQ(failpointFireCount("ckpt.append"), 0);
}

TEST(FailpointGateTest, HitIndexFiresExactlyOnce)
{
    FailpointGuard guard;
    activate("ckpt.append=error:3");
    int fired_at = -1;
    for (int i = 1; i <= 6; ++i) {
        if (failpointHit("ckpt.append").fired()) {
            EXPECT_EQ(fired_at, -1) << "fired twice";
            fired_at = i;
        }
    }
    EXPECT_EQ(fired_at, 3);
    EXPECT_EQ(failpointFireCount("ckpt.append"), 1);
}

TEST(FailpointGateTest, SeededRateIsDeterministic)
{
    FailpointGuard guard;
    activate("runner.task=error@0.5");
    std::vector<bool> first;
    for (std::uint64_t seed = 0; seed < 64; ++seed)
        first.push_back(failpointHit("runner.task", seed).fired());
    // Re-activating resets counters; the same seeds must decide the
    // same way (the property resume and retries depend on).
    activate("runner.task=error@0.5");
    for (std::uint64_t seed = 0; seed < 64; ++seed)
        EXPECT_EQ(failpointHit("runner.task", seed).fired(), first[seed]);
    // A 0.5 gate over 64 seeds should fire some but not all.
    int fired = 0;
    for (bool f : first)
        fired += f ? 1 : 0;
    EXPECT_GT(fired, 0);
    EXPECT_LT(fired, 64);
}

TEST(FailpointGateTest, CheckFailpointMapsErrorToDiagnostic)
{
    FailpointGuard guard;
    activate("ckpt.consolidate=error");
    Status status = checkFailpoint("ckpt.consolidate", "E-CKPT-WRITE");
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code, "E-CKPT-WRITE");

    activate("ckpt.consolidate=crash");
    EXPECT_THROW(
        (void)checkFailpoint("ckpt.consolidate", "E-CKPT-WRITE"),
        std::runtime_error);
}

TEST(FailpointGateTest, EnvInitRejectsMalformedSpec)
{
    FailpointGuard guard;
    ::setenv("VDRAM_FAILPOINTS", "nosuch.site=error", 1);
    clearFailpoints(); // forget any earlier env read
    Status status = initFailpointsFromEnv();
    EXPECT_FALSE(status.ok());
    ::setenv("VDRAM_FAILPOINTS", "ckpt.append=error", 1);
    clearFailpoints();
    EXPECT_TRUE(initFailpointsFromEnv().ok());
    EXPECT_TRUE(failpointHit("ckpt.append").fired());
    ::unsetenv("VDRAM_FAILPOINTS");
    clearFailpoints();
}

TEST(FailpointGateTest, ConcurrentFirstUseSeesTheEnvArmedSite)
{
    // Threads that make the first evaluation together, while one of
    // them arms the env spec, must all see the armed site and all be
    // counted (hit-index and rate decisions depend on the count).
    FailpointGuard guard;
    struct EnvGuard {
        ~EnvGuard() { ::unsetenv("VDRAM_FAILPOINTS"); }
    } env_guard; // destroyed first, so the guard's clear forgets it
    ::setenv("VDRAM_FAILPOINTS", "trace.slice=error", 1);
    constexpr int kThreads = 4;
    for (int round = 0; round < 100; ++round) {
        clearFailpoints(); // forget the env read of the last round
        std::atomic<int> ready{0};
        std::atomic<int> fired{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                // Spin (no yield) so the threads leave the barrier
                // together, then stagger by 2 us each so later ones
                // arrive while the first is still arming.
                ready.fetch_add(1);
                while (ready.load() < kThreads) {
                }
                const auto start = std::chrono::steady_clock::now();
                while (std::chrono::steady_clock::now() - start <
                       std::chrono::microseconds(2 * t)) {
                }
                if (failpointHit("trace.slice").fired())
                    fired.fetch_add(1);
            });
        }
        for (std::thread& thread : threads)
            thread.join();
        ASSERT_EQ(fired.load(), kThreads) << "round " << round;
        ASSERT_EQ(failpointFireCount("trace.slice"), kThreads)
            << "round " << round;
    }
}

// ---------------------------------------------------------------------
// Site matrix — one entry per registered failpoint. The suite fails if
// a name is registered without an entry here.
// ---------------------------------------------------------------------

/** Names covered by the matrix tests below; kept in sync by
 *  SiteMatrixTest.EveryRegisteredNameIsCovered. */
const std::set<std::string>&
coveredSites()
{
    static const std::set<std::string>* covered =
        new std::set<std::string>{
            "ckpt.append",     "ckpt.consolidate", "fit.checkpoint",
            "fit.step",        "fleet.heartbeat",  "fleet.route",
            "fleet.spawn",     "model.rebuild",    "runner.task",
            "serve.request",   "serve.response",   "trace.slice",
            "trace.stream",
        };
    return *covered;
}

TEST(SiteMatrixTest, EveryRegisteredNameIsCovered)
{
    for (const std::string& name : failpointNames()) {
        EXPECT_TRUE(coveredSites().count(name))
            << "failpoint '" << name
            << "' is registered but has no matrix entry in "
               "tests/test_failpoint.cc";
    }
    for (const std::string& name : coveredSites()) {
        EXPECT_TRUE(isFailpointName(name))
            << "matrix entry '" << name
            << "' does not match a registered failpoint";
    }
}

TEST(SiteMatrixTest, CkptAppendErrorBecomesWriteDiagnostic)
{
    FailpointGuard guard;
    activate("ckpt.append=error");
    const std::string path = tempPath("append_error.jsonl");
    std::remove(path.c_str());
    CheckpointWriter writer;
    ASSERT_TRUE(writer.open(path).ok());
    Status status = writer.append(TaskRecord{0, "t", "ok", 1, "p", ""});
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code, "E-CKPT-WRITE");
    writer.close();
    std::remove(path.c_str());
}

TEST(SiteMatrixTest, CkptAppendPartialWriteIsDetectedAndTornLineDropped)
{
    FailpointGuard guard;
    const std::string path = tempPath("append_partial.jsonl");
    std::remove(path.c_str());
    {
        CheckpointWriter writer;
        ASSERT_TRUE(writer.open(path).ok());
        ASSERT_TRUE(
            writer.append(TaskRecord{0, "a", "ok", 1, "p0", ""}).ok());
        activate("ckpt.append=partial-write");
        Status torn =
            writer.append(TaskRecord{1, "b", "ok", 1, "p1", ""});
        ASSERT_FALSE(torn.ok());
        EXPECT_EQ(torn.error().code, "E-CKPT-WRITE");
        EXPECT_NE(torn.error().message.find("short write"),
                  std::string::npos);
        writer.close();
    }
    clearFailpoints();
    // The file now ends in a torn record — exactly what a crash leaves
    // behind. The loader must keep record 0 and drop the tail.
    Result<std::vector<TaskRecord>> loaded = loadCheckpoint(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().toString();
    ASSERT_EQ(loaded.value().size(), 1u);
    EXPECT_EQ(loaded.value()[0].task, 0);
    std::remove(path.c_str());
}

TEST(SiteMatrixTest, CkptConsolidateErrorLeavesOriginalIntact)
{
    FailpointGuard guard;
    const std::string path = tempPath("consolidate_error.jsonl");
    std::remove(path.c_str());
    {
        CheckpointWriter writer;
        ASSERT_TRUE(writer.open(path).ok());
        ASSERT_TRUE(
            writer.append(TaskRecord{0, "a", "ok", 1, "p0", ""}).ok());
        writer.close();
    }
    activate("ckpt.consolidate=error");
    Status status = consolidateCheckpoint(
        path, {TaskRecord{0, "a", "ok", 1, "p0", ""},
               TaskRecord{1, "b", "ok", 1, "p1", ""}});
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code, "E-CKPT-WRITE");
    clearFailpoints();
    // The injected failure struck before the write: the original file
    // must still load with its one record.
    Result<std::vector<TaskRecord>> loaded = loadCheckpoint(path);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().size(), 1u);
    std::remove(path.c_str());
}

TEST(SiteMatrixTest, CkptConsolidatePartialWriteDetectsTornTemp)
{
    FailpointGuard guard;
    activate("ckpt.consolidate=partial-write");
    const std::string path = tempPath("consolidate_partial.jsonl");
    std::remove(path.c_str());
    Status status = consolidateCheckpoint(
        path, {TaskRecord{0, "a", "ok", 1, "p0", ""},
               TaskRecord{1, "b", "ok", 1, "p1", ""}});
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code, "E-CKPT-WRITE");
    clearFailpoints();
    // The torn temp file must not have been renamed over the target.
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good()) << "torn temp file left behind";
    std::remove(path.c_str());
}

TEST(SiteMatrixTest, ModelRebuildThrowsAndEvaluatorSurvives)
{
    FailpointGuard guard;
    Result<VariantEvaluator> evaluator =
        VariantEvaluator::create(preset2GbDdr3_55());
    ASSERT_TRUE(evaluator.ok());
    double nominal = evaluator.value().evaluateDefault().power;

    activate("model.rebuild=crash");
    EXPECT_THROW(evaluator.value().applyPerturbation(
                     [](DramDescription& desc) {
                         desc.elec.vdd *= 0.9;
                     },
                     kDirtyElectrical),
                 std::runtime_error);
    clearFailpoints();

    // The evaluator was poisoned mid-rebuild; reset() must restore the
    // nominal model (the serve daemon relies on this containment).
    evaluator.value().reset();
    EXPECT_DOUBLE_EQ(evaluator.value().evaluateDefault().power, nominal);
}

TEST(SiteMatrixTest, RunnerTaskErrorIsTransientAndRetried)
{
    FailpointGuard guard;
    activate("runner.task=error:1");
    std::vector<TaskSpec> manifest;
    for (int i = 0; i < 4; ++i) {
        manifest.push_back(
            TaskSpec{"task-" + std::to_string(i),
                     deriveStreamSeed(7, i)});
    }
    BatchRunner<std::string> runner(
        manifest,
        [](const TaskContext& context) -> Result<std::string> {
            return "p" + std::to_string(context.index);
        },
        {});
    Result<RunReport> report = runner.run();
    ASSERT_TRUE(report.ok());
    // Exactly one attempt was struck (hit index 1); the injected fault
    // is transient, so the retry recovers and the campaign completes.
    EXPECT_EQ(report.value().ok, 4);
    EXPECT_GE(report.value().retried, 1);
}

TEST(SiteMatrixTest, TraceSliceErrorBecomesIoDiagnostic)
{
    FailpointGuard guard;
    const std::string path = tempPath("slice.trace");
    {
        std::ofstream out(path, std::ios::trunc);
        for (int i = 0; i < 64; ++i)
            out << (i * 10) << " ACT\n" << (i * 10 + 5) << " PRE\n";
    }
    activate("trace.slice=error");
    TraceCampaignOptions options;
    options.jobs = 2;
    Result<TraceCampaignResult> result =
        evaluateTraceFileParallel(path, options, nullptr);
    clearFailpoints();
    ASSERT_FALSE(result.ok());
    std::remove(path.c_str());
}

TEST(SiteMatrixTest, TraceStreamErrorBecomesIoDiagnostic)
{
    FailpointGuard guard;
    activate("trace.stream=error");
    std::istringstream in("0 ACT\n5 PRE\n");
    TraceStreamOptions options;
    Result<TraceStreamResult> result = evaluateTraceStream(in, options);
    clearFailpoints();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, "E-IO-READ");
}

TEST(SiteMatrixTest, FleetSpawnErrorTripsTheRestartCircuitBreaker)
{
    FailpointGuard guard;
    activate("fleet.spawn=error");
    SupervisorOptions options;
    options.socketDir = testing::TempDir() + "vdram_fleet_spawn_fp";
    options.workers = 2;
    options.restartBudget = 0; // first failure exhausts the budget
    options.workerArgvOverride = {"/bin/true"};
    Supervisor supervisor(std::move(options));
    // Every spawn is struck; with no restart budget every slot goes
    // Dead and start() reports the injected diagnostic.
    Status started = supervisor.start();
    ASSERT_FALSE(started.ok());
    EXPECT_EQ(started.error().code, "E-FLEET-SPAWN");
    EXPECT_TRUE(supervisor.allDead());
    EXPECT_EQ(supervisor.stats().workersDead, 2);
}

TEST(SiteMatrixTest, FleetHeartbeatErrorAndCrashAtTheProbe)
{
    FailpointGuard guard;
    activate("fleet.heartbeat=error");
    Result<double> probe =
        probeServeWorker("/nonexistent/worker.sock", 0.05);
    ASSERT_FALSE(probe.ok());
    EXPECT_EQ(probe.error().code, "E-FLEET-HEARTBEAT");

    activate("fleet.heartbeat=crash");
    EXPECT_THROW(
        (void)probeServeWorker("/nonexistent/worker.sock", 0.05),
        std::runtime_error);
}

/** A minimal single-parameter fit configuration the fit.* matrix
 *  entries share: one target, two generations, a handful of
 *  evaluations. */
FitTargetSpec
tinyFitSpec()
{
    DiagnosticEngine diags;
    Result<FitTargetSpec> spec = parseFitTargetSpec(
        R"({"name": "failpoint-fit", "parameters": )"
        R"(["Constant current adder"], "targets": )"
        R"([{"measure": "IDD0", "ma": 80.0}]})",
        diags);
    EXPECT_TRUE(spec.ok());
    return spec.ok() ? spec.value() : FitTargetSpec{};
}

FitOptions
tinyFitOptions()
{
    FitOptions fit;
    fit.starts = 1;
    fit.maxGenerations = 2;
    fit.seed = 9;
    return fit;
}

TEST(SiteMatrixTest, FitStepErrorAbortsTheFitWithDiagnostic)
{
    FailpointGuard guard;
    activate("fit.step=error");
    Result<FitResult> result = runFitCampaign(
        preset2GbDdr3_55(), tinyFitSpec(), tinyFitOptions(), {});
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, "E-FIT-STEP");
}

TEST(SiteMatrixTest, FitStepCrashIsContainedAsDiagnostic)
{
    FailpointGuard guard;
    activate("fit.step=crash");
    // The injected exception must not escape runFitCampaign: the
    // engine contains it and reports the same structured diagnostic.
    Result<FitResult> result = runFitCampaign(
        preset2GbDdr3_55(), tinyFitSpec(), tinyFitOptions(), {});
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, "E-FIT-STEP");
}

TEST(SiteMatrixTest, FitCheckpointErrorDegradesToUncheckpointedRun)
{
    FailpointGuard guard;
    const std::string path = tempPath("fit_ckpt_error.jsonl");
    std::remove(path.c_str());
    activate("fit.checkpoint=error");
    RunnerOptions runner;
    runner.checkpointPath = path;
    DiagnosticEngine diags;
    // A failing trajectory append must not fail the fit: the run
    // degrades to un-checkpointed with a W-FIT-CKPT warning.
    Result<FitResult> result =
        runFitCampaign(preset2GbDdr3_55(), tinyFitSpec(),
                       tinyFitOptions(), runner, &diags);
    clearFailpoints();
    ASSERT_TRUE(result.ok()) << result.error().toString();
    bool warned = false;
    for (const Diagnostic& diag : diags.diagnostics())
        warned = warned || diag.code == "W-FIT-CKPT";
    EXPECT_TRUE(warned);
    std::remove(path.c_str());
}

// fleet.route fires inside a router session, which needs a live fleet
// around it: the end-to-end exercise (structured E-FLEET-ROUTE shed
// response on a real front socket) lives in tests/test_fleet.cc.
// serve.request / serve.response are likewise exercised end-to-end in
// tests/test_serve.cc; the registry coverage check above keeps this
// matrix honest about where each entry lives.

} // namespace
} // namespace vdram
