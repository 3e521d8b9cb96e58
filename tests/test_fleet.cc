/**
 * @file
 * Fleet tests: the shared backoff policy, the subprocess helper, the
 * routing hash-pick, the supervisor's restart-budget circuit breaker,
 * and — when the CLI binary path is compiled in (VDRAM_CLI_PATH) — the
 * full fleet lifecycle end-to-end: route requests across real workers,
 * shed via the `fleet.route` failpoint, fail a session over to a
 * respawned worker after `kill -9`, and drain with the summed
 * accounting invariant intact.
 *
 * Part of the "robustness" ctest label.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "loopback_port.h"
#include "serve/fleet.h"
#include "serve/line_server.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/supervisor.h"
#include "util/backoff.h"
#include "util/failpoint.h"
#include "util/result.h"
#include "util/subprocess.h"

#include <csignal>
#include <sys/stat.h>
#include <unistd.h>

namespace vdram {
namespace {

/** RAII reset so one test's failpoint activation never leaks. */
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

// ---------------------------------------------------------------------
// Backoff policy
// ---------------------------------------------------------------------

TEST(BackoffTest, CurveDoublesFromBase)
{
    BackoffPolicy policy;
    policy.baseSeconds = 0.05;
    policy.multiplier = 2.0;
    EXPECT_DOUBLE_EQ(backoffDelaySeconds(policy, 1), 0.05);
    EXPECT_DOUBLE_EQ(backoffDelaySeconds(policy, 2), 0.10);
    EXPECT_DOUBLE_EQ(backoffDelaySeconds(policy, 3), 0.20);
    EXPECT_DOUBLE_EQ(backoffDelaySeconds(policy, 4), 0.40);
}

TEST(BackoffTest, MaxSecondsCapsTheCurve)
{
    BackoffPolicy policy;
    policy.baseSeconds = 0.05;
    policy.maxSeconds = 0.15;
    EXPECT_DOUBLE_EQ(backoffDelaySeconds(policy, 1), 0.05);
    EXPECT_DOUBLE_EQ(backoffDelaySeconds(policy, 2), 0.10);
    EXPECT_DOUBLE_EQ(backoffDelaySeconds(policy, 3), 0.15);
    EXPECT_DOUBLE_EQ(backoffDelaySeconds(policy, 10), 0.15);
}

TEST(BackoffTest, JitterIsBoundedAndSeedDeterministic)
{
    BackoffPolicy policy;
    policy.baseSeconds = 1.0;
    policy.jitter = 0.25;

    // No seed: the exact curve, jitter notwithstanding.
    EXPECT_DOUBLE_EQ(backoffDelaySeconds(policy, 1, kBackoffNoJitter),
                     1.0);

    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        double jittered = backoffDelaySeconds(policy, 1, seed);
        EXPECT_GE(jittered, 0.75) << "seed " << seed;
        EXPECT_LE(jittered, 1.25) << "seed " << seed;
        // Pure function of (seed, attempt): reproducible retries.
        EXPECT_DOUBLE_EQ(jittered,
                         backoffDelaySeconds(policy, 1, seed));
    }

    // Distinct seeds must not all collapse to one delay (the whole
    // point is spreading coordinated clients apart).
    EXPECT_NE(backoffDelaySeconds(policy, 1, 1),
              backoffDelaySeconds(policy, 1, 2));
}

// ---------------------------------------------------------------------
// Subprocess helper
// ---------------------------------------------------------------------

TEST(SubprocessTest, SpawnAndReapReportsExitCode)
{
    SpawnOptions spawn;
    spawn.argv = {"/bin/sh", "-c", "exit 7"};
    Result<long long> pid = spawnProcess(spawn);
    ASSERT_TRUE(pid.ok()) << pid.error().toString();

    Result<ReapResult> reaped = reapProcess(pid.value(), true);
    ASSERT_TRUE(reaped.ok()) << reaped.error().toString();
    EXPECT_TRUE(reaped.value().exited);
    EXPECT_EQ(reaped.value().exitCode, 7);
    EXPECT_EQ(reaped.value().termSignal, 0);

    // Reaping again is an error: the pid is gone.
    EXPECT_FALSE(reapProcess(pid.value(), false).ok());
}

TEST(SubprocessTest, ExecFailureSurfacesAsExit127)
{
    SpawnOptions spawn;
    spawn.argv = {"/nonexistent/vdram-no-such-binary"};
    Result<long long> pid = spawnProcess(spawn);
    ASSERT_TRUE(pid.ok()) << pid.error().toString();

    Result<ReapResult> reaped = reapProcess(pid.value(), true);
    ASSERT_TRUE(reaped.ok()) << reaped.error().toString();
    EXPECT_TRUE(reaped.value().exited);
    EXPECT_EQ(reaped.value().exitCode, 127);
}

TEST(SubprocessTest, SignalKillReportsTermSignal)
{
    SpawnOptions spawn;
    spawn.argv = {"/bin/sh", "-c", "sleep 30"};
    Result<long long> pid = spawnProcess(spawn);
    ASSERT_TRUE(pid.ok()) << pid.error().toString();

    ASSERT_TRUE(signalProcess(pid.value(), SIGKILL).ok());
    Result<ReapResult> reaped = reapProcess(pid.value(), true);
    ASSERT_TRUE(reaped.ok()) << reaped.error().toString();
    EXPECT_TRUE(reaped.value().exited);
    EXPECT_EQ(reaped.value().termSignal, SIGKILL);
}

TEST(SubprocessTest, SigchldNotifierCountsChildDeaths)
{
    installSigchldNotifier();
    long long before = sigchldEvents();

    SpawnOptions spawn;
    spawn.argv = {"/bin/sh", "-c", "exit 0"};
    Result<long long> pid = spawnProcess(spawn);
    ASSERT_TRUE(pid.ok()) << pid.error().toString();

    // The signal is asynchronous; poll briefly for the counter bump.
    for (int i = 0; i < 500 && sigchldEvents() == before; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_GT(sigchldEvents(), before);

    Result<ReapResult> reaped = reapProcess(pid.value(), true);
    ASSERT_TRUE(reaped.ok()) << reaped.error().toString();
    EXPECT_EQ(reaped.value().exitCode, 0);
}

// ---------------------------------------------------------------------
// Routing pick
// ---------------------------------------------------------------------

std::vector<FleetWorkerView>
fourWorkers()
{
    std::vector<FleetWorkerView> workers(4);
    for (int i = 0; i < 4; ++i) {
        workers[i].index = i;
        workers[i].state = FleetWorkerState::Ready;
    }
    return workers;
}

TEST(PickFleetWorkerTest, DeterministicModuloOverReadyWorkers)
{
    std::vector<FleetWorkerView> workers = fourWorkers();
    for (std::uint64_t hash = 0; hash < 64; ++hash) {
        int picked = pickFleetWorker(hash, workers);
        EXPECT_EQ(picked, static_cast<int>(hash % 4));
        EXPECT_EQ(picked, pickFleetWorker(hash, workers));
    }
}

TEST(PickFleetWorkerTest, SkipsWorkersThatAreNotReady)
{
    std::vector<FleetWorkerView> workers = fourWorkers();
    workers[1].state = FleetWorkerState::Backoff;
    workers[2].state = FleetWorkerState::Dead;
    // Two Ready workers remain (slots 0 and 3); every hash lands on one
    // of them — a dead worker's hash range redistributes implicitly.
    for (std::uint64_t hash = 0; hash < 64; ++hash) {
        int picked = pickFleetWorker(hash, workers);
        EXPECT_TRUE(picked == 0 || picked == 3) << "hash " << hash;
    }
    EXPECT_EQ(pickFleetWorker(0, workers), 0);
    EXPECT_EQ(pickFleetWorker(1, workers), 3);
}

TEST(PickFleetWorkerTest, NoReadyWorkerYieldsMinusOne)
{
    std::vector<FleetWorkerView> workers = fourWorkers();
    for (FleetWorkerView& worker : workers)
        worker.state = FleetWorkerState::Starting;
    EXPECT_EQ(pickFleetWorker(12345, workers), -1);
    EXPECT_EQ(pickFleetWorker(0, {}), -1);
}

// ---------------------------------------------------------------------
// Supervisor circuit breaker (no vdram binary needed: the workers are
// /bin/false, which "crashes" instantly on every spawn).
// ---------------------------------------------------------------------

TEST(SupervisorTest, RestartBudgetExhaustionMarksSlotsDead)
{
    SupervisorOptions options;
    options.socketDir = testing::TempDir() + "vdram_fleet_budget_" +
                        std::to_string(::getpid());
    ::mkdir(options.socketDir.c_str(), 0755);
    options.workers = 1;
    options.restartBudget = 1;
    options.restartBaseSeconds = 0.005;
    options.restartMaxSeconds = 0.01;
    options.heartbeatSeconds = 0.01;
    options.heartbeatDeadlineSeconds = 0.5;
    options.workerArgvOverride = {"/bin/false"};

    std::mutex eventsMutex;
    std::vector<std::string> events;
    options.onEvent = [&](const std::string& event) {
        std::lock_guard<std::mutex> lock(eventsMutex);
        events.push_back(event);
    };

    Supervisor supervisor(options);
    ASSERT_TRUE(supervisor.start().ok());

    // Initial spawn dies -> restart 1/1 -> respawn dies -> budget
    // exhausted -> Dead. Tick until the breaker trips (bounded).
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!supervisor.allDead() &&
           std::chrono::steady_clock::now() < deadline) {
        supervisor.tick();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    EXPECT_TRUE(supervisor.allDead());
    EXPECT_EQ(supervisor.aliveCount(), 0);
    SupervisorStats stats = supervisor.stats();
    EXPECT_EQ(stats.workersDead, 1);
    EXPECT_GE(stats.restarts, 1);
    EXPECT_GE(stats.spawns, 2); // initial spawn + the budgeted restart

    bool sawDead = false;
    {
        std::lock_guard<std::mutex> lock(eventsMutex);
        for (const std::string& event : events)
            if (event.find("E-FLEET-DEAD") != std::string::npos)
                sawDead = true;
    }
    EXPECT_TRUE(sawDead) << "budget exhaustion must emit E-FLEET-DEAD";

    EXPECT_TRUE(supervisor.drain(1.0)); // nothing left to drain
}

TEST(FleetRouterTest, ListenerErrorsAreSocketErrors)
{
    // The listener is opened before any worker is consulted, so a
    // supervisor that never started is enough.
    Supervisor supervisor{SupervisorOptions{}};
    RouterOptions tooLong;
    tooLong.supervisor = &supervisor;
    tooLong.socketPath = "/tmp/" + std::string(200, 'x') + ".sock";
    Result<RouterStats> longPath = runFleetRouter(tooLong);
    ASSERT_FALSE(longPath.ok());
    EXPECT_EQ(longPath.error().code, "E-FLEET-SOCKET");

    RouterOptions nowhere;
    nowhere.supervisor = &supervisor;
    Result<RouterStats> none = runFleetRouter(nowhere);
    ASSERT_FALSE(none.ok());
    EXPECT_EQ(none.error().code, "E-FLEET-SOCKET");
}

// ---------------------------------------------------------------------
// End-to-end fleet lifecycle, against real `vdram serve` workers.
// VDRAM_CLI_PATH is injected by tests/CMakeLists.txt.
// ---------------------------------------------------------------------

#if defined(VDRAM_CLI_PATH)

/** Newline-JSON client holding ONE session open across requests (the
 *  failover path only exists within a persistent session). */
class SessionClient {
  public:
    bool connectTo(const std::string& path)
    {
        return connection_.connect(path, 0).ok();
    }

    /** Send one request line, read one response line (bounded). */
    Result<std::string> request(const std::string& line,
                                double timeoutSeconds = 30.0)
    {
        Status sent = connection_.sendLine(line);
        if (!sent.ok())
            return sent.error();
        return connection_.readLine(timeoutSeconds);
    }

  private:
    LineClient connection_;
};

/** Run a real fleet (spawning VDRAM_CLI_PATH workers) on a background
 *  thread; stop() raises the stop flag and returns the final stats.
 *  The front listener is a unix socket, or loopback @p port when set. */
class FleetHarness {
  public:
    explicit FleetHarness(int workers, const std::string& name,
                          int port = 0)
    {
        dir_ = testing::TempDir() + "vdram_fleet_" + name + "_" +
               std::to_string(::getpid());
        ::mkdir(dir_.c_str(), 0755);

        options_.exePath = VDRAM_CLI_PATH;
        if (port > 0)
            options_.port = port;
        else
            options_.socketPath = dir_ + "/front.sock";
        options_.socketDir = dir_ + "/workers";
        options_.workers = workers;
        options_.heartbeatSeconds = 0.05;
        options_.heartbeatDeadlineSeconds = 1.0;
        options_.restartBudget = 5;
        options_.restartBaseSeconds = 0.02;
        options_.restartMaxSeconds = 0.2;
        options_.failoverWaitSeconds = 10.0;
        options_.drainTimeoutSeconds = 10.0;
        options_.serve.queueCapacity = 8;
        options_.serve.deadlineSeconds = 10;
        options_.stopFlag = &stop_;
        options_.onReady = [this] { ready_.store(true); };
        options_.onEvent = [this](const std::string& event) {
            std::lock_guard<std::mutex> lock(eventsMutex_);
            events_.push_back(event);
        };
        thread_ = std::thread([this] {
            result_ = std::make_unique<Result<FleetStats>>(
                runFleet(options_));
        });
        for (int i = 0; i < 5000 && !ready_.load(); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    ~FleetHarness()
    {
        stop();
        std::remove(options_.socketPath.c_str());
    }

    bool ready() const { return ready_.load(); }
    const std::string& frontSocket() const { return options_.socketPath; }

    /** Latest pid an onEvent spawn line reported for worker @p index. */
    long long workerPid(int index)
    {
        std::string needle =
            "worker " + std::to_string(index) + " pid ";
        long long pid = 0;
        std::lock_guard<std::mutex> lock(eventsMutex_);
        for (const std::string& event : events_) {
            std::size_t at = event.find(needle);
            if (at == std::string::npos)
                continue;
            pid = std::atoll(event.c_str() + at + needle.size());
        }
        return pid;
    }

    /** Wait until worker @p index reports a spawn with a pid other
     *  than @p notPid (0 = any pid). */
    long long awaitWorkerPid(int index, long long notPid,
                             double timeoutSeconds)
    {
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeoutSeconds);
        while (std::chrono::steady_clock::now() < deadline) {
            long long pid = workerPid(index);
            if (pid != 0 && pid != notPid)
                return pid;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        return 0;
    }

    FleetStats stop()
    {
        stop_.store(true);
        if (thread_.joinable())
            thread_.join();
        if (!result_ || !result_->ok())
            return FleetStats{};
        return result_->value();
    }

    bool finishedOk() const { return result_ && result_->ok(); }

  private:
    std::string dir_;
    FleetOptions options_;
    std::atomic<bool> stop_{false};
    std::atomic<bool> ready_{false};
    std::mutex eventsMutex_;
    std::vector<std::string> events_;
    std::unique_ptr<Result<FleetStats>> result_;
    std::thread thread_;
};

TEST(FleetEndToEndTest, RoutesLoadEvaluateAcrossWorkersAndDrains)
{
    FleetHarness fleet(2, "route");
    ASSERT_TRUE(fleet.ready());

    SessionClient client;
    ASSERT_TRUE(client.connectTo(fleet.frontSocket()));

    Result<std::string> pong =
        client.request("{\"id\":1,\"op\":\"ping\"}");
    ASSERT_TRUE(pong.ok()) << pong.error().toString();
    EXPECT_NE(pong.value().find("\"pong\":true"), std::string::npos);

    Result<std::string> loaded = client.request(
        "{\"id\":2,\"op\":\"load\",\"preset\":\"ddr3_1g_55\"}");
    ASSERT_TRUE(loaded.ok()) << loaded.error().toString();
    EXPECT_NE(loaded.value().find("\"ok\":true"), std::string::npos);

    Result<std::string> evaluated =
        client.request("{\"id\":3,\"op\":\"evaluate\"}");
    ASSERT_TRUE(evaluated.ok()) << evaluated.error().toString();
    EXPECT_NE(evaluated.value().find("\"ok\":true"), std::string::npos);
    // A plain routed answer carries no failover marker.
    EXPECT_EQ(evaluated.value().find("\"failover\""), std::string::npos);

    FleetStats stats = fleet.stop();
    ASSERT_TRUE(fleet.finishedOk());
    EXPECT_EQ(stats.workers, 2);
    EXPECT_TRUE(stats.drained);
    EXPECT_TRUE(stats.workersDrained);
    EXPECT_TRUE(stats.invariantHolds());
    EXPECT_TRUE(stats.cleanDrain());
    EXPECT_GE(stats.router.requestsAccepted, 3);
    EXPECT_EQ(stats.router.requestsAccepted,
              stats.router.responsesWritten +
                  stats.router.responsesFailed);
    EXPECT_EQ(stats.router.failovers, 0);
}

TEST(FleetEndToEndTest, TcpLoopbackRoundTrip)
{
    const int port = freeLoopbackPort();
    ASSERT_GT(port, 0);
    FleetHarness fleet(1, "tcp", port);
    ASSERT_TRUE(fleet.ready());

    Result<std::string> replies = serveSendLines(
        "", port,
        "{\"id\":1,\"op\":\"ping\"}\n"
        "{\"id\":2,\"op\":\"load\",\"preset\":\"ddr3_1g_55\"}\n");
    ASSERT_TRUE(replies.ok()) << replies.error().toString();
    const std::string& out = replies.value();
    const std::size_t eol = out.find('\n');
    ASSERT_NE(eol, std::string::npos);
    EXPECT_NE(out.substr(0, eol).find("\"pong\":true"), std::string::npos);
    EXPECT_NE(out.substr(eol + 1).find("\"ok\":true"), std::string::npos);

    FleetStats stats = fleet.stop();
    ASSERT_TRUE(fleet.finishedOk());
    EXPECT_EQ(stats.router.requestsAccepted, 2);
    EXPECT_TRUE(stats.invariantHolds());
}

TEST(FleetEndToEndTest, RouteFailpointShedsWithStructuredResponse)
{
    FleetHarness fleet(2, "shed");
    ASSERT_TRUE(fleet.ready());

    SessionClient client;
    ASSERT_TRUE(client.connectTo(fleet.frontSocket()));

    FailpointGuard guard;
    activate("fleet.route=error:1");

    // The injected routing failure must come back as a structured
    // response on this request only — the session stays usable.
    Result<std::string> shed =
        client.request("{\"id\":1,\"op\":\"ping\"}");
    ASSERT_TRUE(shed.ok()) << shed.error().toString();
    EXPECT_NE(shed.value().find("\"ok\":false"), std::string::npos);
    EXPECT_NE(shed.value().find("E-FLEET-ROUTE"), std::string::npos);

    Result<std::string> pong =
        client.request("{\"id\":2,\"op\":\"ping\"}");
    ASSERT_TRUE(pong.ok()) << pong.error().toString();
    EXPECT_NE(pong.value().find("\"pong\":true"), std::string::npos);

    FleetStats stats = fleet.stop();
    ASSERT_TRUE(fleet.finishedOk());
    EXPECT_GE(stats.router.requestsShed, 1);
    EXPECT_TRUE(stats.invariantHolds());
}

TEST(FleetEndToEndTest, FailoverReplaysSessionAfterWorkerKill)
{
    // One worker: the respawned incarnation is deterministically the
    // failover target, so the replayed session must land there.
    FleetHarness fleet(1, "failover");
    ASSERT_TRUE(fleet.ready());

    SessionClient client;
    ASSERT_TRUE(client.connectTo(fleet.frontSocket()));

    Result<std::string> loaded = client.request(
        "{\"id\":1,\"op\":\"load\",\"preset\":\"ddr3_1g_55\"}");
    ASSERT_TRUE(loaded.ok()) << loaded.error().toString();
    ASSERT_NE(loaded.value().find("\"ok\":true"), std::string::npos);

    Result<std::string> perturbed = client.request(
        "{\"id\":2,\"op\":\"perturb\",\"param\":\"External supply "
        "voltage Vdd\",\"factor\":0.9}");
    ASSERT_TRUE(perturbed.ok()) << perturbed.error().toString();
    ASSERT_NE(perturbed.value().find("\"ok\":true"), std::string::npos);

    Result<std::string> before =
        client.request("{\"id\":3,\"op\":\"evaluate\"}");
    ASSERT_TRUE(before.ok()) << before.error().toString();
    ASSERT_NE(before.value().find("\"ok\":true"), std::string::npos);

    long long pid = fleet.workerPid(0);
    ASSERT_GT(pid, 0) << "spawn event with the worker pid expected";
    ASSERT_TRUE(signalProcess(pid, SIGKILL).ok());

    // The next request rides the failover path: the router detects the
    // dead backend, waits for the respawn, replays the acked load +
    // perturb baseline, re-runs the request and marks the answer.
    Result<std::string> after =
        client.request("{\"id\":4,\"op\":\"evaluate\"}", 60.0);
    ASSERT_TRUE(after.ok()) << after.error().toString();
    EXPECT_NE(after.value().find("\"ok\":true"), std::string::npos);
    EXPECT_NE(after.value().find("\"failover\":true"),
              std::string::npos);

    // The replay restored the perturb: the failed-over evaluation must
    // match the pre-kill one (modulo the appended marker).
    std::string beforeBody = before.value();
    std::string afterBody = after.value();
    std::size_t beforeId = beforeBody.find(",\"energy");
    std::size_t afterId = afterBody.find(",\"energy");
    if (beforeId != std::string::npos && afterId != std::string::npos) {
        std::string beforeTail = beforeBody.substr(beforeId);
        std::string afterTail = afterBody.substr(afterId);
        std::size_t marker = afterTail.find(",\"failover\":true");
        if (marker != std::string::npos)
            afterTail.erase(marker,
                            std::string(",\"failover\":true").size());
        EXPECT_EQ(beforeTail, afterTail);
    }

    // The new incarnation answered, so a respawn must have happened.
    EXPECT_NE(fleet.awaitWorkerPid(0, pid, 5.0), 0);

    FleetStats stats = fleet.stop();
    ASSERT_TRUE(fleet.finishedOk());
    EXPECT_GE(stats.router.failovers, 1);
    EXPECT_GE(stats.supervisor.restarts, 1);
    EXPECT_TRUE(stats.drained);
    EXPECT_TRUE(stats.invariantHolds());
}

#endif // VDRAM_CLI_PATH

} // namespace
} // namespace vdram
