#include "serve/supervisor.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <stdexcept>
#include <thread>

#include "serve/line_server.h"
#include "util/backoff.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/strings.h"
#include "util/subprocess.h"

namespace vdram {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

Clock::time_point
after(Clock::time_point base, double seconds)
{
    return base + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
}

} // namespace

int
pickFleetWorker(std::uint64_t hash,
                const std::vector<FleetWorkerView>& workers)
{
    std::uint64_t alive = 0;
    for (const FleetWorkerView& worker : workers) {
        if (worker.state == FleetWorkerState::Ready)
            ++alive;
    }
    if (alive == 0)
        return -1;
    std::uint64_t nth = hash % alive;
    for (const FleetWorkerView& worker : workers) {
        if (worker.state != FleetWorkerState::Ready)
            continue;
        if (nth == 0)
            return worker.index;
        --nth;
    }
    return -1;
}

Result<double>
probeServeWorker(const std::string& socketPath, double timeoutSeconds)
{
    // Failpoint site: the supervisor's view of worker liveness. Stall
    // simulates a wedged worker by burning the whole probe budget and
    // then failing, which drives the heartbeat-deadline kill path.
    FailpointHit hit = failpointHit("fleet.heartbeat");
    switch (hit.action) {
    case FailpointAction::Error:
        return Error{"injected failure at failpoint 'fleet.heartbeat'",
                     0, 0, socketPath, "E-FLEET-HEARTBEAT"};
    case FailpointAction::Crash:
        throw std::runtime_error(
            "injected crash at failpoint 'fleet.heartbeat'");
    case FailpointAction::Abort:
        std::abort();
    case FailpointAction::Stall: {
        double stall = std::min(std::max(timeoutSeconds, 0.0), 2.0);
        std::this_thread::sleep_for(
            std::chrono::duration<double>(stall));
        return Error{"heartbeat probe stalled past its deadline", 0, 0,
                     socketPath, "E-FLEET-HEARTBEAT"};
    }
    default:
        break; // Off / Delay (slept inside the hook) / PartialWrite
    }

    // Connect, ping and pong all inside the probe deadline: a wedged or
    // not yet listening worker must not block the supervisor.
    Clock::time_point started = Clock::now();
    auto fail = [&socketPath](const std::string& why) -> Error {
        return Error{"heartbeat probe failed: " + why, 0, 0, socketPath,
                     "E-FLEET-HEARTBEAT"};
    };
    LineClient probe;
    Status connected = probe.connect(socketPath, 0, timeoutSeconds);
    if (!connected.ok())
        return fail(connected.error().message);
    Status pinged = probe.sendLine("{\"id\":0,\"op\":\"ping\"}");
    if (!pinged.ok())
        return fail(pinged.error().message);
    const double left =
        timeoutSeconds - secondsSince(started, Clock::now());
    Result<std::string> pong = probe.readLine(std::max(left, 1e-3));
    if (!pong.ok())
        return fail(pong.error().message);
    if (pong.value().find("\"pong\"") == std::string::npos)
        return fail("no pong from '" + socketPath + "'");
    return secondsSince(started, Clock::now());
}

Supervisor::Supervisor(SupervisorOptions options)
    : options_(std::move(options))
{
    if (options_.workers < 1)
        options_.workers = 1;
    slots_.resize(static_cast<size_t>(options_.workers));
    for (int i = 0; i < options_.workers; ++i) {
        Slot& slot = slots_[static_cast<size_t>(i)];
        slot.index = i;
        slot.socketPath = options_.socketDir + "/worker-" +
                          std::to_string(i) + ".sock";
    }
}

std::vector<std::string>
Supervisor::workerArgv(const Slot& slot) const
{
    if (!options_.workerArgvOverride.empty())
        return options_.workerArgvOverride;
    std::vector<std::string> argv{
        options_.exePath,
        "serve",
        "--socket=" + slot.socketPath,
        "--queue=" + std::to_string(options_.serve.queueCapacity),
        strformat("--deadline=%g", options_.serve.deadlineSeconds),
        strformat("--max-deadline=%g",
                  options_.serve.maxDeadlineSeconds),
        strformat("--idle-timeout=%g",
                  options_.serve.idleSessionSeconds),
        "--cache=" + std::to_string(options_.serve.cacheCapacity),
    };
    if (options_.serve.threads > 0)
        argv.push_back("--jobs=" +
                       std::to_string(options_.serve.threads));
    return argv;
}

Status
Supervisor::spawnSlotLocked(Slot& slot)
{
    Status gate = checkFailpoint("fleet.spawn", "E-FLEET-SPAWN");
    if (!gate.ok())
        return gate;
    SpawnOptions spawn;
    spawn.argv = workerArgv(slot);
    if (options_.redirectWorkerStderr) {
        spawn.stderrPath = options_.socketDir + "/worker-" +
                           std::to_string(slot.index) + ".err";
    }
    Result<long long> pid = spawnProcess(spawn);
    if (!pid.ok())
        return pid.error();
    Clock::time_point now = Clock::now();
    bool restart = slot.generation > 0;
    slot.pid = pid.value();
    slot.generation += 1;
    slot.state = FleetWorkerState::Starting;
    slot.spawnedAt = now;
    slot.lastHealthy = now;
    slot.nextProbeAt = now; // probe immediately; readiness = first pong
    slot.killPending = false;
    stats_.spawns += 1;
    if (restart)
        stats_.restarts += 1;
    if (metricsEnabled()) {
        globalMetrics().counter("fleet.workers.spawned").add();
        if (restart)
            globalMetrics().counter("fleet.restarts").add();
    }
    emitEvent(strformat("worker %d pid %lld socket %s %s (gen %lld)",
                        slot.index, slot.pid, slot.socketPath.c_str(),
                        restart ? "respawned" : "spawned",
                        slot.generation));
    return Status::okStatus();
}

void
Supervisor::onWorkerDownLocked(Slot& slot, const std::string& why)
{
    slot.restarts += 1;
    if (slot.restarts > options_.restartBudget) {
        // Circuit breaker: the budget is gone; stop burning spawns on
        // a worker that cannot stay up. Routing drops the slot from
        // the Ready set, so its hash range redistributes immediately.
        slot.state = FleetWorkerState::Dead;
        stats_.workersDead += 1;
        if (metricsEnabled())
            globalMetrics().gauge("fleet.workers.dead")
                .set(stats_.workersDead);
        emitEvent(strformat(
            "worker %d E-FLEET-DEAD: restart budget (%d) exhausted "
            "after %s; hash range redistributed",
            slot.index, options_.restartBudget, why.c_str()));
        return;
    }
    BackoffPolicy policy;
    policy.baseSeconds = options_.restartBaseSeconds;
    policy.maxSeconds = options_.restartMaxSeconds;
    double delay = backoffDelaySeconds(policy, slot.restarts);
    slot.state = FleetWorkerState::Backoff;
    slot.restartAt = after(Clock::now(), delay);
    emitEvent(strformat(
        "worker %d down (%s); restart %d/%d in %.0f ms", slot.index,
        why.c_str(), slot.restarts, options_.restartBudget,
        delay * 1000.0));
    publishAliveMetricLocked();
}

void
Supervisor::emitEvent(const std::string& message)
{
    if (options_.onEvent)
        options_.onEvent(message);
}

void
Supervisor::publishAliveMetricLocked()
{
    if (!metricsEnabled())
        return;
    long long alive = 0;
    for (const Slot& slot : slots_) {
        if (slot.state == FleetWorkerState::Ready)
            ++alive;
    }
    globalMetrics().gauge("fleet.workers.alive").set(alive);
}

Status
Supervisor::start()
{
    if (options_.exePath.empty() &&
        options_.workerArgvOverride.empty()) {
        return Error{"fleet supervisor needs the vdram binary path", 0,
                     0, "", "E-FLEET-SPAWN"};
    }
    installSigchldNotifier();
    std::lock_guard<std::mutex> lock(mutex_);
    for (Slot& slot : slots_) {
        Status spawned = spawnSlotLocked(slot);
        if (!spawned.ok()) {
            stats_.spawnFailures += 1;
            emitEvent(strformat("worker %d spawn failed: %s",
                                slot.index,
                                spawned.error().message.c_str()));
            onWorkerDownLocked(slot, "spawn failure");
        }
    }
    bool anyViable = false;
    for (const Slot& slot : slots_) {
        if (slot.state != FleetWorkerState::Dead)
            anyViable = true;
    }
    if (!anyViable) {
        return Error{"no fleet worker could be spawned", 0, 0,
                     options_.socketDir, "E-FLEET-SPAWN"};
    }
    publishAliveMetricLocked();
    return Status::okStatus();
}

void
Supervisor::tick()
{
    struct Probe {
        int index;
        long long generation;
        std::string socketPath;
    };
    std::vector<Probe> probes;
    Clock::time_point now = Clock::now();

    {
        std::lock_guard<std::mutex> lock(mutex_);
        // 1. Reap exited workers (SIGCHLD already woke the control
        // loop; this is the non-blocking collection pass).
        for (Slot& slot : slots_) {
            if (slot.pid <= 0)
                continue;
            Result<ReapResult> reaped = reapProcess(slot.pid, false);
            if (!reaped.ok() || !reaped.value().exited)
                continue;
            const ReapResult& exit = reaped.value();
            emitEvent(
                exit.termSignal != 0
                    ? strformat("worker %d pid %lld killed by signal %d",
                                slot.index, slot.pid, exit.termSignal)
                    : strformat("worker %d pid %lld exited code %d",
                                slot.index, slot.pid, exit.exitCode));
            slot.pid = 0;
            if (slot.killPending) {
                // We already routed this death (heartbeat kill); the
                // reap must not double-charge the restart budget.
                slot.killPending = false;
                continue;
            }
            onWorkerDownLocked(slot, "unexpected exit");
        }
        // 2. Respawn slots whose backoff elapsed (only after the old
        // process was reaped, so pids never collide in the table).
        for (Slot& slot : slots_) {
            if (slot.state != FleetWorkerState::Backoff ||
                slot.pid != 0 || now < slot.restartAt)
                continue;
            Status spawned = spawnSlotLocked(slot);
            if (!spawned.ok()) {
                stats_.spawnFailures += 1;
                emitEvent(strformat("worker %d respawn failed: %s",
                                    slot.index,
                                    spawned.error().message.c_str()));
                onWorkerDownLocked(slot, "spawn failure");
            }
        }
        // 3. Collect due liveness probes; the network round-trips run
        // outside the lock so view()/failover can't be stalled.
        for (Slot& slot : slots_) {
            if (slot.pid <= 0)
                continue;
            if (slot.state != FleetWorkerState::Starting &&
                slot.state != FleetWorkerState::Ready)
                continue;
            if (now < slot.nextProbeAt)
                continue;
            probes.push_back(
                Probe{slot.index, slot.generation, slot.socketPath});
        }
    }

    for (const Probe& probe : probes) {
        Result<double> latency =
            probeServeWorker(probe.socketPath,
                             options_.heartbeatDeadlineSeconds);
        Clock::time_point applied = Clock::now();
        std::lock_guard<std::mutex> lock(mutex_);
        Slot& slot = slots_[static_cast<size_t>(probe.index)];
        if (slot.generation != probe.generation || slot.pid <= 0)
            continue; // the probed incarnation is already gone
        stats_.heartbeatProbes += 1;
        if (metricsEnabled())
            globalMetrics().counter("fleet.heartbeat.probes").add();
        if (latency.ok()) {
            if (slot.state == FleetWorkerState::Starting) {
                slot.state = FleetWorkerState::Ready;
                emitEvent(strformat("worker %d ready (gen %lld)",
                                    slot.index, slot.generation));
                publishAliveMetricLocked();
            }
            slot.lastHealthy = applied;
            slot.nextProbeAt =
                after(applied, options_.heartbeatSeconds);
            if (metricsEnabled()) {
                globalMetrics().histogram("fleet.heartbeat.nanos")
                    .record(static_cast<std::uint64_t>(
                        latency.value() * 1e9));
            }
            continue;
        }
        stats_.heartbeatFailures += 1;
        if (metricsEnabled())
            globalMetrics().counter("fleet.heartbeat.failures").add();
        bool overDeadline =
            slot.state == FleetWorkerState::Ready
                ? secondsSince(slot.lastHealthy, applied) >
                      options_.heartbeatDeadlineSeconds
                : secondsSince(slot.spawnedAt, applied) >
                      options_.readySeconds;
        if (!overDeadline) {
            // Transient miss: retry on the heartbeat cadence; the
            // liveness deadline decides, not one lost probe.
            slot.nextProbeAt =
                after(applied, options_.heartbeatSeconds);
            continue;
        }
        // Wedged: alive for the kernel, dead for clients. Kill it and
        // run the standard restart path; the reap next tick observes
        // the SIGKILL and must not double-count (killPending).
        signalProcess(slot.pid, SIGKILL);
        slot.killPending = true;
        onWorkerDownLocked(slot, "heartbeat deadline exceeded");
    }
}

bool
Supervisor::drain(double timeoutSeconds)
{
    std::vector<long long> pids;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (Slot& slot : slots_) {
            if (slot.pid > 0) {
                signalProcess(slot.pid, SIGTERM);
                pids.push_back(slot.pid);
            }
        }
        emitEvent(strformat("drain: SIGTERM sent to %d worker(s)",
                            static_cast<int>(pids.size())));
    }

    bool allDrained = true;
    Clock::time_point deadline = after(Clock::now(), timeoutSeconds);
    for (;;) {
        bool pending = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (Slot& slot : slots_) {
                if (slot.pid <= 0)
                    continue;
                Result<ReapResult> reaped =
                    reapProcess(slot.pid, false);
                if (reaped.ok() && reaped.value().exited) {
                    const ReapResult& exit = reaped.value();
                    // The serve drain contract: a worker that drained
                    // cleanly exits 5 with its invariant intact.
                    if (exit.exitCode != 5)
                        allDrained = false;
                    emitEvent(strformat(
                        "drain: worker %d pid %lld exit code %d "
                        "signal %d",
                        slot.index, slot.pid, exit.exitCode,
                        exit.termSignal));
                    slot.pid = 0;
                    slot.state = FleetWorkerState::Backoff;
                    continue;
                }
                pending = true;
            }
        }
        if (!pending)
            break;
        if (Clock::now() >= deadline) {
            std::lock_guard<std::mutex> lock(mutex_);
            for (Slot& slot : slots_) {
                if (slot.pid <= 0)
                    continue;
                emitEvent(strformat(
                    "drain: worker %d pid %lld unresponsive; SIGKILL",
                    slot.index, slot.pid));
                signalProcess(slot.pid, SIGKILL);
                reapProcess(slot.pid, true);
                slot.pid = 0;
                slot.state = FleetWorkerState::Backoff;
                allDrained = false;
            }
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        publishAliveMetricLocked();
    }
    return allDrained;
}

std::vector<FleetWorkerView>
Supervisor::view() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<FleetWorkerView> views;
    views.reserve(slots_.size());
    for (const Slot& slot : slots_) {
        FleetWorkerView view;
        view.index = slot.index;
        view.state = slot.state;
        view.socketPath = slot.socketPath;
        view.pid = slot.pid;
        view.generation = slot.generation;
        view.restarts = slot.restarts;
        views.push_back(std::move(view));
    }
    return views;
}

int
Supervisor::aliveCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    int alive = 0;
    for (const Slot& slot : slots_) {
        if (slot.state == FleetWorkerState::Ready)
            ++alive;
    }
    return alive;
}

bool
Supervisor::allDead() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Slot& slot : slots_) {
        if (slot.state != FleetWorkerState::Dead)
            return false;
    }
    return true;
}

SupervisorStats
Supervisor::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace vdram
