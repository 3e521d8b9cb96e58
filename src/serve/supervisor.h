/**
 * @file
 * Worker supervision for the `vdram fleet` front-end: spawn N
 * `vdram serve` daemons on private sockets, keep them alive, and give
 * the router a consistent view of who is routable.
 *
 * Robustness contract:
 *
 *  - Crash detection: a SIGCHLD notifier (util/subprocess.h) plus a
 *    non-blocking reap per control-loop tick catches worker exits
 *    within one tick; a heartbeat ping with a liveness deadline
 *    catches wedged-but-alive workers (the probe is the `fleet.
 *    heartbeat` failpoint site).
 *  - Restarts: a dead worker is respawned with exponential backoff
 *    (util/backoff.h). Restarts are bounded by a per-worker budget —
 *    a circuit breaker: once exhausted the worker is marked Dead
 *    (diagnostic `E-FLEET-DEAD`) and its hash range is implicitly
 *    redistributed, because routing only considers Ready workers.
 *  - Generations: every (re)spawn bumps the slot's generation. The
 *    router compares generations to detect that its cached backend
 *    connection points at a previous incarnation.
 *  - Drain: SIGTERM to every worker (each drains per the serve
 *    contract and exits 5), bounded wait, SIGKILL escalation.
 *
 * The control loop (tick()) never blocks on worker I/O while holding
 * the supervisor lock, so the router's view()/failover path cannot be
 * stalled by a wedged worker probe.
 */
#ifndef VDRAM_SERVE_SUPERVISOR_H
#define VDRAM_SERVE_SUPERVISOR_H

#include <chrono>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "util/result.h"

namespace vdram {

/** Lifecycle of one worker slot. */
enum class FleetWorkerState {
    Starting, ///< spawned, not yet passed a liveness probe
    Ready,    ///< probed alive; routable
    Backoff,  ///< died; waiting out the restart backoff
    Dead,     ///< restart budget exhausted (E-FLEET-DEAD); not routable
};

/** Options forwarded to every spawned `vdram serve` worker. */
struct WorkerServeOptions {
    int threads = 0;               ///< --jobs (0 = worker default)
    long long queueCapacity = 32;  ///< --queue
    double deadlineSeconds = 10;   ///< --deadline
    double maxDeadlineSeconds = 60;///< --max-deadline
    double idleSessionSeconds = 300; ///< --idle-timeout
    long long cacheCapacity = 8;   ///< --cache
};

struct SupervisorOptions {
    /** Path of the vdram binary to exec as `<exe> serve ...`. */
    std::string exePath;
    /** Directory holding the private worker sockets. */
    std::string socketDir;
    /** Number of worker slots. */
    int workers = 2;
    /** Interval between liveness probes of a Ready worker. */
    double heartbeatSeconds = 0.25;
    /** A worker unresponsive this long is killed and restarted. */
    double heartbeatDeadlineSeconds = 2.0;
    /** A Starting worker must pass a probe within this. */
    double readySeconds = 10.0;
    /** Restart-budget circuit breaker: respawns per slot before the
     *  slot is marked Dead. */
    int restartBudget = 5;
    /** Restart backoff: base delay, doubling, capped. */
    double restartBaseSeconds = 0.05;
    double restartMaxSeconds = 2.0;
    /** Options forwarded to every worker daemon. */
    WorkerServeOptions serve;
    /** Worker stderr files are socketDir/worker-N.err by default;
     *  false inherits the fleet's stderr (interleaved). */
    bool redirectWorkerStderr = true;
    /** Test hook: spawn this argv instead of `<exe> serve ...`
     *  (per-slot socket still governs probing). */
    std::vector<std::string> workerArgvOverride;
    /** Supervision events ("worker 2 pid 871 spawned", restarts,
     *  budget exhaustion) for the fleet's log. */
    std::function<void(const std::string&)> onEvent;
};

/** Lifetime counters. */
struct SupervisorStats {
    long long spawns = 0;      ///< successful worker spawns (incl. restarts)
    long long restarts = 0;    ///< respawns after a death or wedge
    long long spawnFailures = 0;
    long long workersDead = 0; ///< slots whose budget was exhausted
    long long heartbeatProbes = 0;
    long long heartbeatFailures = 0;
};

/** Routing view of one slot (a consistent snapshot from view()). */
struct FleetWorkerView {
    int index = 0;
    FleetWorkerState state = FleetWorkerState::Starting;
    std::string socketPath;
    long long pid = 0;
    /** Bumped on every (re)spawn of this slot. */
    long long generation = 0;
    int restarts = 0;
};

/**
 * Pick the worker for @p hash among routable slots: the
 * (hash mod alive)-th Ready entry of @p workers, so a session's model
 * cache stays hot on one worker while the key space redistributes
 * automatically when workers die or come back. Returns the slot index,
 * or -1 when no worker is Ready. Deterministic; the `fleet.route`
 * failpoint is evaluated by the router around this choice, not here.
 */
int pickFleetWorker(std::uint64_t hash,
                    const std::vector<FleetWorkerView>& workers);

/**
 * Liveness probe: connect to a worker socket, send a ping request,
 * await the pong — all bounded by @p timeoutSeconds. Returns the
 * round-trip latency. This is the `fleet.heartbeat` failpoint site
 * (error: probe reports failure; stall: probe blocks until its bound
 * and then fails, simulating a wedged worker; crash: throws).
 */
Result<double> probeServeWorker(const std::string& socketPath,
                                double timeoutSeconds);

class Supervisor {
  public:
    explicit Supervisor(SupervisorOptions options);

    /** Spawn every slot. Fails only when no slot could be spawned at
     *  all; individual failures enter the restart/backoff path. */
    Status start();

    /**
     * One control-loop iteration: reap exited workers, run due
     * heartbeat probes, kill wedged workers, respawn slots whose
     * backoff elapsed, mark slots Dead when the budget is gone.
     * Blocking I/O (probes) happens outside the supervisor lock.
     */
    void tick();

    /**
     * Stop the fleet: SIGTERM every live worker (each drains and
     * exits 5), wait up to @p timeoutSeconds, SIGKILL stragglers.
     * Returns true when every reaped worker exited with code 5
     * (the serve drain contract held fleet-wide).
     */
    bool drain(double timeoutSeconds);

    /** Consistent snapshot of every slot. */
    std::vector<FleetWorkerView> view() const;

    /** Number of Ready slots. */
    int aliveCount() const;

    /** True once every slot is Dead (the fleet cannot serve). */
    bool allDead() const;

    SupervisorStats stats() const;

  private:
    struct Slot {
        int index = 0;
        FleetWorkerState state = FleetWorkerState::Starting;
        std::string socketPath;
        long long pid = 0;
        long long generation = 0;
        int restarts = 0;
        std::chrono::steady_clock::time_point spawnedAt{};
        std::chrono::steady_clock::time_point lastHealthy{};
        std::chrono::steady_clock::time_point nextProbeAt{};
        std::chrono::steady_clock::time_point restartAt{};
        /** SIGKILL sent; the pending reap must not double-count. */
        bool killPending = false;
    };

    std::vector<std::string> workerArgv(const Slot& slot) const;
    /** Spawn (or respawn) @p slot; failpoint site `fleet.spawn`. */
    Status spawnSlotLocked(Slot& slot);
    /** Route a worker death into backoff-or-dead. */
    void onWorkerDownLocked(Slot& slot, const std::string& why);
    void emitEvent(const std::string& message);
    void publishAliveMetricLocked();

    SupervisorOptions options_;
    mutable std::mutex mutex_;
    std::vector<Slot> slots_;
    SupervisorStats stats_;
};

} // namespace vdram

#endif // VDRAM_SERVE_SUPERVISOR_H
