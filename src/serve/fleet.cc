#include "serve/fleet.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <sys/stat.h>
#include <sys/types.h>

#include "util/json.h"

namespace vdram {

std::string
FleetStats::renderJson() const
{
    JsonWriter json;
    json.beginObject();
    json.key("workers").value(static_cast<long long>(workers));
    json.key("spawns").value(supervisor.spawns);
    json.key("restarts").value(supervisor.restarts);
    json.key("spawnFailures").value(supervisor.spawnFailures);
    json.key("workersDead").value(supervisor.workersDead);
    json.key("heartbeatProbes").value(supervisor.heartbeatProbes);
    json.key("heartbeatFailures").value(supervisor.heartbeatFailures);
    json.key("connections").value(router.connections);
    json.key("requestsAccepted").value(router.requestsAccepted);
    json.key("requestsRouted").value(router.requestsRouted);
    json.key("requestsShed").value(router.requestsShed);
    json.key("requestsMalformed").value(router.requestsMalformed);
    json.key("failovers").value(router.failovers);
    json.key("failoverFailures").value(router.failoverFailures);
    json.key("responsesWritten").value(router.responsesWritten);
    json.key("responsesFailed").value(router.responsesFailed);
    json.key("invariantHolds").value(invariantHolds());
    json.key("workersDrained").value(workersDrained);
    json.key("drained").value(drained);
    json.endObject();
    return json.str();
}

Result<FleetStats>
runFleet(const FleetOptions& options)
{
    if (options.socketDir.empty()) {
        return Error{"fleet needs a worker socket directory", 0, 0, "",
                     "E-FLEET-SOCKET"};
    }
    if (::mkdir(options.socketDir.c_str(), 0755) != 0 &&
        errno != EEXIST) {
        return Error{"cannot create worker socket directory '" +
                         options.socketDir +
                         "': " + std::strerror(errno),
                     0, 0, options.socketDir, "E-FLEET-SOCKET"};
    }

    SupervisorOptions supervise;
    supervise.exePath = options.exePath;
    supervise.socketDir = options.socketDir;
    supervise.workers = options.workers;
    supervise.heartbeatSeconds = options.heartbeatSeconds;
    supervise.heartbeatDeadlineSeconds =
        options.heartbeatDeadlineSeconds;
    supervise.readySeconds = options.readySeconds;
    supervise.restartBudget = options.restartBudget;
    supervise.restartBaseSeconds = options.restartBaseSeconds;
    supervise.restartMaxSeconds = options.restartMaxSeconds;
    supervise.serve = options.serve;
    supervise.onEvent = options.onEvent;

    Supervisor supervisor(std::move(supervise));
    Status started = supervisor.start();
    if (!started.ok())
        return started.error();

    // Control loop on its own thread: reap, probe, restart. The tick
    // cadence bounds crash-detection latency; probes themselves are
    // paced per worker by heartbeatSeconds.
    std::atomic<bool> controlStop{false};
    std::thread control([&supervisor, &controlStop] {
        while (!controlStop.load(std::memory_order_relaxed)) {
            supervisor.tick();
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
    });

    RouterOptions route;
    route.socketPath = options.socketPath;
    route.port = options.port;
    route.supervisor = &supervisor;
    route.failoverWaitSeconds = options.failoverWaitSeconds;
    route.maxReplay = options.maxReplay;
    route.idleSessionSeconds = options.idleSessionSeconds;
    route.stopFlag = options.stopFlag;
    route.onReady = options.onReady;

    Result<RouterStats> routed = runFleetRouter(route);

    // Drain ordering: the router has already answered everything it
    // accepted; only then are the workers told to drain, so no client
    // request is stranded inside a worker the fleet is killing.
    controlStop.store(true, std::memory_order_relaxed);
    control.join();
    bool workersDrained = supervisor.drain(options.drainTimeoutSeconds);

    if (!routed.ok())
        return routed.error();

    FleetStats stats;
    stats.workers = options.workers;
    stats.supervisor = supervisor.stats();
    stats.router = routed.value();
    stats.drained = stats.router.drained;
    stats.workersDrained = workersDrained;
    return stats;
}

} // namespace vdram
