/**
 * @file
 * Front-end router of the `vdram fleet`: one listening socket speaking
 * the exact newline-JSON serve protocol, fanning client sessions out
 * to the supervised worker daemons.
 *
 * Routing: a session is bound to a worker by the fnv1a64 hash of what
 * it loads: a preset's canonical description, or a text load's raw
 * bytes, unparsed. For canonical text both are the key the workers use
 * for their model caches, so repeated loads of one model land on one
 * worker and stay cache-hot. Before a session loads anything it is
 * spread round-robin.
 *
 * Failover: when a session's worker dies mid-conversation the router
 * re-binds the session to a surviving worker, replays the session's
 * baseline (the acked `load` plus every acked `perturb` since, bounded
 * by `maxReplay`), re-sends the in-flight request, and marks the
 * response with `"failover":true`. When the baseline cannot be
 * reconstructed faithfully (replay overflow, no survivor within the
 * failover wait) the client gets a structured `E-FLEET-FAILOVER`
 * error instead of silently wrong numbers.
 *
 * Invariant: every accepted request line is answered exactly once —
 * `requestsAccepted == responsesWritten + responsesFailed` — which is
 * what the fleet's drain exit code certifies, summed with the workers.
 */
#ifndef VDRAM_SERVE_ROUTER_H
#define VDRAM_SERVE_ROUTER_H

#include <atomic>
#include <functional>
#include <string>

#include "serve/supervisor.h"
#include "util/result.h"

namespace vdram {

struct RouterOptions {
    /** Front listener: unix socket path, or loopback TCP port. */
    std::string socketPath;
    int port = 0;
    /** The worker fleet to route into (not owned). */
    Supervisor* supervisor = nullptr;
    /** How long a session waits for a Ready worker before shedding
     *  (covers the restart gap after a crash). */
    double failoverWaitSeconds = 2.0;
    /** Acked perturbs replayed on failover; beyond this the baseline
     *  is declared unreconstructable (E-FLEET-FAILOVER). */
    int maxReplay = 64;
    /** Close a silent client session after this long (0 = never). */
    double idleSessionSeconds = 300;
    /** Cooperative stop (fleet drain). */
    std::atomic<bool>* stopFlag = nullptr;
    /** Invoked once the front listener is accepting. */
    std::function<void()> onReady;
};

/** Router counters; the fleet sums these with worker stats. */
struct RouterStats {
    long long connections = 0;
    long long requestsAccepted = 0;
    long long requestsRouted = 0;   ///< forwarded to a worker
    long long requestsShed = 0;     ///< answered E-FLEET-ROUTE (no worker)
    long long requestsMalformed = 0;
    long long failovers = 0;        ///< re-bound sessions (attempts)
    long long failoverFailures = 0; ///< answered E-FLEET-FAILOVER
    long long responsesWritten = 0;
    long long responsesFailed = 0;
    long long sessionFaults = 0;
    bool drained = false;
};

/**
 * Run the fleet front-end until the stop flag rises: accept client
 * sessions, route, fail over, then answer everything already read and
 * return the counters. The `fleet.route` failpoint fires around each
 * worker selection.
 */
Result<RouterStats> runFleetRouter(const RouterOptions& options);

} // namespace vdram

#endif // VDRAM_SERVE_ROUTER_H
