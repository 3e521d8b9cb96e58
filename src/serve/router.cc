#include "serve/router.h"

#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "presets/presets.h"
#include "serve/line_server.h"
#include "serve/model_cache.h"
#include "serve/protocol.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/strings.h"

namespace vdram {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point from)
{
    return std::chrono::duration<double>(Clock::now() - from).count();
}

/**
 * The routing key of a `load`: the worker's model-cache key, so one
 * model's sessions converge on one worker and its cache stays hot. A
 * text load hashes its raw bytes without parsing them; for canonical
 * text (what writeDescription() emits) that is the cache key itself.
 * Another spelling of the same device may land on another worker,
 * which costs cache affinity only, never a different answer.
 */
std::uint64_t
loadRoutingHash(const ServeRequest& request)
{
    if (request.preset.empty())
        return fnv1a64(request.text);
    for (const NamedPreset& preset : namedPresets()) {
        if (preset.name == request.preset)
            return canonicalForm(preset.build()).key;
    }
    return fnv1a64("preset:" + request.preset);
}

/** Mark a relayed response as served by a replacement worker. */
std::string
injectFailoverMarker(const std::string& body)
{
    size_t brace = body.rfind('}');
    if (brace == std::string::npos)
        return body;
    std::string marked = body;
    marked.insert(brace, ",\"failover\":true");
    return marked;
}

bool
responseOk(const std::string& body)
{
    return body.find("\"ok\":true") != std::string::npos;
}

class Router {
  public:
    explicit Router(RouterOptions options)
        : options_(std::move(options))
    {
    }

    Result<RouterStats> run();

    /** One backend connection of one client session. */
    struct Backend {
        LineClient connection;
        int workerIndex = -1;
        long long generation = 0;
    };

    /** Per-client-session routing state. */
    struct RouterSession {
        Backend backend;
        bool hashSet = false;
        std::uint64_t hash = 0;       ///< canonical-description key
        std::uint64_t roundRobin = 0; ///< pre-load spread token
        std::string loadLine;         ///< acked load (replay baseline)
        std::vector<std::string> perturbLines; ///< acked perturbs
        bool replayOverflow = false;  ///< baseline not reconstructable
    };

    /** Answer one client line; false once the client socket is dead. */
    bool handleLine(int fd, RouterSession& session,
                    const std::string& line);

  private:
    /** Bind the session to the worker owning @p routeKey (waits up to
     *  failoverWaitSeconds for a Ready worker). */
    Status ensureBackend(RouterSession& session,
                         std::uint64_t routeKey);
    void closeBackend(RouterSession& session);
    /** Send @p line to the bound worker, await the response line. */
    Result<std::string> exchange(RouterSession& session,
                                 const std::string& line);
    /** Re-bind + replay baseline + re-send after a worker death. */
    Result<std::string> failover(RouterSession& session,
                                 std::uint64_t routeKey,
                                 const std::string& line);
    /** Replay the session baseline onto the current backend. */
    Status replayBaseline(RouterSession& session);
    bool writeClient(int fd, const std::string& body);
    bool stopRequested() const
    {
        return options_.stopFlag &&
               options_.stopFlag->load(std::memory_order_relaxed);
    }

    void count(long long RouterStats::*field, const char* metric)
    {
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++(stats_.*field);
        }
        if (metricsEnabled())
            globalMetrics().counter(metric).add();
    }

    RouterOptions options_;
    std::mutex statsMutex_;
    RouterStats stats_;
    std::atomic<std::uint64_t> roundRobin_{0};
};

/** One client connection of the router on the line server. */
class RoutedSession : public LineSession {
  public:
    RoutedSession(Router& router, int fd, std::uint64_t roundRobin)
        : router_(router), fd_(fd)
    {
        session_.roundRobin = roundRobin;
    }

    bool onLine(const std::string& line) override
    {
        return router_.handleLine(fd_, session_, line);
    }

  private:
    Router& router_;
    int fd_;
    Router::RouterSession session_;
};

Result<RouterStats>
Router::run()
{
    LineServerOptions line;
    line.socketPath = options_.socketPath;
    line.port = options_.port;
    line.name = "fleet";
    line.errorCode = "E-FLEET-SOCKET";
    line.idleSessionSeconds = options_.idleSessionSeconds;
    line.stopFlag = options_.stopFlag;
    line.onReady = options_.onReady;
    line.openSession = [this](int fd) -> std::unique_ptr<LineSession> {
        count(&RouterStats::connections, "fleet.connections");
        return std::make_unique<RoutedSession>(
            *this, fd, roundRobin_.fetch_add(1, std::memory_order_relaxed));
    };
    // Same quarantine as the serve daemon: a routing bug or injected
    // crash (fleet.route=crash) tears down this session, not the fleet.
    line.onSessionFault = [this] {
        count(&RouterStats::sessionFaults, "fleet.sessions.faulted");
    };
    Status served = runLineServer(line);
    if (!served.ok())
        return served.error();

    std::lock_guard<std::mutex> lock(statsMutex_);
    stats_.drained = stopRequested();
    return stats_;
}

void
Router::closeBackend(RouterSession& session)
{
    session.backend = Backend{};
}

Status
Router::ensureBackend(RouterSession& session, std::uint64_t routeKey)
{
    Clock::time_point started = Clock::now();
    for (;;) {
        std::vector<FleetWorkerView> workers =
            options_.supervisor->view();
        int index = pickFleetWorker(routeKey, workers);
        if (index >= 0) {
            const FleetWorkerView& target =
                workers[static_cast<size_t>(index)];
            if (session.backend.connection.connected() &&
                session.backend.workerIndex == index &&
                session.backend.generation == target.generation) {
                return Status::okStatus(); // still the same incarnation
            }
            closeBackend(session);
            if (session.backend.connection.connect(target.socketPath, 0)
                    .ok()) {
                session.backend.workerIndex = index;
                session.backend.generation = target.generation;
                return Status::okStatus();
            }
            // Connect raced with a worker death; fall through and wait
            // for the supervisor to see it too.
        }
        if (secondsSince(started) >= options_.failoverWaitSeconds) {
            return Error{"no routable fleet worker", 0, 0, "",
                         "E-FLEET-ROUTE"};
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
}

Result<std::string>
Router::exchange(RouterSession& session, const std::string& line)
{
    // A failure here is the worker dying mid-request (EPIPE, reset,
    // EOF): the failover trigger, not a session error. The wait for
    // the answer is unbounded; the worker's own deadline bounds it.
    LineClient& connection = session.backend.connection;
    Status sent = connection.sendLine(line);
    Result<std::string> response =
        sent.ok() ? connection.readLine() : Result<std::string>(sent.error());
    if (!response.ok()) {
        return Error{"worker " + response.error().message, 0, 0, "",
                     "E-FLEET-SOCKET"};
    }
    return response;
}

Status
Router::replayBaseline(RouterSession& session)
{
    if (session.replayOverflow) {
        return Error{
            strformat("session baseline exceeds the replay budget "
                      "(%d perturbs); cannot reconstruct faithfully",
                      options_.maxReplay),
            0, 0, "", "E-FLEET-FAILOVER"};
    }
    std::vector<const std::string*> lines;
    if (!session.loadLine.empty())
        lines.push_back(&session.loadLine);
    for (const std::string& perturb : session.perturbLines)
        lines.push_back(&perturb);
    for (const std::string* line : lines) {
        Result<std::string> replayed = exchange(session, *line);
        if (!replayed.ok())
            return replayed.error();
        if (!responseOk(replayed.value())) {
            return Error{"baseline replay rejected by the replacement "
                         "worker",
                         0, 0, "", "E-FLEET-FAILOVER"};
        }
    }
    return Status::okStatus();
}

Result<std::string>
Router::failover(RouterSession& session, std::uint64_t routeKey,
                 const std::string& line)
{
    count(&RouterStats::failovers, "fleet.failovers");
    Clock::time_point started = Clock::now();
    Status lastError = Status::okStatus();
    // Bounded retry: each attempt re-picks a worker (the supervisor
    // may still be restarting the dead one), replays the session
    // baseline, then re-sends the in-flight request.
    while (secondsSince(started) < options_.failoverWaitSeconds) {
        closeBackend(session);
        Status bound = ensureBackend(session, routeKey);
        if (!bound.ok()) {
            lastError = bound;
            break; // ensureBackend already waited its budget
        }
        Status replayed = replayBaseline(session);
        if (!replayed.ok()) {
            lastError = replayed;
            if (replayed.error().code == "E-FLEET-FAILOVER")
                break; // structural: waiting will not fix it
            continue;  // the replacement died too; pick again
        }
        Result<std::string> response = exchange(session, line);
        if (response.ok())
            return injectFailoverMarker(response.value());
        lastError = response.error();
    }
    closeBackend(session);
    if (lastError.ok()) {
        lastError = Error{"failover timed out", 0, 0, "",
                          "E-FLEET-FAILOVER"};
    }
    return lastError.error();
}

bool
Router::writeClient(int fd, const std::string& body)
{
    if (body.empty())
        return true;
    if (!sendLine(fd, body)) {
        // The client is gone: the response is charged to
        // responsesFailed and the session closes; the fleet lives.
        count(&RouterStats::responsesFailed, "fleet.responses.failed");
        return false;
    }
    count(&RouterStats::responsesWritten, "fleet.responses.written");
    return true;
}

bool
Router::handleLine(int fd, RouterSession& session,
                   const std::string& line)
{
    if (trim(line).empty())
        return true; // blank keep-alive, no response owed
    count(&RouterStats::requestsAccepted, "fleet.requests.accepted");

    Result<ServeRequest> parsed = parseServeRequest(line);
    if (!parsed.ok()) {
        // The router answers malformed lines itself — no reason to
        // burn a worker round-trip on them.
        count(&RouterStats::requestsMalformed,
              "fleet.requests.malformed");
        const Error& error = parsed.error();
        return writeClient(fd, renderServeError(error.line, error.code,
                                                error.message));
    }
    const ServeRequest& request = parsed.value();

    // Failpoint site `fleet.route`: worker selection. Error sheds the
    // request with a structured response; Crash hits the session
    // quarantine in sessionMain.
    Status routeGate =
        checkFailpoint("fleet.route", "E-FLEET-ROUTE");
    if (!routeGate.ok()) {
        count(&RouterStats::requestsShed, "fleet.requests.shed");
        return writeClient(
            fd, renderServeError(request.id, "E-FLEET-ROUTE",
                                 routeGate.error().message));
    }

    // Routing key: loads rehash (and may re-home the session); every
    // other op sticks with the session's worker.
    std::uint64_t previousHash = session.hash;
    bool previousHashSet = session.hashSet;
    std::uint64_t routeKey =
        session.hashSet ? session.hash : session.roundRobin;
    bool rebound = false;
    if (request.op == ServeOp::Load) {
        std::uint64_t loadHash = loadRoutingHash(request);
        rebound = !session.hashSet || loadHash != session.hash;
        if (rebound)
            closeBackend(session);
        routeKey = loadHash;
        session.hash = loadHash;
        session.hashSet = true;
    }

    Status bound = ensureBackend(session, routeKey);
    if (!bound.ok()) {
        count(&RouterStats::requestsShed, "fleet.requests.shed");
        return writeClient(
            fd, renderServeError(request.id, "E-FLEET-ROUTE",
                                 bound.error().message));
    }

    // A session re-homed by a load must carry nothing over; a session
    // continuing on its worker exchanges directly, failing over when
    // the worker dies under the request.
    std::string response;
    Result<std::string> exchanged = exchange(session, line);
    if (exchanged.ok()) {
        response = exchanged.value();
    } else {
        Result<std::string> recovered =
            failover(session, routeKey, line);
        if (recovered.ok()) {
            response = recovered.value();
        } else {
            count(&RouterStats::failoverFailures,
                  "fleet.failover.failures");
            const Error& error = recovered.error();
            return writeClient(
                fd, renderServeError(
                        request.id,
                        error.code.empty() ? "E-FLEET-FAILOVER"
                                           : error.code,
                        error.message));
        }
    }
    count(&RouterStats::requestsRouted, "fleet.requests.routed");

    // Track the replayable baseline: only acked state-changing ops.
    const bool ok = responseOk(response);
    switch (request.op) {
    case ServeOp::Load:
        if (ok) {
            session.loadLine = line;
            session.perturbLines.clear();
            session.replayOverflow = false;
        } else {
            // The load failed; the session keeps its previous model.
            // If the failed load re-homed us, restore the old baseline
            // on the new worker so follow-up requests still work.
            session.hash = previousHash;
            session.hashSet = previousHashSet;
            if (rebound && !session.loadLine.empty())
                replayBaseline(session); // best effort
        }
        break;
    case ServeOp::Perturb:
        if (ok) {
            if (static_cast<int>(session.perturbLines.size()) <
                options_.maxReplay) {
                session.perturbLines.push_back(line);
            } else {
                // Beyond the budget the baseline can no longer be
                // replayed faithfully; failover will say so instead
                // of returning silently wrong numbers.
                session.replayOverflow = true;
            }
        }
        break;
    case ServeOp::Reset:
        if (ok) {
            session.perturbLines.clear();
            session.replayOverflow = false;
        }
        break;
    default:
        break;
    }
    return writeClient(fd, response);
}

} // namespace

Result<RouterStats>
runFleetRouter(const RouterOptions& options)
{
    if (!options.supervisor) {
        return Error{"fleet router needs a supervisor", 0, 0, "",
                     "E-FLEET-ROUTE"};
    }
    Router router(options);
    return router.run();
}

} // namespace vdram
