#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/model.h"
#include "core/sensitivity.h"
#include "core/variant_evaluator.h"
#include "dsl/parser.h"
#include "presets/presets.h"
#include "protocol/idd.h"
#include "serve/admission_gate.h"
#include "serve/line_server.h"
#include "serve/model_cache.h"
#include "serve/protocol.h"
#include "util/backoff.h"
#include "util/failpoint.h"
#include "util/numerics.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/strings.h"

namespace vdram {

std::string
ServeStats::renderJson() const
{
    JsonWriter json;
    json.beginObject();
    json.key("connections").value(connections);
    json.key("requestsAccepted").value(requestsAccepted);
    json.key("requestsShed").value(requestsShed);
    json.key("requestsMalformed").value(requestsMalformed);
    json.key("deadlineExceeded").value(deadlineExceeded);
    json.key("responsesWritten").value(responsesWritten);
    json.key("responsesFailed").value(responsesFailed);
    json.key("idleEvicted").value(idleEvicted);
    json.key("sessionFaults").value(sessionFaults);
    json.key("drained").value(drained);
    json.endObject();
    return json.str();
}

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Per-connection model state. Owned by exactly one session thread, so
 *  no lock: the session thread executes its own requests one by one. */
struct Session {
    std::unique_ptr<VariantEvaluator> evaluator;
    std::string deviceName;
    std::uint64_t modelKey = 0;
    long long deltaApplies = 0;
};

/** The detailed sweep list doubles as the perturbation registry (name,
 *  multiplicative mutator, precise dirty mask for the fast path). */
const std::vector<SweepParam>&
perturbParams()
{
    static const std::vector<SweepParam>* params =
        new std::vector<SweepParam>(
            sweepParameters(SweepMode::Detailed));
    return *params;
}

Result<IddMeasure>
measureByName(const std::string& lower)
{
    static const IddMeasure all[] = {
        IddMeasure::Idd0,  IddMeasure::Idd1,  IddMeasure::Idd2N,
        IddMeasure::Idd2P, IddMeasure::Idd3N, IddMeasure::Idd3P,
        IddMeasure::Idd4R, IddMeasure::Idd4W, IddMeasure::Idd5,
        IddMeasure::Idd6,  IddMeasure::Idd7,
    };
    for (IddMeasure measure : all) {
        if (toLower(iddName(measure)) == lower)
            return measure;
    }
    return Error{"unknown IDD measure '" + lower + "'", 0, 0, "",
                 "E-SERVE-REQUEST"};
}

/** The description a `load` names: a preset, or parsed text. */
Result<DramDescription>
requestedDescription(const ServeRequest& request)
{
    if (request.preset.empty())
        return parseDescription(request.text);
    for (const NamedPreset& preset : namedPresets()) {
        if (preset.name == request.preset)
            return preset.build();
    }
    return Error{"unknown preset '" + request.preset + "'"};
}

class Server {
  public:
    explicit Server(const ServeOptions& options)
        : options_(options),
          gate_(options.threads > 0 ? options.threads : 2,
                std::max<long long>(1, options.queueCapacity)),
          cache_(options.cacheCapacity)
    {
    }

    Result<ServeStats> run();

    /** One request line -> exactly one response line. Returns false
     *  when the connection is no longer writable. */
    bool handleLine(int fd, Session& session, const std::string& line);

    /** Move the open-session count by @p delta and publish it. */
    void publishActiveSessions(int delta)
    {
        activeSessions_.fetch_add(delta, std::memory_order_relaxed);
        if (metricsEnabled()) {
            globalMetrics()
                .gauge("serve.sessions.active")
                .set(activeSessions_.load(std::memory_order_relaxed));
        }
    }

  private:
    bool stopRequested() const
    {
        return options_.stopFlag &&
               options_.stopFlag->load(std::memory_order_relaxed);
    }
    std::string executeRequest(Session& session,
                               const ServeRequest& request);
    /** @p deadline is Clock::time_point::max() when none is armed. */
    std::string handleRequest(Session& session,
                              const ServeRequest& request,
                              Clock::time_point deadline);
    bool writeResponse(int fd, const std::string& body);

    void count(long long ServeStats::*field, const char* metric)
    {
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++(stats_.*field);
        }
        if (metricsEnabled())
            globalMetrics().counter(metric).add();
    }

    ServeOptions options_;
    AdmissionGate gate_;
    ModelCache cache_;
    std::mutex statsMutex_;
    ServeStats stats_;
    std::atomic<int> activeSessions_{0};
};

/** One connection of the daemon on the line server. */
class ServeSession : public LineSession {
  public:
    ServeSession(Server& server, int fd) : server_(server), fd_(fd) {}
    ~ServeSession() override { server_.publishActiveSessions(-1); }

    bool onLine(const std::string& line) override
    {
        return server_.handleLine(fd_, session_, line);
    }

  private:
    Server& server_;
    int fd_;
    Session session_;
};

Result<ServeStats>
Server::run()
{
    LineServerOptions line;
    line.socketPath = options_.socketPath;
    line.port = options_.port;
    line.name = "serve";
    line.errorCode = "E-SERVE-SOCKET";
    line.idleSessionSeconds = options_.idleSessionSeconds;
    line.stopFlag = options_.stopFlag;
    line.onReady = options_.onReady;
    line.openSession = [this](int fd) -> std::unique_ptr<LineSession> {
        count(&ServeStats::connections, "serve.connections.accepted");
        publishActiveSessions(1);
        return std::make_unique<ServeSession>(*this, fd);
    };
    line.onIdleEvicted = [this] {
        count(&ServeStats::idleEvicted, "serve.sessions.evicted_idle");
    };
    line.onSessionFault = [this] {
        count(&ServeStats::sessionFaults, "serve.sessions.faulted");
    };
    Status served = runLineServer(line);
    if (!served.ok())
        return served.error();

    std::lock_guard<std::mutex> lock(statsMutex_);
    stats_.drained = stopRequested();
    return stats_;
}

bool
Server::handleLine(int fd, Session& session, const std::string& line)
{
    if (trim(line).empty())
        return true; // blank keep-alive line, no response owed
    count(&ServeStats::requestsAccepted, "serve.requests.accepted");

    Result<ServeRequest> parsed = parseServeRequest(line);
    if (!parsed.ok()) {
        count(&ServeStats::requestsMalformed,
              "serve.requests.malformed");
        const Error& error = parsed.error();
        return writeResponse(
            fd, renderServeError(error.line, error.code, error.message));
    }
    const ServeRequest& request = parsed.value();

    // The gate is the backpressure boundary: a shed request is answered
    // at once, so the client learns the daemon is saturated.
    if (!gate_.admit()) {
        count(&ServeStats::requestsShed, "serve.requests.shed");
        return writeResponse(
            fd,
            renderServeError(request.id, "E-SERVE-OVERLOAD",
                             "request queue is full; retry later"));
    }
    std::string body;
    try {
        body = executeRequest(session, request);
    } catch (...) {
        gate_.release(); // the session closes; its slot must not leak
        throw;
    }
    gate_.release();
    return writeResponse(fd, body);
}

std::string
Server::executeRequest(Session& session, const ServeRequest& request)
{
    double seconds = options_.deadlineSeconds;
    if (request.deadlineSeconds > 0) {
        seconds = std::min(request.deadlineSeconds,
                           options_.maxDeadlineSeconds);
    }
    // Armed once the request holds a slot: a wait at the gate does not
    // count against it.
    const Clock::time_point deadline =
        seconds > 0 ? Clock::now() +
                          std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds))
                    : Clock::time_point::max();
    std::string body;
    try {
        body = handleRequest(session, request, deadline);
    } catch (const std::exception& e) {
        // A poisoned model or any other throwing evaluation is this
        // request's problem only.
        body = renderServeError(request.id, "E-SERVE-INTERNAL",
                                std::string("request failed: ") +
                                    e.what());
    } catch (...) {
        body = renderServeError(request.id, "E-SERVE-INTERNAL",
                                "request failed: non-standard exception");
    }
    if (Clock::now() > deadline) {
        count(&ServeStats::deadlineExceeded, "serve.deadline.exceeded");
        return renderServeError(
            request.id, "E-SERVE-DEADLINE",
            strformat("deadline of %.3f s exceeded", seconds));
    }
    return body;
}

std::string
Server::handleRequest(Session& session, const ServeRequest& request,
                      Clock::time_point deadline)
{
    // Failpoint `serve.request`: Stall exercises the deadline check
    // (bounded so an unarmed deadline cannot wedge a session), Crash
    // exercises the per-request exception quarantine.
    FailpointHit hit = failpointHit("serve.request");
    if (hit.action == FailpointAction::Error) {
        return renderServeError(request.id, "E-SERVE-INTERNAL",
                                "injected failure at failpoint "
                                "'serve.request'");
    }
    if (hit.action == FailpointAction::Crash) {
        throw std::runtime_error(
            "injected crash at failpoint 'serve.request'");
    }
    if (hit.action == FailpointAction::Abort)
        std::abort();
    if (hit.action == FailpointAction::Stall) {
        double cap = options_.deadlineSeconds > 0
                         ? options_.maxDeadlineSeconds * 4
                         : 0.2;
        Clock::time_point start = Clock::now();
        while (Clock::now() <= deadline && secondsSince(start) < cap) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
        // The deadline check in executeRequest turns this into
        // E-SERVE-DEADLINE; without an armed deadline we recover here.
        if (Clock::now() <= deadline) {
            return renderServeError(request.id, "E-SERVE-INTERNAL",
                                    "injected stall at failpoint "
                                    "'serve.request'");
        }
        return std::string();
    }

    JsonWriter json;
    switch (request.op) {
    case ServeOp::Ping: {
        json.beginObject();
        json.key("id").value(request.id);
        json.key("ok").value(true);
        json.key("pong").value(true);
        json.key("daemon").value("vdram-serve");
        json.endObject();
        return json.str();
    }
    case ServeOp::List: {
        json.beginObject();
        json.key("id").value(request.id);
        json.key("ok").value(true);
        json.key("presets").beginArray();
        for (const NamedPreset& preset : namedPresets())
            json.value(preset.name);
        json.endArray();
        json.key("params").beginArray();
        for (const SweepParam& param : perturbParams())
            json.value(param.name);
        json.endArray();
        json.endObject();
        return json.str();
    }
    case ServeOp::Load: {
        auto loadError = [&request](const Error& error) {
            return renderServeError(
                request.id,
                error.code.empty() ? "E-SERVE-REQUEST" : error.code,
                error.toString());
        };
        // Text the cache holds byte for byte was parsed, validated and
        // keyed by an earlier load: build straight from its snapshot.
        std::uint64_t key = 0;
        std::shared_ptr<const DramDescription> snapshot;
        if (request.preset.empty()) {
            key = fnv1a64(request.text);
            snapshot = cache_.find(key, request.text);
        }
        bool cached = snapshot != nullptr;
        if (!cached) {
            Result<DramDescription> desc = requestedDescription(request);
            if (!desc.ok())
                return loadError(desc.error());
            // One build route for a hit and a miss: the cache holds the
            // validated *input* description, never a built model's
            // resolved copy, so the model (and how it re-resolves an
            // auto floorplan under a structural perturb) is the same
            // either way. Text sent already canonical is recorded with
            // its entry, so its next load takes the path above.
            CanonicalForm canonical = canonicalForm(desc.value());
            key = canonical.key;
            std::string text = request.text == canonical.text
                                   ? std::move(canonical.text)
                                   : std::string();
            snapshot = cache_.get(key, text);
            cached = snapshot != nullptr;
            if (!cached) {
                Status valid = validateDescription(desc.value());
                if (!valid.ok())
                    return loadError(valid.error());
                snapshot = cache_.put(key, std::move(desc).value(),
                                      std::move(text));
            }
        }
        session.evaluator = std::make_unique<VariantEvaluator>(
            DramPowerModel(*snapshot));
        session.modelKey = key;
        session.deviceName =
            session.evaluator->model().description().name;
        session.deltaApplies = 0;

        json.beginObject();
        json.key("id").value(request.id);
        json.key("ok").value(true);
        json.key("device").value(session.deviceName);
        json.key("hash").value(strformat("%016llx",
                                         static_cast<unsigned long long>(
                                             key)));
        json.key("cached").value(cached);
        json.endObject();
        return json.str();
    }
    case ServeOp::Evaluate:
    case ServeOp::Idd:
    case ServeOp::Perturb:
    case ServeOp::Reset: {
        if (!session.evaluator) {
            return renderServeError(request.id, "E-SERVE-STATE",
                                    "no model loaded in this session "
                                    "(send a 'load' first)");
        }
        if (request.op == ServeOp::Evaluate) {
            PatternPower power = session.evaluator->evaluateDefault();
            json.beginObject();
            json.key("id").value(request.id);
            json.key("ok").value(true);
            json.key("device").value(session.deviceName);
            json.key("powerWatts").value(power.power);
            json.key("currentAmps").value(power.externalCurrent);
            json.key("energyPerBit").value(power.energyPerBit);
            json.key("busUtilization").value(power.busUtilization);
            json.key("loopSeconds").value(power.loopTime);
            json.endObject();
            return json.str();
        }
        if (request.op == ServeOp::Idd) {
            Result<IddMeasure> measure =
                measureByName(request.measure);
            if (!measure.ok()) {
                return renderServeError(request.id, "E-SERVE-REQUEST",
                                        measure.error().message);
            }
            double amps = session.evaluator->idd(measure.value());
            json.beginObject();
            json.key("id").value(request.id);
            json.key("ok").value(true);
            json.key("measure").value(iddName(measure.value()));
            json.key("amps").value(amps);
            json.endObject();
            return json.str();
        }
        if (request.op == ServeOp::Perturb) {
            const SweepParam* param = nullptr;
            for (const SweepParam& candidate : perturbParams()) {
                if (candidate.name == request.param) {
                    param = &candidate;
                    break;
                }
            }
            if (!param) {
                return renderServeError(request.id, "E-SERVE-REQUEST",
                                        "unknown parameter '" +
                                            request.param +
                                            "' (see 'list')");
            }
            const double factor = request.factor;
            Status applied = session.evaluator->applyPerturbation(
                [param, factor](DramDescription& d) {
                    param->apply(d, factor);
                },
                param->dirty);
            if (!applied.ok()) {
                // Validation rejected the variant; the evaluator rolled
                // back and the session stays usable.
                const Error& error = applied.error();
                return renderServeError(
                    request.id,
                    error.code.empty() ? "E-SERVE-REQUEST" : error.code,
                    error.toString());
            }
            ++session.deltaApplies;
            if (metricsEnabled())
                globalMetrics().counter("serve.delta.applies").add();
            json.beginObject();
            json.key("id").value(request.id);
            json.key("ok").value(true);
            json.key("param").value(param->name);
            json.key("factor").value(factor);
            json.key("deltaApplies").value(session.deltaApplies);
            json.endObject();
            return json.str();
        }
        session.evaluator->reset();
        json.beginObject();
        json.key("id").value(request.id);
        json.key("ok").value(true);
        json.key("reset").value(true);
        json.endObject();
        return json.str();
    }
    case ServeOp::Metrics: {
        json.beginObject();
        json.key("id").value(request.id);
        json.key("ok").value(true);
        json.key("metrics").rawValue(
            globalMetrics().snapshot().renderJson());
        json.endObject();
        return json.str();
    }
    case ServeOp::Stats: {
        ServeStats snapshot;
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            snapshot = stats_;
        }
        const AdmissionGate::Occupancy gate = gate_.occupancy();
        json.beginObject();
        json.key("id").value(request.id);
        json.key("ok").value(true);
        json.key("queueDepth").value(gate.waiting);
        json.key("inFlight").value(gate.running);
        json.key("activeSessions")
            .value(static_cast<long long>(
                activeSessions_.load(std::memory_order_relaxed)));
        json.key("cacheSize")
            .value(static_cast<long long>(cache_.size()));
        json.key("cacheHits").value(cache_.hits());
        json.key("cacheMisses").value(cache_.misses());
        json.key("cacheEvictions").value(cache_.evictions());
        json.key("stats").rawValue(snapshot.renderJson());
        json.endObject();
        return json.str();
    }
    }
    return renderServeError(request.id, "E-SERVE-INTERNAL",
                            "unhandled op");
}

bool
Server::writeResponse(int fd, const std::string& body)
{
    if (body.empty())
        return true; // a suppressed response (stall recovery path)

    // Failpoint `serve.response`: the site's failure channel is the
    // socket write, so Error/PartialWrite simulate a dead or flaky
    // client connection; the session closes, the daemon lives.
    FailpointHit hit = failpointHit("serve.response");
    if (hit.action == FailpointAction::Crash) {
        throw std::runtime_error(
            "injected crash at failpoint 'serve.response'");
    }
    if (hit.action == FailpointAction::Abort)
        std::abort();
    if (hit.action == FailpointAction::Error ||
        hit.action == FailpointAction::PartialWrite) {
        // Half of the response line, newline included.
        if (hit.action == FailpointAction::PartialWrite)
            sendAll(fd, body.data(), (body.size() + 1) / 2);
        count(&ServeStats::responsesFailed, "serve.responses.failed");
        return false;
    }
    if (!sendLine(fd, body)) {
        count(&ServeStats::responsesFailed, "serve.responses.failed");
        return false;
    }
    count(&ServeStats::responsesWritten, "serve.responses.written");
    return true;
}

} // namespace

Result<ServeStats>
runServeServer(const ServeOptions& options)
{
    Server server(options);
    return server.run();
}

Result<std::string>
serveSendLines(const std::string& socketPath, int port,
               const std::string& input, double idleTimeoutSeconds)
{
    LineClient client;
    Status connected = client.connect(socketPath, port);
    if (!connected.ok())
        return connected.error();
    std::string out = input;
    if (!out.empty() && out.back() != '\n')
        out += '\n';
    return client.sendAllReadAll(out, idleTimeoutSeconds);
}

Result<std::string>
serveSendLinesRetry(const ServeSendOptions& options,
                    const std::string& input)
{
    std::vector<std::string> requests;
    for (const std::string& line : splitChar(input, '\n')) {
        if (!trim(line).empty())
            requests.push_back(line);
    }
    if (requests.empty())
        return std::string();

    // Jittered exponential backoff: all retrying clients of one daemon
    // must not re-arrive in lockstep after an overload wave.
    BackoffPolicy policy;
    policy.baseSeconds = options.retryBaseSeconds;
    policy.maxSeconds = 5.0;
    policy.jitter = 0.25;
    const std::uint64_t seedBase = static_cast<std::uint64_t>(::getpid());

    std::vector<std::string> responses(requests.size());
    std::vector<size_t> pending(requests.size());
    for (size_t i = 0; i < pending.size(); ++i)
        pending[i] = i;

    int attempt = 0;
    for (;;) {
        std::string batch;
        for (size_t index : pending) {
            batch += requests[index];
            batch += '\n';
        }
        Result<std::string> sent =
            serveSendLines(options.socketPath, options.port, batch,
                           options.idleTimeoutSeconds);
        if (!sent.ok()) {
            // Only a refused connect is known-undelivered and safe to
            // retry wholesale; a mid-session failure is not replayed
            // (requests may have executed).
            if (sent.error().code == "E-SERVE-REFUSED" &&
                attempt < options.retries) {
                ++attempt;
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(backoffDelaySeconds(
                        policy, attempt,
                        deriveStreamSeed(seedBase, attempt))));
                continue;
            }
            return sent.error();
        }

        std::vector<std::string> lines;
        for (const std::string& line : splitChar(sent.value(), '\n')) {
            if (!trim(line).empty())
                lines.push_back(line);
        }
        if (lines.size() < pending.size()) {
            return Error{strformat("daemon answered %zu of %zu "
                                   "requests before closing",
                                   lines.size(), pending.size()),
                         0, 0, "", "E-SERVE-SOCKET"};
        }
        // Responses arrive in request order; remap onto the original
        // positions and collect the shed ones for the next attempt.
        std::vector<size_t> shed;
        for (size_t i = 0; i < pending.size(); ++i) {
            responses[pending[i]] = lines[i];
            if (lines[i].find("E-SERVE-OVERLOAD") != std::string::npos)
                shed.push_back(pending[i]);
        }
        if (shed.empty() || attempt >= options.retries)
            break;
        pending = std::move(shed);
        ++attempt;
        std::this_thread::sleep_for(std::chrono::duration<double>(
            backoffDelaySeconds(policy, attempt,
                                deriveStreamSeed(seedBase, attempt))));
    }

    std::string out;
    for (const std::string& response : responses) {
        out += response;
        out += '\n';
    }
    return out;
}

} // namespace vdram
