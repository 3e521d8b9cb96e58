#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#if !defined(_WIN32)
#include <arpa/inet.h>
#include <cerrno>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include "core/model.h"
#include "core/sensitivity.h"
#include "core/variant_evaluator.h"
#include "dsl/parser.h"
#include "dsl/writer.h"
#include "presets/presets.h"
#include "protocol/idd.h"
#include "runner/worker_pool.h"
#include "serve/model_cache.h"
#include "serve/protocol.h"
#include "util/backoff.h"
#include "util/failpoint.h"
#include "util/numerics.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/strings.h"

#if !defined(MSG_NOSIGNAL)
#define MSG_NOSIGNAL 0
#endif

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

#if defined(_WIN32)

Result<ServeStats>
runServeServer(const ServeOptions&)
{
    return Error{"vdram serve requires POSIX sockets", 0, 0, "",
                 "E-SERVE-SOCKET"};
}

Result<std::string>
serveSendLines(const std::string&, int, const std::string&)
{
    return Error{"vdram serve requires POSIX sockets", 0, 0, "",
                 "E-SERVE-SOCKET"};
}

#else

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Per-connection model state. Owned by exactly one session thread, so
 *  no lock: request execution is serialized per session. */
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

class Server {
  public:
    explicit Server(const ServeOptions& options)
        : options_(options),
          pool_(WorkerPool::Options{
              options.threads > 0 ? options.threads : 2,
              std::max<long long>(1, options.queueCapacity)}),
          cache_(options.cacheCapacity)
    {
    }

    Result<ServeStats> run();

  private:
    bool stopRequested() const
    {
        return options_.stopFlag &&
               options_.stopFlag->load(std::memory_order_relaxed);
    }

    Result<int> openListener();
    void sessionMain(int fd);
    /** One request line -> exactly one response line. Returns false
     *  when the connection is no longer writable. */
    bool handleLine(int fd, Session& session, const std::string& line);
    std::string executeRequest(Session& session,
                               const ServeRequest& request,
                               WorkerPool::JobContext& job);
    std::string handleRequest(Session& session,
                              const ServeRequest& request,
                              WorkerPool::JobContext& job);
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
    WorkerPool pool_;
    ModelCache cache_;
    std::mutex statsMutex_;
    ServeStats stats_;
    std::mutex threadsMutex_;
    std::vector<std::thread> sessionThreads_;
    std::atomic<int> activeSessions_{0};
};

Result<int>
Server::openListener()
{
    if (!options_.socketPath.empty()) {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) {
            return Error{std::string("cannot create unix socket: ") +
                             std::strerror(errno),
                         0, 0, options_.socketPath, "E-SERVE-SOCKET"};
        }
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (options_.socketPath.size() >= sizeof(addr.sun_path)) {
            ::close(fd);
            return Error{"socket path too long: " + options_.socketPath,
                         0, 0, options_.socketPath, "E-SERVE-SOCKET"};
        }
        std::strncpy(addr.sun_path, options_.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        // The daemon owns its socket path: a stale file from a killed
        // predecessor must not prevent startup.
        ::unlink(options_.socketPath.c_str());
        if (::bind(fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(fd, 64) != 0) {
            Error error{"cannot listen on '" + options_.socketPath +
                            "': " + std::strerror(errno),
                        0, 0, options_.socketPath, "E-SERVE-SOCKET"};
            ::close(fd);
            return error;
        }
        return fd;
    }
    if (options_.port > 0) {
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) {
            return Error{std::string("cannot create TCP socket: ") +
                             std::strerror(errno),
                         0, 0, "", "E-SERVE-SOCKET"};
        }
        int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port =
            htons(static_cast<std::uint16_t>(options_.port));
        // Loopback only: the daemon speaks an unauthenticated protocol
        // and must never be reachable from off-host.
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::bind(fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(fd, 64) != 0) {
            Error error{"cannot listen on loopback port " +
                            std::to_string(options_.port) + ": " +
                            std::strerror(errno),
                        0, 0, "", "E-SERVE-SOCKET"};
            ::close(fd);
            return error;
        }
        return fd;
    }
    return Error{"serve needs --socket=PATH or --port=N", 0, 0, "",
                 "E-SERVE-SOCKET"};
}

Result<ServeStats>
Server::run()
{
    Result<int> listener = openListener();
    if (!listener.ok())
        return listener.error();
    const int listen_fd = listener.value();

    if (options_.onReady)
        options_.onReady();

    // Accept loop: poll so the stop flag is observed within ~200 ms.
    while (!stopRequested()) {
        pollfd pfd{listen_fd, POLLIN, 0};
        int ready = ::poll(&pfd, 1, 200);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break; // listener died; drain what we have
        }
        if (ready == 0)
            continue;
        int client = ::accept(listen_fd, nullptr, nullptr);
        if (client < 0)
            continue; // transient accept failure; the daemon lives
        count(&ServeStats::connections, "serve.connections.accepted");
        activeSessions_.fetch_add(1, std::memory_order_relaxed);
        if (metricsEnabled()) {
            globalMetrics()
                .gauge("serve.sessions.active")
                .set(activeSessions_.load(std::memory_order_relaxed));
        }
        std::lock_guard<std::mutex> lock(threadsMutex_);
        sessionThreads_.emplace_back(&Server::sessionMain, this, client);
    }

    // Drain: stop accepting, answer everything already read, then stop
    // the pool. Session threads observe the stop flag within one poll
    // round.
    ::close(listen_fd);
    if (!options_.socketPath.empty())
        ::unlink(options_.socketPath.c_str());
    {
        std::lock_guard<std::mutex> lock(threadsMutex_);
        for (std::thread& t : sessionThreads_) {
            if (t.joinable())
                t.join();
        }
        sessionThreads_.clear();
    }
    pool_.drain();
    pool_.shutdown();

    std::lock_guard<std::mutex> lock(statsMutex_);
    stats_.drained = stopRequested();
    return stats_;
}

void
Server::sessionMain(int fd)
{
    Session session;
    std::string buffer;
    double idle_seconds = 0;
    bool eof = false;

    // The whole session is exception-quarantined: a bug or injected
    // crash tears down THIS connection, never the daemon.
    try {
        for (;;) {
            size_t pos;
            bool writable = true;
            while (writable &&
                   (pos = buffer.find('\n')) != std::string::npos) {
                std::string line = buffer.substr(0, pos);
                buffer.erase(0, pos + 1);
                writable = handleLine(fd, session, line);
            }
            if (!writable)
                break;
            if (stopRequested())
                break; // drain: everything read has been answered
            if (eof) {
                // Half-close: a final unterminated line still counts.
                if (!trim(buffer).empty())
                    handleLine(fd, session, buffer);
                break;
            }
            pollfd pfd{fd, POLLIN, 0};
            int ready = ::poll(&pfd, 1, 200);
            if (ready < 0) {
                if (errno == EINTR)
                    continue;
                break;
            }
            if (ready == 0) {
                idle_seconds += 0.2;
                if (options_.idleSessionSeconds > 0 &&
                    idle_seconds >= options_.idleSessionSeconds) {
                    count(&ServeStats::idleEvicted,
                          "serve.sessions.evicted_idle");
                    break;
                }
                continue;
            }
            char chunk[4096];
            ssize_t got = ::recv(fd, chunk, sizeof chunk, 0);
            if (got < 0) {
                if (errno == EINTR || errno == EAGAIN)
                    continue;
                break;
            }
            if (got == 0) {
                eof = true;
                continue;
            }
            idle_seconds = 0;
            buffer.append(chunk, static_cast<size_t>(got));
        }
    } catch (...) {
        count(&ServeStats::sessionFaults, "serve.sessions.faulted");
    }
    ::close(fd);
    activeSessions_.fetch_sub(1, std::memory_order_relaxed);
    if (metricsEnabled()) {
        globalMetrics()
            .gauge("serve.sessions.active")
            .set(activeSessions_.load(std::memory_order_relaxed));
    }
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

    // Admission control: the bounded pool queue is the backpressure
    // boundary. Shedding answers immediately — the client learns the
    // daemon is saturated instead of waiting into a timeout.
    struct Pending {
        std::mutex mutex;
        std::condition_variable cv;
        bool done = false;
        std::string body;
    };
    Pending pending;
    bool admitted = pool_.trySubmit(
        [this, &session, &request, &pending](
            WorkerPool::JobContext& job) {
            std::string body = executeRequest(session, request, job);
            {
                std::lock_guard<std::mutex> lock(pending.mutex);
                pending.body = std::move(body);
                pending.done = true;
                // Notify under the lock: `pending` lives on the
                // session thread's stack and is destroyed the moment
                // the waiter sees done — an unlocked notify could
                // touch a dead condition_variable.
                pending.cv.notify_one();
            }
        });
    if (metricsEnabled()) {
        globalMetrics().gauge("serve.queue.depth").set(
            pool_.queueDepth());
        globalMetrics().gauge("serve.inflight").set(pool_.inFlight());
    }
    if (!admitted) {
        count(&ServeStats::requestsShed, "serve.requests.shed");
        return writeResponse(
            fd,
            renderServeError(request.id, "E-SERVE-OVERLOAD",
                             "request queue is full; retry later"));
    }
    std::string body;
    {
        std::unique_lock<std::mutex> lock(pending.mutex);
        pending.cv.wait(lock, [&pending] { return pending.done; });
        body = std::move(pending.body);
    }
    return writeResponse(fd, body);
}

std::string
Server::executeRequest(Session& session, const ServeRequest& request,
                       WorkerPool::JobContext& job)
{
    double deadline = options_.deadlineSeconds;
    if (request.deadlineSeconds > 0) {
        deadline = std::min(request.deadlineSeconds,
                            options_.maxDeadlineSeconds);
    }
    job.armDeadline(deadline);
    std::string body;
    try {
        body = handleRequest(session, request, job);
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
    job.clearDeadline();
    if (job.cancelled()) {
        count(&ServeStats::deadlineExceeded, "serve.deadline.exceeded");
        return renderServeError(
            request.id, "E-SERVE-DEADLINE",
            strformat("deadline of %.3f s exceeded", deadline));
    }
    return body;
}

std::string
Server::handleRequest(Session& session, const ServeRequest& request,
                      WorkerPool::JobContext& job)
{
    // Failpoint `serve.request`: Stall exercises the deadline watchdog
    // (bounded so an unarmed deadline cannot wedge a worker), Crash
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
        while (!job.cancelled() && secondsSince(start) < cap) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
        // The deadline check in executeRequest turns this into
        // E-SERVE-DEADLINE; without an armed deadline we recover here.
        if (!job.cancelled()) {
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
        DramDescription desc;
        if (!request.preset.empty()) {
            bool found = false;
            for (const NamedPreset& preset : namedPresets()) {
                if (preset.name == request.preset) {
                    desc = preset.build();
                    found = true;
                    break;
                }
            }
            if (!found) {
                return renderServeError(request.id, "E-SERVE-REQUEST",
                                        "unknown preset '" +
                                            request.preset + "'");
            }
        } else {
            Result<DramDescription> parsed =
                parseDescription(request.text);
            if (!parsed.ok()) {
                const Error& error = parsed.error();
                return renderServeError(
                    request.id,
                    error.code.empty() ? "E-SERVE-REQUEST" : error.code,
                    error.toString());
            }
            desc = std::move(parsed).value();
        }

        const std::uint64_t key = fnv1a64(writeDescription(desc));
        bool cached = false;
        std::shared_ptr<const DramDescription> snapshot =
            cache_.get(key);
        if (snapshot) {
            // Cache hit: the snapshot already validated; skip the full
            // validation pass and build directly.
            session.evaluator = std::make_unique<VariantEvaluator>(
                DramPowerModel(*snapshot));
            cached = true;
        } else {
            Result<DramPowerModel> model =
                DramPowerModel::create(std::move(desc));
            if (!model.ok()) {
                const Error& error = model.error();
                return renderServeError(
                    request.id,
                    error.code.empty() ? "E-SERVE-REQUEST" : error.code,
                    error.toString());
            }
            cache_.put(key, model.value().description());
            session.evaluator = std::make_unique<VariantEvaluator>(
                std::move(model).value());
        }
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
        json.beginObject();
        json.key("id").value(request.id);
        json.key("ok").value(true);
        json.key("queueDepth").value(pool_.queueDepth());
        json.key("inFlight").value(pool_.inFlight());
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
    (void)job;
    return renderServeError(request.id, "E-SERVE-INTERNAL",
                            "unhandled op");
}

bool
Server::writeResponse(int fd, const std::string& body)
{
    if (body.empty())
        return true; // a suppressed response (stall recovery path)
    std::string line = body;
    line += '\n';

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
        if (hit.action == FailpointAction::PartialWrite) {
            ::send(fd, line.data(), line.size() / 2, MSG_NOSIGNAL);
        }
        count(&ServeStats::responsesFailed, "serve.responses.failed");
        return false;
    }

    size_t sent = 0;
    while (sent < line.size()) {
        ssize_t n = ::send(fd, line.data() + sent, line.size() - sent,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            count(&ServeStats::responsesFailed,
                  "serve.responses.failed");
            return false;
        }
        sent += static_cast<size_t>(n);
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
               const std::string& input)
{
    int fd = -1;
    if (!socketPath.empty()) {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) {
            return Error{std::string("cannot create unix socket: ") +
                             std::strerror(errno),
                         0, 0, socketPath, "E-SERVE-SOCKET"};
        }
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (socketPath.size() >= sizeof(addr.sun_path)) {
            ::close(fd);
            return Error{"socket path too long: " + socketPath, 0, 0,
                         socketPath, "E-SERVE-SOCKET"};
        }
        std::strncpy(addr.sun_path, socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
            // ECONNREFUSED/ENOENT mean no request reached a daemon —
            // the one connect failure a client may safely retry.
            const char* code = (errno == ECONNREFUSED ||
                                errno == ENOENT)
                                   ? "E-SERVE-REFUSED"
                                   : "E-SERVE-SOCKET";
            Error error{"cannot connect to '" + socketPath +
                            "': " + std::strerror(errno),
                        0, 0, socketPath, code};
            ::close(fd);
            return error;
        }
    } else if (port > 0) {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) {
            return Error{std::string("cannot create TCP socket: ") +
                             std::strerror(errno),
                         0, 0, "", "E-SERVE-SOCKET"};
        }
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
            const char* code = errno == ECONNREFUSED
                                   ? "E-SERVE-REFUSED"
                                   : "E-SERVE-SOCKET";
            Error error{"cannot connect to loopback port " +
                            std::to_string(port) + ": " +
                            std::strerror(errno),
                        0, 0, "", code};
            ::close(fd);
            return error;
        }
    } else {
        return Error{"serve-send needs --socket=PATH or --port=N", 0, 0,
                     "", "E-SERVE-SOCKET"};
    }

    std::string out = input;
    if (!out.empty() && out.back() != '\n')
        out += '\n';
    auto fail = [fd](const char* what) -> Error {
        Error error{std::string(what) + std::strerror(errno), 0, 0, "",
                    "E-SERVE-SOCKET"};
        ::close(fd);
        return error;
    };

    // Writes interleave with reads: the daemon answers while the batch
    // is still arriving, so writing all of a large batch first would
    // fill both socket buffers and deadlock client and daemon.
    size_t sent = 0;
    if (out.empty())
        ::shutdown(fd, SHUT_WR);
    std::string responses;
    char chunk[4096];
    for (;;) {
        pollfd pfd{fd, POLLIN, 0};
        if (sent < out.size())
            pfd.events |= POLLOUT;
        if (::poll(&pfd, 1, -1) < 0) {
            if (errno == EINTR)
                continue;
            return fail("socket poll failed: ");
        }
        if (pfd.revents & (POLLIN | POLLHUP | POLLERR)) {
            ssize_t got = ::recv(fd, chunk, sizeof chunk, MSG_DONTWAIT);
            if (got == 0)
                break;
            if (got > 0) {
                responses.append(chunk, static_cast<size_t>(got));
            } else if (errno != EINTR && errno != EAGAIN &&
                       errno != EWOULDBLOCK) {
                return fail("response read failed: ");
            }
        }
        if ((pfd.revents & POLLOUT) && sent < out.size()) {
            ssize_t n = ::send(fd, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
            if (n >= 0) {
                sent += static_cast<size_t>(n);
                if (sent == out.size())
                    ::shutdown(fd, SHUT_WR);
            } else if (errno != EINTR && errno != EAGAIN &&
                       errno != EWOULDBLOCK) {
                return fail("request write failed: ");
            }
        }
    }
    ::close(fd);
    return responses;
}

#endif // !defined(_WIN32)

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
#if !defined(_WIN32)
    const std::uint64_t seedBase =
        static_cast<std::uint64_t>(::getpid());
#else
    const std::uint64_t seedBase = 1;
#endif

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
            serveSendLines(options.socketPath, options.port, batch);
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
