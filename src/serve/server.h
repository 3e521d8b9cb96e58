/**
 * @file
 * The `vdram serve` daemon: a long-running JSON-over-socket evaluation
 * service answering DRAM-energy queries without rebuilding the model
 * per invocation.
 *
 * Robustness contract (the reason this subsystem exists):
 *
 *  - Admission control: requests execute on a bounded WorkerPool queue;
 *    a full queue sheds the request with an `E-SERVE-OVERLOAD` response
 *    instead of stacking latency until the process dies.
 *  - Deadlines: every request runs under a deadline enforced by the
 *    pool watchdog (cooperative cancellation); an overrun answers
 *    `E-SERVE-DEADLINE`.
 *  - Fault isolation: a malformed request, a failing validation or a
 *    poisoned model (an exception out of a stage rebuild) produces a
 *    structured error response on that request only. No request input
 *    can terminate the daemon.
 *  - Sessions: each connection holds its own VariantEvaluator, so
 *    repeat queries after `perturb` hit the delta-evaluation fast path;
 *    validated descriptions are shared via a bounded LRU (model_cache.h)
 *    keyed by canonical-text hash. Idle sessions are evicted.
 *  - Graceful drain: when the stop flag rises (SIGINT/SIGTERM), the
 *    listener closes, every already-read request is answered, sessions
 *    close, and run() returns with drained=true (the CLI maps this to
 *    the standard exit code 5). Invariant: every complete request line
 *    read is answered — `serve.requests.accepted` equals
 *    `serve.responses.written` plus `serve.responses.failed`.
 *
 * Transport: a unix-domain socket (socketPath) or a loopback-only TCP
 * port, served by the line-session server the fleet router shares
 * (serve/line_server.h). One line of JSON per request, one line per
 * response (see serve/protocol.h and docs/serve.md).
 */
#ifndef VDRAM_SERVE_SERVER_H
#define VDRAM_SERVE_SERVER_H

#include <atomic>
#include <functional>
#include <string>

#include "util/result.h"

namespace vdram {

struct ServeOptions {
    /** Unix-domain socket path (preferred transport). */
    std::string socketPath;
    /** Loopback TCP port; used when socketPath is empty. */
    int port = 0;
    /** Worker threads answering requests (0 = 2). */
    int threads = 0;
    /** Bounded request queue; beyond it requests are shed. */
    long long queueCapacity = 32;
    /** Default per-request deadline in seconds (0 disables). */
    double deadlineSeconds = 10;
    /** Hard cap for client-supplied deadline overrides. */
    double maxDeadlineSeconds = 60;
    /** Close sessions idle longer than this (seconds; 0 disables). */
    double idleSessionSeconds = 300;
    /** LRU capacity of the validated-description cache. */
    std::size_t cacheCapacity = 8;
    /** Graceful-stop flag (raised by the SIGINT/SIGTERM handler). */
    const std::atomic<bool>* stopFlag = nullptr;
    /** Invoked once the listener is accepting (readiness marker). */
    std::function<void()> onReady;
};

/** Daemon lifetime counters, reported when run() returns. */
struct ServeStats {
    long long connections = 0;
    long long requestsAccepted = 0; ///< complete request lines read
    long long requestsShed = 0;     ///< refused with E-SERVE-OVERLOAD
    long long requestsMalformed = 0;
    long long deadlineExceeded = 0;
    long long responsesWritten = 0;
    long long responsesFailed = 0; ///< socket write failed mid-response
    long long idleEvicted = 0;
    long long sessionFaults = 0; ///< sessions torn down by an exception
    /** True when the server stopped because the stop flag rose. */
    bool drained = false;

    std::string renderJson() const;
};

/**
 * Run the daemon until the stop flag rises (or a fatal listener error).
 * Infrastructure failures — an unusable socket path or port — are
 * errors; request failures never are. Returns the lifetime stats.
 */
Result<ServeStats> runServeServer(const ServeOptions& options);

/**
 * Minimal client used by `vdram serve-send` and the tests: connect,
 * send @p input (newline-delimited requests; a missing trailing newline
 * is added) while reading responses, half-close after the last byte,
 * read every response until EOF. Returns the raw response bytes.
 */
Result<std::string> serveSendLines(const std::string& socketPath,
                                   int port, const std::string& input);

/** serveSendLinesRetry knobs (CLI: --retries / --retry-base-ms). */
struct ServeSendOptions {
    std::string socketPath;
    int port = 0;
    /** Retry attempts after the first try. */
    int retries = 3;
    /** Backoff base; grows exponentially with ±25% jitter. */
    double retryBaseSeconds = 0.05;
};

/**
 * serveSendLines with client-side retries for the two transient
 * failures a daemon advertises: a refused connect (daemon not up yet,
 * or a fleet worker mid-restart — nothing was delivered, the whole
 * batch is resent) and `E-SERVE-OVERLOAD` responses (only the shed
 * lines are resent; answered lines are never re-executed). Responses
 * are returned in the original request order. Each attempt is a fresh
 * connection, i.e. a fresh daemon session.
 */
Result<std::string> serveSendLinesRetry(const ServeSendOptions& options,
                                        const std::string& input);

} // namespace vdram

#endif // VDRAM_SERVE_SERVER_H
