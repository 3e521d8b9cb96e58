/**
 * @file
 * Wire protocol of the `vdram serve` daemon: newline-delimited JSON
 * request/response documents over a local socket.
 *
 * Every request is one JSON object on one line; every answer is exactly
 * one JSON object on one line, echoing the request's `id`. The daemon
 * never closes a connection because of a bad request — a malformed line
 * gets a structured `E-SERVE-REQUEST` error response and the session
 * continues. See docs/serve.md for the full schema and the overload,
 * deadline and drain semantics.
 */
#ifndef VDRAM_SERVE_PROTOCOL_H
#define VDRAM_SERVE_PROTOCOL_H

#include <string>

#include "util/result.h"

namespace vdram {

/** Operations the daemon understands. */
enum class ServeOp {
    Ping,     ///< liveness check; echoes server info
    List,     ///< enumerate built-in presets and sweepable parameters
    Load,     ///< parse + validate a description; becomes session model
    Evaluate, ///< evaluate the current model's default pattern
    Idd,      ///< one datasheet IDD measurement of the current model
    Perturb,  ///< apply a named parameter perturbation (delta fast path)
    Reset,    ///< restore the session model to its nominal values
    Metrics,  ///< snapshot of the global metrics registry
    Stats,    ///< daemon counters (queue depth, cache, sessions)
};

/** One parsed request. */
struct ServeRequest {
    /** Client-chosen correlation id, echoed in the response. */
    long long id = 0;
    ServeOp op = ServeOp::Ping;
    /** Load: inline description DSL text. */
    std::string text;
    /** Load: built-in preset name (alternative to text). */
    std::string preset;
    /** Idd: measurement name ("idd0", "idd4r", ... case-insensitive). */
    std::string measure;
    /** Perturb: sweep parameter name (see `list`). */
    std::string param;
    /** Perturb: multiplicative factor applied to the parameter. */
    double factor = 1.0;
    /** Optional per-request deadline override in seconds (0 = server
     *  default). Capped by the server's configured maximum. */
    double deadlineSeconds = 0;
};

/**
 * Parse one request line. Malformed JSON, an unknown op or a bad field
 * type is an error with code E-SERVE-REQUEST (the transport answers it
 * as a structured error response; the session survives).
 */
Result<ServeRequest> parseServeRequest(const std::string& line);

/** Render the standard error response document (one line, no '\n'). */
std::string renderServeError(long long id, const std::string& code,
                             const std::string& message);

} // namespace vdram

#endif // VDRAM_SERVE_PROTOCOL_H
