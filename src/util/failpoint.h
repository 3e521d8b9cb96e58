/**
 * @file
 * Named failpoints: deterministic fault injection for chaos testing.
 *
 * A robustness claim ("a mid-write crash never corrupts the checkpoint",
 * "an injected I/O error degrades the run instead of killing it") is
 * only worth anything if the failure it guards against can be forced on
 * demand. A failpoint is a named hook compiled into a production code
 * path; it does nothing until activated, at which point it performs one
 * of a small set of failure actions. Activation comes from the
 * VDRAM_FAILPOINTS environment variable (or programmatically, for
 * tests):
 *
 *   VDRAM_FAILPOINTS="name=action[:arg][@rate][,name=action...]"
 *
 * Actions:
 *   error          the site reports its documented E-* diagnostic, as if
 *                  the underlying operation had failed
 *   crash          the site throws (exercises exception quarantine)
 *   stall          the site blocks until cooperatively cancelled
 *                  (exercises deadline watchdogs); bounded
 *   delay:MS       the site sleeps MS milliseconds, then proceeds
 *   partial-write  a write site truncates its output mid-record and
 *                  must detect + report the short write
 *   abort          std::abort() at the site — simulates kill -9 exactly
 *                  where it hurts (e.g. half-way through a checkpoint
 *                  record)
 *
 * `:K` (for actions other than delay) fires only on the K-th evaluation
 * of that failpoint (1-based), so "abort mid-way through the 13th
 * checkpoint append" is one spec string. `@rate` fires a deterministic
 * fraction of evaluations: seed-based when the site supplies a seed
 * (stable across retries and resume legs, as the runner.task site is),
 * counter-based otherwise.
 *
 * The set of failpoint names is closed: an unknown name in the spec is
 * a configuration error, and tests/test_failpoint.cc keeps a matrix
 * entry per name, so every registered failpoint provably fires and the
 * process provably survives it. Registered names are documented in
 * docs/runner.md.
 *
 * Cost when inactive: one relaxed atomic load per evaluation.
 */
#ifndef VDRAM_UTIL_FAILPOINT_H
#define VDRAM_UTIL_FAILPOINT_H

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"

namespace vdram {

/** What an activated failpoint does when it fires. */
enum class FailpointAction {
    Off,          ///< not activated (never returned by evaluate when hit)
    Error,        ///< site reports its documented failure diagnostic
    Crash,        ///< site throws
    Stall,        ///< site blocks until cancelled (bounded)
    Delay,        ///< site sleeps, then proceeds
    PartialWrite, ///< write site truncates mid-record and must detect it
    Abort,        ///< std::abort() at the site (kill -9 simulation)
};

/** Sentinel for evaluations that have no deterministic seed. */
constexpr std::uint64_t kFailpointNoSeed = ~std::uint64_t{0};

/** The decision an evaluation produced. */
struct FailpointHit {
    FailpointAction action = FailpointAction::Off;
    /** Sleep length for Delay, in milliseconds. */
    long long delayMs = 0;

    bool fired() const { return action != FailpointAction::Off; }
};

/** One activation parsed from the spec string. */
struct FailpointConfig {
    std::string name;
    FailpointAction action = FailpointAction::Off;
    /** Delay length in milliseconds (Delay action only). */
    long long delayMs = 0;
    /** Fire only on the K-th evaluation; 0 = every evaluation. */
    long long hitIndex = 0;
    /** Probability gate in [0, 1]; 1 = always (subject to hitIndex). */
    double rate = 1.0;
};

/**
 * Parse a VDRAM_FAILPOINTS spec string into configurations. Unknown
 * failpoint names, unknown actions and malformed arguments are errors
 * (code E-FAILPOINT-SPEC). An empty spec yields no configurations.
 */
Result<std::vector<FailpointConfig>>
parseFailpointSpec(const std::string& spec);

/** Every registered failpoint name, sorted (the closed set the spec
 *  parser accepts; documented in docs/runner.md). */
std::vector<std::string> failpointNames();

/** True if @p name is a registered failpoint. */
bool isFailpointName(const std::string& name);

/**
 * Activate @p configs (replacing any previous activation, including one
 * picked up from the environment). Unknown names were already rejected
 * by the parser; this never fails.
 */
void configureFailpoints(const std::vector<FailpointConfig>& configs);

/** Deactivate every failpoint and forget the env was ever read. */
void clearFailpoints();

/**
 * Parse VDRAM_FAILPOINTS from the environment and activate it. Returns
 * the parse error for a malformed value (the CLI turns that into a
 * usage error). Reading an unset variable succeeds with no activation.
 */
Status initFailpointsFromEnv();

/**
 * Evaluate the failpoint @p name. Returns the action to perform
 * (Off when the failpoint is not activated or its gate did not fire).
 * Lazily initializes from the environment on first use; a malformed
 * environment spec deactivates everything (initFailpointsFromEnv()
 * surfaces the error to callers that care).
 *
 * The Delay action is performed here (the site sleeps inside this
 * call); every other action is returned for the site to perform,
 * because only the site knows its failure channel.
 *
 * @p seed makes an @rate gate deterministic per logical task (the
 * runner passes the task seed); without one the gate is counter-based.
 */
FailpointHit failpointHit(const char* name,
                          std::uint64_t seed = kFailpointNoSeed);

/**
 * Convenience for sites whose failure channel is a Status: maps
 *  - Error to an injected Error carrying @p code and the site name,
 *  - Crash to a thrown std::runtime_error,
 *  - Abort to std::abort(),
 *  - Delay is already performed, Off returns ok.
 * PartialWrite and Stall return ok — sites with those channels handle
 * them explicitly via failpointHit().
 */
Status checkFailpoint(const char* name, const char* code,
                      std::uint64_t seed = kFailpointNoSeed);

/** Number of times @p name fired since activation (test/metrics hook). */
long long failpointFireCount(const std::string& name);

} // namespace vdram

#endif // VDRAM_UTIL_FAILPOINT_H
