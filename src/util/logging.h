/**
 * @file
 * gem5-style status reporting: panic() for internal invariant violations,
 * fatal() for unrecoverable user errors, warn() for diagnostics.
 */
#ifndef VDRAM_UTIL_LOGGING_H
#define VDRAM_UTIL_LOGGING_H

#include <string>

namespace vdram {

/**
 * Report an internal bug (a condition that must never happen regardless of
 * user input) and abort. Maps to gem5's panic().
 */
[[noreturn]] void panic(const std::string& message);

/**
 * Report an unrecoverable user error (bad configuration, invalid input)
 * and exit(1). Maps to gem5's fatal().
 *
 * Only tool entry points (main() in tools/, examples/, bench/) may call
 * this. Library code under src/ must never terminate the process on user
 * input: it propagates Result/Status values or reports into a
 * DiagnosticEngine (util/diag.h) instead, so a long-running service can
 * survive arbitrary untrusted descriptions.
 */
[[noreturn]] void fatal(const std::string& message);

/** Non-fatal warning about questionable input or approximations. */
void warn(const std::string& message);

/** Suppress warn() output (used by tests). */
void setQuiet(bool quiet);

} // namespace vdram

#endif // VDRAM_UTIL_LOGGING_H
