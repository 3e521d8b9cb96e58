/**
 * @file
 * Diagnostics subsystem: structured, accumulating error reporting.
 *
 * The paper's program flow (Fig. 4) runs a description through syntax,
 * completeness and consistency checks before any power is computed. Each
 * stage can surface several independent problems; dying on the first one
 * (or worse, on any of them) is unacceptable for a service evaluating
 * untrusted descriptions. A DiagnosticEngine therefore collects every
 * finding of a run — severity, stable code, message and source location —
 * and renders them as human-readable text or machine-readable JSON.
 *
 * The stable codes ("E-TECH-RANGE", "W-COMPLETE-PARAM", ...) are part of
 * the public interface and catalogued in docs/diagnostics.md; automation
 * must match on codes, never on message wording.
 */
#ifndef VDRAM_UTIL_DIAG_H
#define VDRAM_UTIL_DIAG_H

#include <string>
#include <vector>

#include "util/result.h"

namespace vdram {

/** How bad a diagnostic is. */
enum class Severity {
    Note,    ///< supplementary information, never affects the outcome
    Warning, ///< suspicious but accepted input
    Error,   ///< input rejected; the run cannot produce trusted results
};

/** Name of a severity level ("note", "warning", "error"). */
std::string severityName(Severity severity);

/** A position in an input file. All parts are optional (0 / empty). */
struct SourceLocation {
    std::string file;
    /** 1-based line; 0 when unknown. */
    int line = 0;
    /** 1-based column; 0 when unknown. */
    int column = 0;

    /** Render "file:line:col" with absent parts omitted; "" when empty. */
    std::string toString() const;
};

/** One finding: severity, stable code, message and location. */
struct Diagnostic {
    Severity severity = Severity::Error;
    /** Stable machine-matchable code, e.g. "E-TECH-RANGE". */
    std::string code;
    /** Human-readable description of the problem. */
    std::string message;
    SourceLocation location;

    /** Render "file:line:col: severity: message [CODE]". */
    std::string toString() const;
};

/**
 * Accumulates the diagnostics of one run (one parse + validation pass).
 *
 * The engine never terminates the process. Errors are capped (default 50)
 * to keep floods from pathological inputs bounded: once the cap is
 * reached a single synthetic E-DIAG-LIMIT error is appended and further
 * errors are dropped (warnings and notes are dropped as well at that
 * point — the run is already rejected).
 */
class DiagnosticEngine {
  public:
    static constexpr int kDefaultErrorLimit = 50;

    explicit DiagnosticEngine(int errorLimit = kDefaultErrorLimit)
        : error_limit_(errorLimit) {}

    /** Append a diagnostic (subject to the error cap). */
    void report(Diagnostic diagnostic);

    /** Convenience: report an error with @p code at @p location. */
    void error(const std::string& code, const std::string& message,
               const SourceLocation& location = {});
    /** Convenience: report a warning with @p code at @p location. */
    void warning(const std::string& code, const std::string& message,
                 const SourceLocation& location = {});
    /** Convenience: report a note with @p code at @p location. */
    void note(const std::string& code, const std::string& message,
              const SourceLocation& location = {});

    /** Import a legacy Error value as an error diagnostic. */
    void reportError(const Error& error,
                     const std::string& defaultFile = "");

    const std::vector<Diagnostic>& diagnostics() const
    {
        return diagnostics_;
    }

    int errorCount() const { return error_count_; }
    int warningCount() const { return warning_count_; }
    bool hasErrors() const { return error_count_ > 0; }
    /** True once the error cap was hit (further errors were dropped). */
    bool errorLimitReached() const { return limit_reached_; }

    /**
     * The first error as a legacy Error value (message, location and
     * code filled in). Precondition: hasErrors().
     */
    Error firstError() const;

    /** Render all diagnostics as lines of human-readable text. */
    std::string renderText() const;

    /**
     * Render all diagnostics as a JSON document:
     * {"errors":N,"warnings":N,"diagnostics":[{severity,code,message,
     *  file,line,column},...]}.
     */
    std::string renderJson() const;

  private:
    std::vector<Diagnostic> diagnostics_;
    int error_limit_;
    int error_count_ = 0;
    int warning_count_ = 0;
    bool limit_reached_ = false;
};

} // namespace vdram

#endif // VDRAM_UTIL_DIAG_H
