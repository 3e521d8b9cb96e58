#include "util/diag.h"

#include "util/json.h"

namespace vdram {

std::string
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Note: return "note";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    return "error";
}

std::string
SourceLocation::toString() const
{
    std::string out = file;
    if (line > 0) {
        if (!out.empty())
            out += ':';
        else
            out = "line ";
        out += std::to_string(line);
        if (column > 0)
            out += ':' + std::to_string(column);
    }
    return out;
}

std::string
Diagnostic::toString() const
{
    std::string out = location.toString();
    if (!out.empty())
        out += ": ";
    out += severityName(severity) + ": " + message;
    if (!code.empty())
        out += " [" + code + "]";
    return out;
}

void
DiagnosticEngine::report(Diagnostic diagnostic)
{
    if (limit_reached_)
        return;
    if (diagnostic.severity == Severity::Error &&
        error_count_ >= error_limit_) {
        limit_reached_ = true;
        Diagnostic cap;
        cap.severity = Severity::Error;
        cap.code = "E-DIAG-LIMIT";
        cap.message = "too many errors (" + std::to_string(error_limit_) +
                      "); further diagnostics suppressed";
        diagnostics_.push_back(std::move(cap));
        ++error_count_;
        return;
    }
    if (diagnostic.severity == Severity::Error)
        ++error_count_;
    else if (diagnostic.severity == Severity::Warning)
        ++warning_count_;
    diagnostics_.push_back(std::move(diagnostic));
}

void
DiagnosticEngine::error(const std::string& code, const std::string& message,
                        const SourceLocation& location)
{
    report(Diagnostic{Severity::Error, code, message, location});
}

void
DiagnosticEngine::warning(const std::string& code,
                          const std::string& message,
                          const SourceLocation& location)
{
    report(Diagnostic{Severity::Warning, code, message, location});
}

void
DiagnosticEngine::note(const std::string& code, const std::string& message,
                       const SourceLocation& location)
{
    report(Diagnostic{Severity::Note, code, message, location});
}

void
DiagnosticEngine::reportError(const Error& error,
                              const std::string& defaultFile)
{
    Diagnostic d;
    d.severity = Severity::Error;
    d.code = error.code.empty() ? "E-UNCLASSIFIED" : error.code;
    d.message = error.message;
    d.location.file = error.file.empty() ? defaultFile : error.file;
    d.location.line = error.line;
    d.location.column = error.column;
    report(std::move(d));
}

Error
DiagnosticEngine::firstError() const
{
    for (const Diagnostic& d : diagnostics_) {
        if (d.severity != Severity::Error)
            continue;
        Error e;
        e.message = d.message;
        e.line = d.location.line;
        e.column = d.location.column;
        e.file = d.location.file;
        e.code = d.code;
        return e;
    }
    return Error{"no error recorded"};
}

std::string
DiagnosticEngine::renderText() const
{
    std::string out;
    for (const Diagnostic& d : diagnostics_) {
        out += d.toString();
        out += '\n';
    }
    return out;
}

std::string
DiagnosticEngine::renderJson() const
{
    JsonWriter json;
    json.beginObject();
    json.key("errors").value(error_count_);
    json.key("warnings").value(warning_count_);
    json.key("errorLimitReached").value(limit_reached_);
    json.key("diagnostics").beginArray();
    for (const Diagnostic& d : diagnostics_) {
        json.beginObject();
        json.key("severity").value(severityName(d.severity));
        json.key("code").value(d.code);
        json.key("message").value(d.message);
        json.key("file").value(d.location.file);
        json.key("line").value(d.location.line);
        json.key("column").value(d.location.column);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

} // namespace vdram
