/**
 * @file
 * vdram_cli — command-line front end to the model.
 *
 *   vdram_cli [flags] <command> [args]     (vdram_cli --help lists them)
 *
 * <target> is either a path to a .dram description file or
 * "preset:<name>" (see `vdram_cli list`).
 *
 * Every command declares its flags and positionals once, in the table
 * of commandTable(); the parse, the unknown-flag check, positional
 * arity and the --help text all come from it. Global flags (globalRows)
 * may appear anywhere; a command's flags anywhere after the command.
 *
 * Campaign commands (montecarlo, sensitivity, sweep, trends, fit,
 * trace, sched's matrix) route through the resilient batch runner
 * (src/runner/): worker threads, per-task deadlines, checkpoint and
 * resume, graceful SIGINT draining; VDRAM_FAILPOINTS=runner.task=...
 * forces task faults.
 *
 * Exit codes: 0 success, 1 runtime error, 2 usage error, 3 syntax
 * (parse) error in the description, 4 validation error, 5 interrupted
 * (partial results; checkpoint flushed), 6 unreadable input or
 * checkpoint file, 7 serve-send idle deadline.
 */
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "circuit/rc_timing.h"
#include "core/json_export.h"
#include "core/montecarlo.h"
#include "core/variant_evaluator.h"
#include "runner/campaign.h"
#include "runner/runner.h"
#include "core/model.h"
#include "core/report.h"
#include "core/schemes.h"
#include "core/sensitivity.h"
#include "core/trends.h"
#include "datasheet/reference_data.h"
#include "dsl/parser.h"
#include "dsl/writer.h"
#include "fit/fit_engine.h"
#include "fit/target_spec.h"
#include "presets/presets.h"
#include "protocol/bank_fsm.h"
#include "protocol/controller.h"
#include "protocol/command_trace.h"
#include "protocol/trace.h"
#include "protocol/trace_stream.h"
#include "runner/sched_campaign.h"
#include "runner/trace_campaign.h"
#include "serve/fleet.h"
#include "serve/server.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/numerics.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/trace.h"

using namespace vdram;

namespace {

// Exit codes (documented in README, docs/diagnostics.md and
// docs/runner.md).
constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;
constexpr int kExitParse = 3;
constexpr int kExitValidate = 4;
/** A campaign was interrupted (SIGINT drain): partial results were
 *  reported and the checkpoint, if any, was flushed. */
constexpr int kExitPartial = 5;
/** An input or checkpoint file could not be opened or read (distinct
 *  from 3/4: the file is unreadable, not wrong). */
constexpr int kExitIo = 6;
/** `serve-send` gave up: the daemon sent no byte within --timeout. */
constexpr int kExitTimeout = 7;

/**
 * Map a diagnostic code onto the documented exit codes, so scripts can
 * distinguish "the trace file is unreadable" (6) from "the trace file
 * is malformed" (3), "the trace content is invalid" (4) and "the run
 * was drained" (5) without parsing stderr.
 */
int
exitCodeForError(const Error& error)
{
    const std::string& code = error.code;
    if (code == "E-RUNNER-STOP")
        return kExitPartial;
    if (code == "E-IO-OPEN" || code == "E-IO-READ" ||
        code == "E-CKPT-OPEN" || code == "E-CKPT-WRITE")
        return kExitIo;
    if (code == "E-TRACE-PARSE" || code == "E-CKPT-PARSE" ||
        code == "E-JSON-PARSE" || code == "E-METRICS-PARSE" ||
        code == "E-FIT-PARSE" || startsWith(code, "E-SYNTAX-"))
        return kExitParse;
    if (startsWith(code, "E-TRACE-") || startsWith(code, "E-FIT-") ||
        startsWith(code, "E-DATASHEET-"))
        return kExitValidate;
    return kExitRuntime;
}

/** Diagnostic output options (global flags). */
struct DiagOptions {
    bool lint = false;
    std::string format = "text";
};

/** Batch-runner options parsed from the global campaign flags. */
struct CampaignFlags {
    RunnerOptions runner;
    /** True when any runner flag was given explicitly (controls
     *  whether the run report is printed for quiet runs). */
    bool explicitFlags = false;
};

/** Observability outputs (--metrics-out / --trace-out); written by
 *  main() after command dispatch, whatever the exit path. */
std::string g_metrics_out;
std::string g_trace_out;

/** --ready-marker: announce on stderr when the SIGINT drain handler is
 *  armed, so scripted tests know when a signal drains instead of
 *  killing (default disposition). */
bool g_ready_marker = false;
constexpr const char* kReadyMarker = "VDRAM-READY";

/** Raised by the SIGINT handler; polled by the batch runner. */
std::atomic<bool> g_stop_requested{false};

/** argv[0], kept for the fleet's worker re-exec fallback. */
std::string g_argv0;

/** Path of this binary, for `fleet` to exec `<self> serve` workers.
 *  /proc/self/exe survives PATH-relative invocation and chdir;
 *  argv[0] is the portable fallback. */
std::string
resolveSelfExe()
{
    char buffer[4096];
    ssize_t got =
        ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
    if (got > 0) {
        buffer[got] = '\0';
        return std::string(buffer);
    }
    return g_argv0;
}

extern "C" void
onSigint(int)
{
    g_stop_requested.store(true, std::memory_order_relaxed);
    // A second Ctrl-C kills the process the normal way instead of
    // re-requesting the drain.
    std::signal(SIGINT, SIG_DFL);
}

extern "C" void
onSigterm(int)
{
    g_stop_requested.store(true, std::memory_order_relaxed);
    std::signal(SIGTERM, SIG_DFL);
}

/** Print the --ready-marker line, once per process. */
void
announceReady()
{
    if (g_ready_marker) {
        std::fprintf(stderr, "%s\n", kReadyMarker);
        std::fflush(stderr);
        g_ready_marker = false;
    }
}

/** Install the graceful-drain handler (campaign commands only). */
void
installDrainHandler(RunnerOptions& options)
{
    options.stopFlag = &g_stop_requested;
    std::signal(SIGINT, onSigint);
    announceReady();
}

/** Daemons drain on SIGINT and SIGTERM alike and announce readiness
 *  once they listen. Their sockets' peers may vanish any time; a dying
 *  client must surface as EPIPE on that one session's write (handled,
 *  session closes), never as process-killing SIGPIPE. */
template <typename Options>
void
armDaemon(Options& options)
{
    options.stopFlag = &g_stop_requested;
    std::signal(SIGPIPE, SIG_IGN);
    std::signal(SIGINT, onSigint);
    std::signal(SIGTERM, onSigterm);
    options.onReady = announceReady;
}

/**
 * Print accumulated diagnostics. Text goes to stderr (it annotates
 * whatever the command prints); JSON goes to stdout (it IS the output,
 * only used in lint mode or when the load failed).
 */
void
printDiagnostics(const DiagnosticEngine& diags, const DiagOptions& opts)
{
    if (opts.format == "json") {
        std::printf("%s\n", diags.renderJson().c_str());
        return;
    }
    if (!diags.diagnostics().empty())
        std::fprintf(stderr, "%s", diags.renderText().c_str());
}

/**
 * Load and validate @p target into @p out.
 *
 * Returns kExitOk on success; kExitUsage for an unknown preset; kExitIo
 * when the file cannot be opened; kExitParse when the description has
 * syntax errors; kExitValidate when it parses but fails
 * completeness/consistency validation. Parse errors
 * do NOT stop validation: both stages run so a single invocation
 * reports every defect it can find.
 */
int
loadTarget(const std::string& target, const DiagOptions& opts,
           DramDescription& out)
{
    if (startsWith(target, "preset:")) {
        std::string name = target.substr(7);
        for (const NamedPreset& preset : namedPresets()) {
            if (preset.name == name) {
                out = preset.build();
                if (opts.lint) {
                    DiagnosticEngine diags;
                    validateDescription(out, diags, nullptr);
                    printDiagnostics(diags, opts);
                    if (diags.hasErrors())
                        return kExitValidate;
                }
                return kExitOk;
            }
        }
        std::fprintf(stderr, "unknown preset '%s' (try: vdram_cli list)\n",
                     name.c_str());
        return kExitUsage;
    }

    DiagnosticEngine diags;
    ParsedDescription parsed = parseDescriptionFileDiag(target, diags);
    const bool parse_failed = diags.hasErrors();
    // An unreadable file yields nothing to validate; reporting
    // "missing section" for every section would only bury E-IO-OPEN.
    const bool unopened = parse_failed &&
                          diags.diagnostics().front().code == "E-IO-OPEN";
    if (!unopened)
        validateDescription(parsed.description, diags, &parsed.source);
    if (opts.lint || diags.hasErrors() ||
        !diags.diagnostics().empty()) {
        // In JSON mode only lint/failure runs print (stdout belongs to
        // the command output otherwise).
        if (opts.format != "json" || opts.lint || diags.hasErrors())
            printDiagnostics(diags, opts);
    }
    if (unopened)
        return exitCodeForError(Error("", 0, 0, "", "E-IO-OPEN"));
    if (parse_failed)
        return kExitParse;
    if (diags.hasErrors())
        return kExitValidate;
    out = std::move(parsed.description);
    return kExitOk;
}

int
cmdList()
{
    Table table({"preset", "device"});
    for (const NamedPreset& preset : namedPresets())
        table.addRow({preset.name, preset.build().name});
    std::printf("%s", table.render().c_str());
    return 0;
}

int
cmdDescribe(const DramDescription& desc)
{
    DramPowerModel model(desc);
    std::printf("%s\n", renderSummary(model).c_str());
    std::printf("%s\n", renderIddTable(model).c_str());
    std::printf("%s\n", renderBreakdown(model.evaluateDefault()).c_str());
    std::printf("%s", renderAreaReport(model.area()).c_str());
    return 0;
}

int
cmdIdd(const DramDescription& desc)
{
    DramPowerModel model(desc);
    std::printf("%s", renderIddTable(model).c_str());
    return 0;
}

int
cmdEmit(const DramDescription& desc)
{
    std::printf("%s", writeDescription(desc).c_str());
    return 0;
}

int
cmdPattern(const DramDescription& desc, const std::vector<std::string>& ops)
{
    Pattern pattern;
    for (const std::string& op : ops) {
        std::string t = toLower(op);
        if (t == "act") pattern.loop.push_back(Op::Act);
        else if (t == "pre") pattern.loop.push_back(Op::Pre);
        else if (t == "rd" || t == "read") pattern.loop.push_back(Op::Rd);
        else if (t == "wrt" || t == "wr" || t == "write")
            pattern.loop.push_back(Op::Wr);
        else if (t == "nop") pattern.loop.push_back(Op::Nop);
        else if (t == "ref") pattern.loop.push_back(Op::Ref);
        else if (t == "pdn") pattern.loop.push_back(Op::Pdn);
        else if (t == "srf") pattern.loop.push_back(Op::Srf);
        else {
            std::fprintf(stderr, "unknown op '%s'\n", op.c_str());
            return kExitUsage;
        }
    }

    DramPowerModel model(desc);
    PatternCheckResult check =
        checkPattern(pattern, desc.timing, desc.spec.banks());
    if (!check.ok())
        std::printf("warning: %s\n\n", check.summary().c_str());

    PatternPower power = model.evaluate(pattern);
    std::printf("loop: %d cycles (%.1f ns), current %s, power %s\n",
                pattern.cycles(), power.loopTime * 1e9,
                formatEng(power.externalCurrent, "A").c_str(),
                formatEng(power.power, "W").c_str());
    if (power.bitsPerLoop > 0) {
        std::printf("data: %.0f bits/loop, %.1f pJ/bit, bus utilization "
                    "%.0f%%\n", power.bitsPerLoop,
                    power.energyPerBit * 1e12,
                    power.busUtilization * 100);
    }
    std::printf("\n%s", renderBreakdown(power).c_str());
    return 0;
}

/**
 * Parse a whole decimal integer into @p out; false on a syntax defect.
 * Digits beyond the long long range set @p overflow and leave the
 * clamped value in @p out.
 */
bool
parseInteger(const std::string& text, long long& out, bool& overflow)
{
    if (text.empty())
        return false;
    char* end = nullptr;
    errno = 0;
    out = std::strtoll(text.c_str(), &end, 10);
    overflow = errno == ERANGE;
    return end == text.c_str() + text.size();
}

/**
 * Parse an integer flag value in [min, max]; false on any syntax or
 * range defect, overflow included (the caller reports the usage error).
 */
bool
parseCount(const std::string& text, long long min, long long max,
           long long& out)
{
    long long value = 0;
    bool overflow = false;
    if (!parseInteger(text, value, overflow) || overflow || value < min ||
        value > max)
        return false;
    out = value;
    return true;
}

/** Parse a floating-point flag value in [min, max]; false on any
 *  syntax or range defect (the caller reports the usage error). */
bool
parseReal(const std::string& text, double min, double max, double& out)
{
    if (text.empty())
        return false;
    char* end = nullptr;
    double value = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || !(value >= min) ||
        !(value <= max))
        return false;
    out = value;
    return true;
}

/** The report is only noise when every task just succeeded first try. */
bool
reportIsTrivial(const RunReport& report)
{
    return !report.interrupted && report.failed == 0 &&
           report.quarantined == 0 && report.timedOut == 0 &&
           report.retried == 0 && report.skippedResume == 0;
}

/**
 * Print the campaign accounting to stderr (stdout carries the
 * aggregate result, which must stay byte-identical across
 * serial/parallel/resumed runs — wall time and throughput never belong
 * there).
 */
void
printRunReport(const RunReport& report, const DiagnosticEngine& diags,
               bool force)
{
    if (!diags.diagnostics().empty())
        std::fprintf(stderr, "%s", diags.renderText().c_str());
    if (force || !reportIsTrivial(report))
        std::fprintf(stderr, "%s", report.renderText().c_str());
}

int
exitCodeFor(const RunReport& report)
{
    return report.interrupted ? kExitPartial : kExitOk;
}

int
cmdSensitivity(const DramDescription& desc, CampaignFlags flags,
               bool detailed)
{
    installDrainHandler(flags.runner);
    DiagnosticEngine diags;
    Result<SensitivityCampaign> campaign = runSensitivityCampaign(
        desc, 0.20,
        detailed ? SweepMode::Detailed : SweepMode::Grouped,
        flags.runner, &diags);
    if (!campaign.ok()) {
        std::fprintf(stderr, "%s\n",
                     campaign.error().toString().c_str());
        return exitCodeForError(campaign.error());
    }
    Table table({"parameter", "+20%", "-20%", "spread"});
    for (const SensitivityResult& r : campaign.value().results) {
        table.addRow({r.name, strformat("%+.1f%%", r.plus * 100),
                      strformat("%+.1f%%", r.minus * 100),
                      strformat("%.1f%%", r.spread() * 100)});
    }
    std::printf("%s", table.render().c_str());
    printRunReport(campaign.value().report, diags, flags.explicitFlags);
    return exitCodeFor(campaign.value().report);
}

/** `montecarlo` flag values. */
struct MonteCarloArgs {
    long long samples = 200;
    long long seed = 1;
    bool json = false;
};

int
cmdMonteCarlo(const DramDescription& desc, CampaignFlags flags,
              const MonteCarloArgs& args)
{
    const long long samples = args.samples;
    // --resume without --checkpoint still needs a file to resume from.
    if (flags.runner.resume && flags.runner.checkpointPath.empty()) {
        flags.runner.checkpointPath = "vdram_montecarlo.jsonl";
        std::fprintf(stderr, "using default checkpoint '%s'\n",
                     flags.runner.checkpointPath.c_str());
    }
    installDrainHandler(flags.runner);

    const std::vector<IddMeasure> measures = {
        IddMeasure::Idd0, IddMeasure::Idd2N, IddMeasure::Idd4R,
        IddMeasure::Idd4W, IddMeasure::Idd5};
    DiagnosticEngine diags;
    Result<MonteCarloCampaign> campaign = runMonteCarloCampaign(
        desc, measures, static_cast<int>(samples), {},
        static_cast<std::uint64_t>(args.seed), flags.runner, &diags);
    if (!campaign.ok()) {
        std::fprintf(stderr, "%s\n",
                     campaign.error().toString().c_str());
        return exitCodeForError(campaign.error());
    }
    const MonteCarloCampaign& mc = campaign.value();

    if (args.json) {
        JsonWriter json;
        json.beginObject();
        json.key("samples").value(samples);
        json.key("distributions").beginArray();
        for (const IddDistribution& d : mc.distributions) {
            json.beginObject();
            json.key("measure").value(iddName(d.measure));
            json.key("nominal").value(d.nominal);
            json.key("mean").value(d.mean);
            json.key("min").value(d.minimum);
            json.key("max").value(d.maximum);
            json.key("p05").value(d.p05);
            json.key("p95").value(d.p95);
            json.key("relativeSpread").value(d.relativeSpread());
            json.endObject();
        }
        json.endArray();
        json.key("report");
        // The run counters, without the wall-clock fields.
        json.beginObject();
        json.key("total").value(mc.report.total);
        json.key("ok").value(mc.report.ok);
        json.key("failed").value(mc.report.failed);
        json.key("quarantined").value(mc.report.quarantined);
        json.key("timedOut").value(mc.report.timedOut);
        json.key("retried").value(mc.report.retried);
        json.key("skippedResume").value(mc.report.skippedResume);
        json.key("notRun").value(mc.report.notRun);
        json.key("interrupted").value(mc.report.interrupted);
        json.endObject();
        json.endObject();
        std::printf("%s\n", json.str().c_str());
    } else {
        Table table({"measure", "nominal", "mean", "p05", "p95", "min",
                     "max", "spread"});
        for (const IddDistribution& d : mc.distributions) {
            table.addRow({iddName(d.measure),
                          strformat("%.1f mA", d.nominal * 1e3),
                          strformat("%.1f mA", d.mean * 1e3),
                          strformat("%.1f mA", d.p05 * 1e3),
                          strformat("%.1f mA", d.p95 * 1e3),
                          strformat("%.1f mA", d.minimum * 1e3),
                          strformat("%.1f mA", d.maximum * 1e3),
                          strformat("%.0f%%", d.relativeSpread() * 100)});
        }
        std::printf("%s", table.render().c_str());
    }
    printRunReport(mc.report, diags, true);
    return exitCodeFor(mc.report);
}

/** `fit` flag values. */
struct FitArgs {
    std::string targetsPath;
    std::string datasheet;
    std::string reportPath;
    double rate = 0;
    long long width = 0;
    double edge = 0.5;
    bool json = false;
    bool listParameters = false;
    FitOptions fit;
};

/** `fit`; @p desc is null when no target was given (only
 *  `--list-parameters` runs without one). */
int
cmdFit(const DramDescription* desc, CampaignFlags flags,
       const FitArgs& args)
{
    if (args.listParameters) {
        for (const std::string& name : fitParameterNames())
            std::printf("%s\n", name.c_str());
        return kExitOk;
    }
    if (!desc) {
        std::fprintf(stderr, "fit needs a <target> (see vdram_cli "
                             "--help)\n");
        return kExitUsage;
    }
    const std::string& datasheet = args.datasheet;
    const double rate = args.rate;
    const long long width = args.width;
    DiagnosticEngine diags;
    Result<FitTargetSpec> spec = Error{"", 0, 0, "", ""};
    if (!args.targetsPath.empty()) {
        spec = loadFitTargetSpec(args.targetsPath, diags);
    } else if (!datasheet.empty()) {
        if (!(rate > 0) || width <= 0) {
            std::fprintf(stderr, "--datasheet needs --rate=MBPS and "
                                 "--width=BITS\n");
            return kExitUsage;
        }
        spec = specFromDatasheet(datasheet == "ddr2"
                                     ? ddr2_1gb_datasheet()
                                     : ddr3_1gb_datasheet(),
                                 rate, static_cast<int>(width), args.edge,
                                 strformat("%s-%.0f-x%lld",
                                           datasheet.c_str(), rate,
                                           width));
    } else {
        std::fprintf(stderr, "fit needs --targets=FILE or "
                             "--datasheet=ddr2|ddr3 (see --help)\n");
        return kExitUsage;
    }
    if (!spec.ok()) {
        if (!diags.diagnostics().empty())
            std::fprintf(stderr, "%s", diags.renderText().c_str());
        else
            std::fprintf(stderr, "%s\n",
                         spec.error().toString().c_str());
        return exitCodeForError(spec.error());
    }

    // --resume without --checkpoint still needs a file to resume from.
    if (flags.runner.resume && flags.runner.checkpointPath.empty()) {
        flags.runner.checkpointPath = "vdram_fit.jsonl";
        std::fprintf(stderr, "using default checkpoint '%s'\n",
                     flags.runner.checkpointPath.c_str());
    }
    installDrainHandler(flags.runner);

    Result<FitResult> fitted =
        runFitCampaign(*desc, spec.value(), args.fit, flags.runner, &diags);
    if (!fitted.ok()) {
        if (!diags.diagnostics().empty())
            std::fprintf(stderr, "%s", diags.renderText().c_str());
        std::fprintf(stderr, "%s\n", fitted.error().toString().c_str());
        return exitCodeForError(fitted.error());
    }
    const FitResult& result = fitted.value();

    const std::string reportJson =
        renderFitReportJson(result, spec.value());
    if (!args.reportPath.empty()) {
        std::ofstream out(args.reportPath, std::ios::trunc);
        if (out)
            out << reportJson << "\n";
        if (!out) {
            std::fprintf(stderr, "cannot write fit report to %s\n",
                         args.reportPath.c_str());
            return kExitIo;
        }
    }
    std::fprintf(stderr, "%s",
                 renderFitReportText(result, spec.value()).c_str());
    printRunReport(result.report, diags, flags.explicitFlags);
    if (result.interrupted) {
        std::fprintf(stderr, "fit interrupted; continue with --resume "
                             "--checkpoint=PATH\n");
        return kExitPartial;
    }
    if (args.json)
        std::printf("%s\n", reportJson.c_str());
    else
        std::printf("%s", writeDescription(result.calibrated).c_str());
    return result.converged ? kExitOk : kExitRuntime;
}

int
cmdSweep(const DramDescription& desc, CampaignFlags flags,
         const std::string& param_name,
         const std::vector<std::string>& factor_texts)
{
    // Search the grouped sweep list first, then the detailed one.
    const SweepParam* param = nullptr;
    static std::vector<SweepParam> all;
    all = sweepParameters(SweepMode::Grouped);
    auto detailed = sweepParameters(SweepMode::Detailed);
    all.insert(all.end(), detailed.begin(), detailed.end());
    for (const SweepParam& p : all) {
        if (equalsIgnoreCase(p.name, param_name)) {
            param = &p;
            break;
        }
    }
    if (!param) {
        std::fprintf(stderr,
                     "unknown parameter '%s'; known parameters:\n",
                     param_name.c_str());
        for (const SweepParam& p : sweepParameters(SweepMode::Grouped))
            std::fprintf(stderr, "  %s\n", p.name.c_str());
        return kExitUsage;
    }

    std::vector<double> factors;
    std::vector<TaskSpec> manifest;
    for (const std::string& text : factor_texts) {
        double factor = 0;
        if (!parseReal(text, 0.001, 1000, factor)) {
            std::fprintf(stderr,
                         "bad factor '%s': a factor is a number in "
                         "[0.001, 1000]\n",
                         text.c_str());
            return kExitUsage;
        }
        factors.push_back(factor);
        manifest.push_back(
            TaskSpec{strformat("factor-%s", text.c_str()),
                     deriveStreamSeed(0x53EE9, factors.size() - 1)});
    }

    installDrainHandler(flags.runner);
    DiagnosticEngine diags;

    // Delta-evaluation fast path: one evaluator per worker slot, built
    // from the nominal model. An invalid base description falls back to
    // the copying path, which reports it per row.
    Result<DramPowerModel> nominal = DramPowerModel::create(desc);
    const FastPathMode fast_path =
        nominal.ok() ? fastPathMode() : FastPathMode::Off;
    std::optional<WorkerEvaluators> evaluators;
    if (nominal.ok())
        evaluators.emplace(nominal.value(), flags.runner.jobs);

    // A factor can push the description out of its valid range; that
    // row is reported as not evaluable instead of failing the task.
    auto rowOf = [](auto& model) -> Result<std::string> {
        PatternPower power = model.evaluateDefault();
        return formatEng(power.power, "W") + "\t" +
               formatEng(model.idd(IddMeasure::Idd0), "A") + "\t" +
               formatEng(model.idd(IddMeasure::Idd4R), "A") + "\t" +
               strformat("%.1f pJ", power.energyPerBit * 1e12);
    };
    auto notEvaluable = [](const Error& error) -> Result<std::string> {
        return "not evaluable: " + error.toString() + "\t-\t-\t-";
    };

    BatchRunner<std::string> runner(
        std::move(manifest),
        [&](const TaskContext& context) {
            const double factor = factors[context.index];
            return evaluateFastOrSlow(
                fast_path, context.index,
                [&] {
                    VariantEvaluator& evaluator =
                        evaluators->forWorker(context.worker);
                    Status status = evaluator.applyPerturbation(
                        [&](DramDescription& d) { param->apply(d, factor); },
                        param->dirty);
                    return status.ok() ? rowOf(evaluator)
                                       : notEvaluable(status.error());
                },
                [&] {
                    DramDescription variant = desc;
                    param->apply(variant, factor);
                    Result<DramPowerModel> model =
                        DramPowerModel::create(std::move(variant));
                    return model.ok() ? rowOf(model.value())
                                      : notEvaluable(model.error());
                });
        },
        flags.runner);
    Result<RunReport> report = runner.run(&diags);
    if (!report.ok()) {
        std::fprintf(stderr, "%s\n", report.error().toString().c_str());
        return exitCodeForError(report.error());
    }

    Table table({"factor", "pattern power", "IDD0", "IDD4R",
                 "energy/bit"});
    for (const TaskResult& task : runner.results()) {
        std::vector<std::string> row = {
            strformat("%.3g", factors[task.index])};
        if (task.ok()) {
            for (const std::string& cell :
                 splitChar(runner.payloads()[task.index], '\t'))
                row.push_back(cell);
        } else if (task.outcome == TaskOutcome::NotRun) {
            row.insert(row.end(), {"(not run)", "-", "-", "-"});
        } else {
            row.insert(row.end(),
                       {"failed: " + task.error, "-", "-", "-"});
        }
        // Quarantined rows may carry fewer cells than the header; the
        // table renderer pads, but keep the shape regular anyway.
        while (row.size() < 5)
            row.push_back("-");
        table.addRow(row);
    }
    std::printf("sweep of '%s':\n%s", param->name.c_str(),
                table.render().c_str());
    printRunReport(report.value(), diags, flags.explicitFlags);
    return exitCodeFor(report.value());
}

int
cmdSchemes(const DramDescription& desc)
{
    SchemeEvaluator evaluator(desc, 64);
    Table table({"scheme", "energy/access", "savings", "caveat"});
    for (const SchemeResult& r : evaluator.evaluateAll()) {
        table.addRow({r.name,
                      strformat("%.2f nJ", r.energyPerAccess * 1e9),
                      strformat("%.1f%%", r.savingsVsBaseline * 100),
                      r.caveat});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}

int
cmdTiming(const DramDescription& desc)
{
    TimingEstimate t = estimateTiming(desc);
    Table table({"quantity", "estimate"});
    table.addRow({"master wordline rise",
                  strformat("%.2f ns", t.masterWordlineDelay * 1e9)});
    table.addRow({"local wordline rise",
                  strformat("%.2f ns", t.localWordlineDelay * 1e9)});
    table.addRow({"signal development",
                  strformat("%.2f ns", t.signalDevelopment * 1e9)});
    table.addRow({"sense time",
                  strformat("%.2f ns", t.senseTime * 1e9)});
    table.addRow({"column path",
                  strformat("%.2f ns", t.columnPathDelay * 1e9)});
    table.addRow({"precharge",
                  strformat("%.2f ns", t.prechargeTime * 1e9)});
    table.addSeparator();
    table.addRow({"tRCD estimate",
                  strformat("%.1f ns", t.tRcdEstimate * 1e9)});
    table.addRow({"tRC estimate",
                  strformat("%.1f ns", t.tRcEstimate * 1e9)});
    table.addRow({"max core frequency",
                  strformat("%.0f MHz", t.maxCoreFrequency / 1e6)});
    std::printf("%s", table.render().c_str());
    std::printf("(device timing inputs: tRCD %.1f ns, tRC %.1f ns)\n",
                desc.timing.tRcd * desc.timing.tCkSeconds * 1e9,
                desc.timing.tRcSeconds() * 1e9);
    return 0;
}

int
cmdWorkload(const DramDescription& desc, const std::string& trace_path,
            bool closed_page)
{
    auto trace = loadTraceFile(trace_path);
    if (!trace.ok()) {
        std::fprintf(stderr, "%s\n", trace.error().toString().c_str());
        return exitCodeForError(trace.error());
    }
    Status addresses = validateAccesses(trace.value(), desc.spec);
    if (!addresses.ok()) {
        std::fprintf(stderr, "%s: %s\n", trace_path.c_str(),
                     addresses.error().toString().c_str());
        return exitCodeForError(addresses.error());
    }
    CommandScheduler scheduler(desc.spec, desc.timing,
                               closed_page ? PagePolicy::ClosedPage
                                           : PagePolicy::OpenPage);
    Result<ScheduledStream> scheduled = scheduler.schedule(trace.value());
    if (!scheduled.ok()) {
        std::fprintf(stderr, "%s: %s\n", trace_path.c_str(),
                     scheduled.error().toString().c_str());
        return exitCodeForError(scheduled.error());
    }
    ScheduledStream stream = std::move(scheduled).value();
    DramPowerModel model(desc);
    PatternPower power = model.evaluate(stream.pattern);

    std::printf("%lld accesses: %lld hits / %lld misses / %lld "
                "conflicts (hit rate %.0f%%), %lld cycles\n",
                stream.stats.accesses, stream.stats.rowHits,
                stream.stats.rowMisses, stream.stats.rowConflicts,
                stream.stats.rowHitRate() * 100, stream.stats.cycles);
    std::printf("power %s, %.1f pJ/bit, bus utilization %.0f%%\n\n",
                formatEng(power.power, "W").c_str(),
                power.energyPerBit * 1e12, power.busUtilization * 100);
    std::printf("%s", renderBreakdown(power).c_str());
    return 0;
}

int
cmdGenTrace(const DramDescription& desc, const std::string& kind,
            const std::string& count)
{
    WorkloadParams params;
    if (!parseCount(count, 1, 100'000'000, params.count)) {
        std::fprintf(stderr,
                     "trace count must be an integer in [1, 100000000], "
                     "got '%s'\n",
                     count.c_str());
        return kExitUsage;
    }
    Result<WorkloadKind> parsed = parseWorkloadKind(kind);
    if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.error().toString().c_str());
        return kExitUsage;
    }
    AddressMap map(desc.spec, MapScheme::RowBankCol);
    std::vector<MemoryAccess> accesses =
        makeWorkload(desc.spec, map, parsed.value(), params);
    std::printf("%s", writeTrace(accesses).c_str());
    return 0;
}

/** `sched` flag values. */
struct SchedArgs {
    SchedArgs() { sched.policy = SchedPolicy::FrFcfs; }

    WorkloadParams params;
    WorkloadKind kind = WorkloadKind::Local;
    SchedulerOptions sched;
    MapScheme scheme = MapScheme::RowBankCol;
    bool matrix = false;
};

/**
 * `vdram sched`: generate a synthetic workload, schedule it under the
 * configured scheduling policy / page policy / address mapping, and
 * emit the scheduled `<cycle> <command>` trace to stdout — the format
 * `vdram trace` consumes, so `vdram sched T | vdram trace T /dev/stdin
 * --check` replays the schedule through the streaming checker. The
 * stream statistics go to stderr. --matrix instead runs the full
 * workload × mapping × policy × page-policy campaign through the batch
 * runner (checkpointable, parallel, drainable) and renders one table;
 * any protocol violation in any cell fails the run (exit 4).
 */
int
cmdSched(const DramDescription& desc, CampaignFlags flags,
         const SchedArgs& args)
{
    const WorkloadParams& params = args.params;
    const WorkloadKind kind = args.kind;
    const SchedulerOptions& sched = args.sched;
    const MapScheme scheme = args.scheme;
    if (args.matrix) {
        installDrainHandler(flags.runner);
        SchedMatrixOptions options;
        options.workloads = allWorkloadKinds();
        options.schemes = allMapSchemes();
        options.policies = {SchedPolicy::InOrder, SchedPolicy::FrFcfs};
        options.pagePolicies = {PagePolicy::OpenPage,
                                PagePolicy::ClosedPage};
        options.params = params;
        options.windowSize = sched.windowSize;
        DiagnosticEngine diags;
        Result<SchedMatrixCampaign> campaign =
            runSchedMatrixCampaign(desc, options, flags.runner, &diags);
        if (!campaign.ok()) {
            std::fprintf(stderr, "%s\n",
                         campaign.error().toString().c_str());
            return exitCodeForError(campaign.error());
        }
        Table table({"workload", "map", "policy", "page", "hit rate",
                     "reordered", "violations", "pJ/bit"});
        long long violations = 0;
        for (const SchedMatrixCell& cell : campaign.value().cells) {
            if (!cell.ok) {
                table.addRow({workloadKindName(cell.workload),
                              mapSchemeName(cell.scheme),
                              schedPolicyName(cell.policy),
                              pagePolicyName(cell.pagePolicy), "-", "-",
                              "-", "-"});
                continue;
            }
            violations += cell.violations;
            table.addRow(
                {workloadKindName(cell.workload),
                 mapSchemeName(cell.scheme),
                 schedPolicyName(cell.policy),
                 pagePolicyName(cell.pagePolicy),
                 strformat("%.0f%%", cell.stats.rowHitRate() * 100),
                 strformat("%lld", cell.stats.reordered),
                 strformat("%lld", cell.violations),
                 strformat("%.1f", cell.energyPerBit * 1e12)});
        }
        std::printf("%s", table.render().c_str());
        printRunReport(campaign.value().report, diags,
                       flags.explicitFlags);
        if (violations > 0) {
            std::fprintf(stderr,
                         "scheduler matrix: %lld protocol violations\n",
                         violations);
            return kExitValidate;
        }
        return exitCodeFor(campaign.value().report);
    }

    AddressMap map(desc.spec, scheme);
    std::vector<MemoryAccess> accesses =
        makeWorkload(desc.spec, map, kind, params);
    CommandScheduler scheduler(desc.spec, desc.timing, sched);
    Result<ScheduledStream> scheduled = scheduler.schedule(accesses);
    if (!scheduled.ok()) {
        std::fprintf(stderr, "%s\n",
                     scheduled.error().toString().c_str());
        return exitCodeForError(scheduled.error());
    }
    const ScheduledStream& stream = scheduled.value();
    std::fprintf(stderr,
                 "%lld accesses (%s/%s/%s/%s): %lld hits / %lld misses "
                 "/ %lld conflicts (hit rate %.0f%%), %lld reordered, "
                 "%lld cycles\n",
                 stream.stats.accesses, workloadKindName(kind).c_str(),
                 mapSchemeName(scheme).c_str(),
                 schedPolicyName(sched.policy).c_str(),
                 pagePolicyName(sched.pagePolicy).c_str(),
                 stream.stats.rowHits, stream.stats.rowMisses,
                 stream.stats.rowConflicts,
                 stream.stats.rowHitRate() * 100, stream.stats.reordered,
                 stream.stats.cycles);
    std::printf("%s", writeCommandTrace(stream.pattern).c_str());
    return 0;
}

/** `trace` flag values and positional. */
struct TraceArgs {
    std::string path;
    long long window = 0;
    std::string format = "text";
    bool check = false;
    bool serial = false;
};

/**
 * The `trace` window validator: @p text must be an integer (usage
 * error otherwise). A numeric but unusable window — zero, negative, or
 * wide enough to overflow the window index math (digits past the long
 * long range arrive clamped) — is a content defect, not a syntax
 * defect: report the structured E-TRACE-WINDOW diagnostic (exit 4),
 * same code the library's validateTraceWindow() uses.
 */
int
checkTraceWindow(const std::string& flag, const std::string& text,
                 long long& window)
{
    bool overflow = false;
    if (!parseInteger(text, window, overflow)) {
        std::fprintf(stderr,
                     "%s must be an integer cycle count, got '%s'\n",
                     flag.c_str(), text.c_str());
        return kExitUsage;
    }
    Status valid =
        window == 0
            ? Status(Error(strformat("%s=0 would request a timeline of "
                                     "zero-cycle windows; drop %s to "
                                     "evaluate without a timeline",
                                     flag.c_str(), flag.c_str()),
                           0, 0, "", "E-TRACE-WINDOW"))
            : validateTraceWindow(window);
    if (valid.ok())
        return kExitOk;
    std::fprintf(stderr, "%s\n", valid.error().toString().c_str());
    return exitCodeForError(valid.error());
}

/**
 * `vdram trace`: streaming command-trace evaluation. Serial by default
 * (and always serial with a protocol check: bank-FSM state threads
 * through the whole trace); more than one job routes line-aligned byte
 * slices through the batch runner and merges the integer counts,
 * bit-identical to the serial result.
 */
int
cmdTrace(const DramDescription& desc, CampaignFlags flags,
         const TraceArgs& args)
{
    const std::string& path = args.path;
    const long long window = args.window;
    const std::string& format = args.format;
    const bool check = args.check;
    if (format == "csv" && window <= 0) {
        std::fprintf(stderr,
                     "--format=csv emits the per-window timeline and "
                     "needs --window=N\n");
        return kExitUsage;
    }

    installDrainHandler(flags.runner);

    const bool parallel = !args.serial && !check && flags.runner.jobs != 1;
    DiagnosticEngine diags;
    TraceStreamResult result;
    RunReport report;
    bool have_report = false;
    if (parallel) {
        TraceCampaignOptions options;
        options.windowCycles = window;
        options.jobs = flags.runner.jobs;
        options.stopFlag = flags.runner.stopFlag;
        Result<TraceCampaignResult> campaign =
            evaluateTraceFileParallel(path, options, &diags);
        if (!campaign.ok()) {
            printDiagnostics(diags, DiagOptions{});
            std::fprintf(stderr, "%s\n",
                         campaign.error().toString().c_str());
            return exitCodeForError(campaign.error());
        }
        result = std::move(campaign.value().trace);
        report = campaign.value().report;
        have_report = true;
    } else {
        TraceStreamOptions options;
        options.windowCycles = window;
        options.check = check;
        options.banks = desc.spec.banks();
        options.timing = desc.timing;
        Result<TraceStreamResult> streamed =
            evaluateTraceStreamFile(path, options);
        if (!streamed.ok()) {
            std::fprintf(stderr, "%s\n",
                         streamed.error().toString().c_str());
            return exitCodeForError(streamed.error());
        }
        result = std::move(streamed).value();
    }

    DramPowerModel model(desc);
    const double tck = desc.timing.tCkSeconds;
    PatternPower power = computePatternPowerFromStats(
        result.stats, model.operations(), desc.elec, tck, desc.spec);

    if (check) {
        if (result.violationCount == 0) {
            std::fprintf(stderr, "trace is protocol-clean\n");
        } else {
            std::fprintf(stderr, "%lld protocol violation(s):\n",
                         result.violationCount);
            for (const TimingViolation& v : result.violations) {
                std::fprintf(stderr, "  cycle %lld %s: %s (%s)\n",
                             v.cycle, opName(v.op).c_str(),
                             v.rule.c_str(), v.detail.c_str());
            }
            const long long shown =
                static_cast<long long>(result.violations.size());
            if (shown < result.violationCount) {
                std::fprintf(stderr, "  ... and %lld more\n",
                             result.violationCount - shown);
            }
        }
    }

    auto window_power = [&](const TraceWindow& w) {
        return computePatternPowerFromStats(
            w.stats, model.operations(), desc.elec, tck, desc.spec);
    };

    if (format == "json") {
        JsonWriter json;
        json.beginObject();
        json.key("cycles").value(result.cycles);
        json.key("commands").value(result.commands);
        json.key("loop_time_s").value(power.loopTime);
        json.key("external_current_a").value(power.externalCurrent);
        json.key("power_w").value(power.power);
        json.key("energy_per_bit_j").value(power.energyPerBit);
        json.key("bus_utilization").value(power.busUtilization);
        if (check)
            json.key("violations").value(result.violationCount);
        if (window > 0) {
            json.key("window_cycles").value(window);
            json.key("windows").beginArray();
            for (const TraceWindow& w : result.windows) {
                PatternPower wp = window_power(w);
                json.beginObject();
                json.key("start_cycle").value(w.startCycle);
                json.key("cycles").value(w.cycles);
                json.key("external_current_a").value(wp.externalCurrent);
                json.key("power_w").value(wp.power);
                json.key("energy_j").value(wp.power * wp.loopTime);
                json.endObject();
            }
            json.endArray();
        }
        json.endObject();
        std::printf("%s\n", json.str().c_str());
    } else if (format == "csv") {
        std::printf("window,start_cycle,cycles,current_a,power_w,"
                    "energy_j\n");
        for (size_t i = 0; i < result.windows.size(); ++i) {
            const TraceWindow& w = result.windows[i];
            PatternPower wp = window_power(w);
            std::printf("%zu,%lld,%lld,%.9g,%.9g,%.9g\n", i,
                        w.startCycle, w.cycles, wp.externalCurrent,
                        wp.power, wp.power * wp.loopTime);
        }
    } else {
        std::printf("streamed %lld cycles (%lld commands): current %s, "
                    "power %s, %.1f pJ/bit\n\n%s",
                    result.cycles, result.commands,
                    formatEng(power.externalCurrent, "A").c_str(),
                    formatEng(power.power, "W").c_str(),
                    power.energyPerBit * 1e12,
                    renderBreakdown(power).c_str());
        if (window > 0 && !result.windows.empty()) {
            Table table({"window", "start cycle", "cycles", "current",
                         "power"});
            for (size_t i = 0; i < result.windows.size(); ++i) {
                const TraceWindow& w = result.windows[i];
                PatternPower wp = window_power(w);
                table.addRow(
                    {strformat("%zu", i), strformat("%lld", w.startCycle),
                     strformat("%lld", w.cycles),
                     formatEng(wp.externalCurrent, "A"),
                     formatEng(wp.power, "W")});
            }
            std::printf("\n%s", table.render().c_str());
        }
    }
    if (have_report)
        printRunReport(report, diags, flags.explicitFlags);
    // As in sched --matrix, a protocol violation fails validation.
    if (check && result.violationCount > 0)
        return kExitValidate;
    return have_report ? exitCodeFor(report) : kExitOk;
}

int
cmdTrends(CampaignFlags flags, bool csv)
{
    installDrainHandler(flags.runner);
    DiagnosticEngine diags;
    Result<TrendsCampaign> campaign =
        runTrendsCampaign({}, flags.runner, &diags);
    if (!campaign.ok()) {
        std::fprintf(stderr, "%s\n",
                     campaign.error().toString().c_str());
        return exitCodeForError(campaign.error());
    }
    Table table({"node", "year", "device", "die mm2", "pJ/bit", "IDD0 mA",
                 "IDD4R mA"});
    for (const TrendPoint& p : campaign.value().points) {
        table.addRow({strformat("%.0f", p.generation.featureSize * 1e9),
                      strformat("%d", p.generation.year),
                      p.generation.label(),
                      strformat("%.1f", p.dieAreaMm2),
                      strformat("%.1f", p.energyPerBit * 1e12),
                      strformat("%.0f", p.idd0 * 1e3),
                      strformat("%.0f", p.idd4r * 1e3)});
    }
    std::printf("%s", csv ? table.renderCsv().c_str()
                          : table.render().c_str());
    printRunReport(campaign.value().report, diags, flags.explicitFlags);
    return exitCodeFor(campaign.value().report);
}

/**
 * `vdram serve`: the long-running evaluation daemon (src/serve).
 * SIGINT and SIGTERM both drain: already-read requests are answered,
 * then the process exits with the standard drain code 5.
 */
int
cmdServe(const CampaignFlags& flags, ServeOptions& options)
{
    options.threads = flags.runner.jobs;
    if (options.socketPath.empty() && options.port == 0) {
        std::fprintf(stderr, "serve needs --socket=PATH or --port=N\n");
        return kExitUsage;
    }

    armDaemon(options);
    Result<ServeStats> stats = runServeServer(options);
    if (!stats.ok()) {
        std::fprintf(stderr, "%s\n", stats.error().toString().c_str());
        return kExitRuntime;
    }
    std::fprintf(stderr, "serve: %s\n",
                 stats.value().renderJson().c_str());
    return stats.value().drained ? kExitPartial : kExitOk;
}

/**
 * `vdram fleet`: N supervised `vdram serve` workers behind one front
 * socket (src/serve/fleet.h). SIGINT/SIGTERM drain the whole fleet;
 * exit 5 certifies the summed accounting invariant held and every
 * worker drained cleanly.
 */
int
cmdFleet(const CampaignFlags& flags, FleetOptions& options)
{
    options.serve.threads = flags.runner.jobs;
    // The router's session idle timeout follows the workers'.
    options.idleSessionSeconds = options.serve.idleSessionSeconds;
    if (options.socketPath.empty() && options.port == 0) {
        std::fprintf(stderr, "fleet needs --socket=PATH or --port=N\n");
        return kExitUsage;
    }
    if (options.socketDir.empty()) {
        if (options.socketPath.empty()) {
            std::fprintf(stderr,
                         "fleet with --port needs --worker-dir=DIR "
                         "for the worker sockets\n");
            return kExitUsage;
        }
        options.socketDir = options.socketPath + ".d";
    }
    options.exePath = resolveSelfExe();
    if (options.exePath.empty()) {
        std::fprintf(stderr,
                     "fleet cannot resolve its own binary path\n");
        return kExitRuntime;
    }

    armDaemon(options);
    options.onEvent = [](const std::string& event) {
        // One supervision event per line; scripted tests parse the
        // "worker N pid P" lines to aim their kill -9.
        std::fprintf(stderr, "fleet: %s\n", event.c_str());
        std::fflush(stderr);
    };

    Result<FleetStats> stats = runFleet(options);
    if (!stats.ok()) {
        std::fprintf(stderr, "%s\n", stats.error().toString().c_str());
        return kExitRuntime;
    }
    std::fprintf(stderr, "fleet: %s\n",
                 stats.value().renderJson().c_str());
    if (stats.value().cleanDrain())
        return kExitPartial;
    if (stats.value().drained) {
        // Drain commanded but the accounting did not close: a worker
        // was killed hard or a response went missing. Scripts must not
        // read this as a clean drain.
        return kExitRuntime;
    }
    return kExitOk;
}

/** `vdram serve-send`: pipe stdin request lines to a daemon. */
int
cmdServeSend(const ServeSendOptions& options)
{
    if (options.socketPath.empty() && options.port == 0) {
        std::fprintf(stderr,
                     "serve-send needs --socket=PATH or --port=N\n");
        return kExitUsage;
    }

    std::string input;
    char chunk[4096];
    size_t got;
    while ((got = std::fread(chunk, 1, sizeof chunk, stdin)) > 0)
        input.append(chunk, got);
    if (trim(input).empty()) {
        std::fprintf(stderr, "serve-send: no requests on stdin\n");
        return kExitUsage;
    }

    Result<std::string> responses = serveSendLinesRetry(options, input);
    if (!responses.ok()) {
        std::fprintf(stderr, "%s\n",
                     responses.error().toString().c_str());
        return responses.error().code == "E-SERVE-TIMEOUT" ? kExitTimeout
                                                           : kExitRuntime;
    }
    std::fputs(responses.value().c_str(), stdout);
    return kExitOk;
}

// ---------------------------------------------------------------------
// The flag tables. Every flag and positional is declared once, as a row
// below; the parse, the unknown-flag check, positional arity and the
// --help text all come from the rows.

/** How a flag's value is read. */
enum class FlagKind {
    Switch,  ///< no value
    Integer, ///< parseCount within the row's inclusive bounds
    Real,    ///< parseReal within the row's inclusive bounds
    Text,    ///< any non-empty string
    Choice,  ///< one of the row's '|'-separated values
};

/** One flag: what --help shows, and how its value is checked and where
 *  it goes. Made by the row builders below. */
struct Flag {
    std::string name{};
    FlagKind kind = FlagKind::Switch;
    /** "[lo, hi]" of an Integer or Real row; "a|b" of a Choice row. */
    std::string range{};
    /** Value placeholder in --help ("N", "FILE"). */
    std::string meta{};
    std::string help{};
    /** The destination's value when the row was made, as --help shows
     *  it; empty when that is no valid value (an unset default). */
    std::string defaultValue{};
    /** Checks a value and stores it at the destination; prints its own
     *  message and returns the exit code (kExitOk accepts). */
    std::function<int(const Flag& row, const std::string& value)> apply{};
    /** Raised whenever the flag is given. */
    bool* given = nullptr;
    /** Also accept the two-token form "--name VALUE". */
    bool separate = false;
};

/** The usage error for a malformed or out-of-range @p value of @p row:
 *  names the row's range. */
int
rejectValue(const Flag& row, const std::string& value)
{
    const char* what = row.kind == FlagKind::Integer ? "an integer in"
                       : row.kind == FlagKind::Real  ? "a number in"
                       : row.kind == FlagKind::Choice
                           ? "one of"
                           : "a non-empty";
    std::fprintf(stderr, "%s must be %s %s, got '%s'\n", row.name.c_str(),
                 what,
                 row.kind == FlagKind::Text ? row.meta.c_str()
                                            : row.range.c_str(),
                 value.c_str());
    return kExitUsage;
}

Flag
switchRow(std::string name, bool& out, std::string help)
{
    Flag row{.name = std::move(name), .help = std::move(help)};
    row.apply = [&out](const Flag&, const std::string&) {
        out = true;
        return kExitOk;
    };
    return row;
}

template <typename T>
Flag
integerRow(std::string name, T& out, long long lo, long long hi,
           std::string meta, std::string help)
{
    Flag row{.name = std::move(name),
             .kind = FlagKind::Integer,
             .range = strformat("[%lld, %lld]", lo, hi),
             .meta = std::move(meta),
             .help = std::move(help)};
    const long long current = static_cast<long long>(out);
    if (current >= lo && current <= hi)
        row.defaultValue = std::to_string(current);
    row.apply = [&out, lo, hi](const Flag& self, const std::string& text) {
        long long value = 0;
        if (!parseCount(text, lo, hi, value))
            return rejectValue(self, text);
        out = static_cast<T>(value);
        return kExitOk;
    };
    return row;
}

/** An integer count of milliseconds, stored as seconds. */
Flag
millisRow(std::string name, double& seconds, long long lo, long long hi,
          std::string help)
{
    Flag row{.name = std::move(name),
             .kind = FlagKind::Integer,
             .range = strformat("[%lld, %lld]", lo, hi),
             .meta = "MS",
             .help = std::move(help),
             .defaultValue = strformat("%.0f", seconds * 1000)};
    row.apply = [&seconds, lo, hi](const Flag& self,
                                   const std::string& text) {
        long long millis = 0;
        if (!parseCount(text, lo, hi, millis))
            return rejectValue(self, text);
        seconds = static_cast<double>(millis) / 1000.0;
        return kExitOk;
    };
    return row;
}

Flag
realRow(std::string name, double& out, double lo, double hi,
        std::string meta, std::string help)
{
    Flag row{.name = std::move(name),
             .kind = FlagKind::Real,
             .range = strformat("[%g, %g]", lo, hi),
             .meta = std::move(meta),
             .help = std::move(help)};
    if (out >= lo && out <= hi)
        row.defaultValue = strformat("%g", out);
    row.apply = [&out, lo, hi](const Flag& self, const std::string& text) {
        return parseReal(text, lo, hi, out) ? kExitOk
                                            : rejectValue(self, text);
    };
    return row;
}

Flag
textRow(std::string name, std::string& out, std::string meta,
        std::string help)
{
    Flag row{.name = std::move(name),
             .kind = FlagKind::Text,
             .meta = std::move(meta),
             .help = std::move(help),
             .defaultValue = out};
    row.apply = [&out](const Flag& self, const std::string& text) {
        out = text;
        return text.empty() ? rejectValue(self, text) : kExitOk;
    };
    return row;
}

Flag
choiceRow(std::string name, std::string& out, std::string choices,
          std::string help)
{
    Flag row{.name = std::move(name),
             .kind = FlagKind::Choice,
             .range = choices,
             .meta = choices,
             .help = std::move(help),
             .defaultValue = out};
    row.apply = [&out](const Flag& self, const std::string& text) {
        for (const std::string& choice : splitChar(self.range, '|')) {
            if (choice == text) {
                out = text;
                return kExitOk;
            }
        }
        return rejectValue(self, text);
    };
    return row;
}

/** A value one of the library's name parsers reads; its error is the
 *  usage message. --help lists @p values by @p nameOf. */
template <typename T>
Flag
parsedRow(std::string name, T& out,
          Result<T> (*parse)(const std::string&),
          std::string (*nameOf)(T), const std::vector<T>& values,
          std::string help)
{
    std::vector<std::string> names;
    for (T value : values)
        names.push_back(nameOf(value));
    Flag row{.name = std::move(name),
             .kind = FlagKind::Text,
             .meta = join(names, "|"),
             .help = std::move(help),
             .defaultValue = nameOf(out)};
    row.apply = [&out, parse](const Flag&, const std::string& text) {
        Result<T> parsed = parse(text);
        if (!parsed.ok()) {
            std::fprintf(stderr, "%s\n", parsed.error().toString().c_str());
            return kExitUsage;
        }
        out = parsed.value();
        return kExitOk;
    };
    return row;
}

enum class Arity { Required, Optional, Variadic };

/** One positional argument. A Variadic one comes last and takes the
 *  rest of the words, at least one. */
struct Positional {
    std::string name{};
    Arity arity = Arity::Required;
    std::string* one = nullptr;
    std::vector<std::string>* many = nullptr;
};

struct Command {
    std::string name;
    std::string summary;
    std::vector<Positional> positionals;
    std::vector<Flag> flags;
    std::function<int()> run;
};

/** `sweep` positionals. */
struct SweepArgs {
    std::string parameter;
    std::vector<std::string> factors;
};

/** `workload` positional and flag. */
struct WorkloadArgs {
    std::string path;
    bool closed = false;
};

/** `gen-trace` positionals. */
struct GenTraceArgs {
    std::string kind;
    std::string count = "1000";
};

/** Everything one command line sets; the table rows point into it. */
struct Invocation {
    DiagOptions diag;
    CampaignFlags campaign;
    bool help = false;
    std::string target;
    /** A target word was bound; it may be empty (and fail to load). */
    bool targetGiven = false;
    DramDescription desc;

    std::vector<std::string> ops;
    bool detailed = false;
    bool csv = false;
    MonteCarloArgs montecarlo;
    SweepArgs sweep;
    FitArgs fit;
    WorkloadArgs workload;
    GenTraceArgs genTrace;
    SchedArgs sched;
    TraceArgs trace;
    ServeOptions serve;
    FleetOptions fleet;
    ServeSendOptions serveSend;
};

/** Flags every command takes, anywhere on the command line. */
std::vector<Flag>
globalRows(Invocation& in)
{
    Flag metrics = textRow("--metrics-out", g_metrics_out, "FILE",
                           "write a metrics snapshot (JSON) on exit; also "
                           "enables the counters");
    metrics.separate = true;
    Flag trace = textRow("--trace-out", g_trace_out, "FILE",
                         "write a chrome://tracing JSON file on exit");
    trace.separate = true;
    return {
        switchRow("--help", in.help, "print this text (also -h)"),
        switchRow("--lint", in.diag.lint,
                  "parse and validate the target, report every "
                  "diagnostic, run no command"),
        choiceRow("--diag-format", in.diag.format, "text|json",
                  "diagnostic rendering"),
        metrics,
        trace,
        switchRow("--ready-marker", g_ready_marker,
                  "print VDRAM-READY to stderr once the SIGINT drain "
                  "handler is armed (test hook)"),
    };
}

/** The batch-runner flags; global too, read by the campaign commands. */
std::vector<Flag>
campaignRows(CampaignFlags& campaign)
{
    RunnerOptions& runner = campaign.runner;
    std::vector<Flag> rows = {
        integerRow("--jobs", runner.jobs, 0, 1024, "N",
                   "worker threads (0 = all cores)"),
        realRow("--task-timeout", runner.taskTimeoutSeconds, 0.001, 86400,
                "S", "per-variant deadline in seconds (watchdog)"),
        textRow("--checkpoint", runner.checkpointPath, "PATH",
                "JSONL checkpoint file"),
        switchRow("--resume", runner.resume,
                  "skip variants completed in the checkpoint (a default "
                  "path if none is given)"),
    };
    for (Flag& row : rows)
        row.given = &campaign.explicitFlags;
    return rows;
}

/** Where a daemon listens or a client connects. */
std::vector<Flag>
transportRows(std::string& socket, int& port)
{
    return {
        textRow("--socket", socket, "PATH", "unix-domain socket"),
        integerRow("--port", port, 1, 65535, "N",
                   "loopback TCP port (when no socket is given)"),
    };
}

/** The daemon flags `serve` and `fleet` share; a fleet passes them on
 *  to its workers. */
template <typename Serve>
std::vector<Flag>
daemonRows(std::string& socket, int& port, Serve& serve)
{
    std::vector<Flag> rows = transportRows(socket, port);
    rows.push_back(integerRow("--queue", serve.queueCapacity, 1, 1 << 20,
                              "N", "request queue bound; beyond it "
                                   "requests are shed"));
    rows.push_back(realRow("--deadline", serve.deadlineSeconds, 0, 86400,
                           "S", "default per-request deadline in seconds "
                                "(0 disables)"));
    rows.push_back(realRow("--max-deadline", serve.maxDeadlineSeconds,
                           0.001, 86400, "S",
                           "cap on client-supplied deadlines"));
    rows.push_back(realRow("--idle-timeout", serve.idleSessionSeconds, 0,
                           86400, "S", "close sessions idle this long "
                                       "(0 disables)"));
    rows.push_back(integerRow("--cache", serve.cacheCapacity, 1, 4096, "N",
                              "validated-description cache entries"));
    return rows;
}

std::vector<Flag>
concat(std::vector<Flag> rows, const std::vector<Flag>& more)
{
    rows.insert(rows.end(), more.begin(), more.end());
    return rows;
}

void printUsage(std::FILE* out);

/** Every command, its positionals and its flags. */
std::vector<Command>
commandTable(Invocation& in)
{
    const Positional target{.name = "target", .one = &in.target};
    MonteCarloArgs& mc = in.montecarlo;
    FitArgs& fit = in.fit;
    SchedArgs& sched = in.sched;
    TraceArgs& trace = in.trace;
    FleetOptions& fleet = in.fleet;
    ServeSendOptions& send = in.serveSend;
    return {
        {"list", "list built-in presets", {}, {}, [] { return cmdList(); }},
        {"describe", "summary, IDD table, breakdown, die", {target}, {},
         [&in] { return cmdDescribe(in.desc); }},
        {"idd", "IDD table only", {target}, {},
         [&in] { return cmdIdd(in.desc); }},
        {"json", "full evaluation as JSON", {target}, {},
         [&in] {
             DramPowerModel model(in.desc);
             std::printf("%s\n", modelToJson(model).c_str());
             return kExitOk;
         }},
        {"emit", "emit the description language text", {target}, {},
         [&in] { return cmdEmit(in.desc); }},
        {"pattern",
         "evaluate a command loop (ops: act pre rd wr nop ref pdn srf)",
         {target, {.name = "op", .arity = Arity::Variadic, .many = &in.ops}},
         {},
         [&in] { return cmdPattern(in.desc, in.ops); }},
        {"sensitivity", "+/-20% one-at-a-time parameter sensitivity",
         {target},
         {switchRow("--detailed", in.detailed,
                    "one row per parameter instead of per group")},
         [&in] { return cmdSensitivity(in.desc, in.campaign, in.detailed); }},
        {"montecarlo", "vendor-variation IDD distributions",
         {target},
         {integerRow("--samples", mc.samples, 1, 10'000'000, "N",
                     "samples to draw"),
          integerRow("--seed", mc.seed, 0, INT64_MAX, "N", "random seed"),
          switchRow("--json", mc.json, "JSON instead of a table")},
         [&in] { return cmdMonteCarlo(in.desc, in.campaign, in.montecarlo); }},
        {"sweep", "what-if factors on one parameter",
         {target,
          {.name = "parameter", .one = &in.sweep.parameter},
          {.name = "factor",
           .arity = Arity::Variadic,
           .many = &in.sweep.factors}},
         {},
         [&in] {
             return cmdSweep(in.desc, in.campaign, in.sweep.parameter,
                             in.sweep.factors);
         }},
        {"fit",
         "calibrate the model to IDD targets (docs/calibration.md): "
         "calibrated description on stdout, residual report on stderr; "
         "exit 1 when outside tolerance",
         {{.name = "target", .arity = Arity::Optional, .one = &in.target}},
         {textRow("--targets", fit.targetsPath, "FILE",
                  "IDD target spec (JSON)"),
          choiceRow("--datasheet", fit.datasheet, "ddr2|ddr3",
                    "fit a bundled datasheet's IDD table instead"),
          realRow("--rate", fit.rate, 1, 1e6, "MBPS",
                  "datasheet data rate in Mb/s"),
          integerRow("--width", fit.width, 1, 128, "BITS",
                     "datasheet device width"),
          realRow("--edge", fit.edge, 0, 1, "F",
                  "where in each datasheet band to aim (0 = minimum, "
                  "1 = maximum)"),
          integerRow("--starts", fit.fit.starts, 1, 64, "N",
                     "independent search starts"),
          integerRow("--max-generations", fit.fit.maxGenerations, 1,
                     100000, "N", "search generations per start"),
          realRow("--step", fit.fit.initialStep, 1e-9, 10, "F",
                  "initial step"),
          realRow("--shrink", fit.fit.stepShrink, 1e-9, 0.999, "F",
                  "step factor after a generation without progress"),
          realRow("--min-step", fit.fit.minStep, 1e-12, 1, "F",
                  "stop below this step"),
          realRow("--spread", fit.fit.restartSpread, 0, 10, "F",
                  "spread of the restart points"),
          integerRow("--seed", fit.fit.seed, 0, INT64_MAX, "N",
                     "search seed"),
          textRow("--report", fit.reportPath, "FILE",
                  "write the JSON fit report"),
          switchRow("--json", fit.json,
                    "print the fit report instead of the description"),
          switchRow("--list-parameters", fit.listParameters,
                    "list the fitted parameters (no target needed)")},
         [&in] {
             return cmdFit(in.targetGiven ? &in.desc : nullptr, in.campaign,
                           in.fit);
         }},
        {"schemes", "Section V power-reduction study", {target}, {},
         [&in] { return cmdSchemes(in.desc); }},
        {"timing", "RC timing estimate", {target}, {},
         [&in] { return cmdTiming(in.desc); }},
        {"trends", "generation ladder trends", {},
         {switchRow("--csv", in.csv, "CSV instead of a table")},
         [&in] { return cmdTrends(in.campaign, in.csv); }},
        {"workload", "schedule an access trace and evaluate it",
         {target, {.name = "trace", .one = &in.workload.path}},
         {switchRow("--closed", in.workload.closed,
                    "closed-page policy (default open page)")},
         [&in] {
             return cmdWorkload(in.desc, in.workload.path,
                                in.workload.closed);
         }},
        {"gen-trace",
         "emit a synthetic access trace to stdout (workloads: random, "
         "stream, local, zipf, chase, mixed; count 1000 unless given)",
         {target,
          {.name = "workload", .one = &in.genTrace.kind},
          {.name = "count",
           .arity = Arity::Optional,
           .one = &in.genTrace.count}},
         {},
         [&in] {
             return cmdGenTrace(in.desc, in.genTrace.kind,
                                in.genTrace.count);
         }},
        {"sched",
         "schedule a synthetic workload and emit the timed command trace "
         "to stdout (stats on stderr); pipe it into `vdram trace` with "
         "its check",
         {target},
         {parsedRow("--workload", sched.kind, parseWorkloadKind,
                    workloadKindName, allWorkloadKinds(),
                    "synthetic workload"),
          integerRow("--count", sched.params.count, 1, 10'000'000, "N",
                     "accesses"),
          integerRow("--seed", sched.params.seed, 0, UINT32_MAX, "N",
                     "workload seed"),
          parsedRow("--policy", sched.sched.policy, parseSchedPolicy,
                    schedPolicyName,
                    {SchedPolicy::InOrder, SchedPolicy::FrFcfs},
                    "scheduling policy"),
          parsedRow("--page", sched.sched.pagePolicy, parsePagePolicy,
                    pagePolicyName,
                    {PagePolicy::OpenPage, PagePolicy::ClosedPage},
                    "page policy"),
          parsedRow("--map", sched.scheme, parseMapScheme, mapSchemeName,
                    allMapSchemes(), "address mapping"),
          integerRow("--window", sched.sched.windowSize, 1, 4096, "N",
                     "scheduler window"),
          realRow("--write-frac", sched.params.writeFraction, 0, 1, "F",
                  "fraction of writes"),
          realRow("--locality", sched.params.locality, 0, 1, "F",
                  "row-reuse probability (local workload)"),
          realRow("--zipf", sched.params.zipfExponent, 0, 4, "F",
                  "skew exponent (zipf workload)"),
          integerRow("--run-length", sched.params.runLength, 1, 1'000'000,
                     "N", "sequential run between jumps (mixed workload)"),
          realRow("--jump", sched.params.jumpFraction, 0, 1, "F",
                  "random-jump probability (mixed workload)"),
          switchRow("--matrix", sched.matrix,
                    "run the workload x mapping x policy x page campaign "
                    "and print one table instead (exit 4 on any protocol "
                    "violation)")},
         [&in] { return cmdSched(in.desc, in.campaign, in.sched); }},
        {"trace",
         "stream a timed command trace in bounded memory; with several "
         "jobs, slices are counted in parallel",
         {target, {.name = "cmdtrace", .one = &trace.path}},
         {Flag{.name = "--window",
               .kind = FlagKind::Text,
               .meta = "N",
               .help = "add a power timeline of N-cycle windows",
               .apply = [&trace](const Flag& self, const std::string& text) {
                   return checkTraceWindow(self.name, text, trace.window);
               }},
          choiceRow("--format", trace.format, "text|csv|json",
                    "output (csv is the window timeline)"),
          switchRow("--check", trace.check,
                    "run the protocol check (serial; exit 4 on a "
                    "violation)"),
          switchRow("--serial", trace.serial,
                    "stream serially whatever the job count")},
         [&in] { return cmdTrace(in.desc, in.campaign, in.trace); }},
        {"serve",
         "long-running JSON evaluation daemon, one request per line "
         "(docs/serve.md); SIGINT/SIGTERM drains (exit 5); the jobs are "
         "its worker threads",
         {},
         daemonRows(in.serve.socketPath, in.serve.port, in.serve),
         [&in] { return cmdServe(in.campaign, in.serve); }},
        {"fleet",
         "supervised multi-process serve fleet: workers on private "
         "sockets behind one front socket; crashed workers restart with "
         "backoff, sessions fail over, SIGINT/SIGTERM drains the fleet "
         "(exit 5); the jobs and the daemon flags pass on to the workers",
         {},
         concat(
             daemonRows(fleet.socketPath, fleet.port, fleet.serve),
             std::vector<Flag>{
                 integerRow("--workers", fleet.workers, 1, 64, "N",
                            "worker processes"),
                 textRow("--worker-dir", fleet.socketDir, "DIR",
                         "worker sockets and logs (default: the socket "
                         "path + .d)"),
                 realRow("--heartbeat", fleet.heartbeatSeconds, 0.001,
                         86400, "S", "liveness probe interval"),
                 realRow("--heartbeat-deadline",
                         fleet.heartbeatDeadlineSeconds, 0.001, 86400, "S",
                         "a worker silent this long is killed and "
                         "restarted"),
                 integerRow("--restart-budget", fleet.restartBudget, 0,
                            1000, "N", "restarts before a slot is given up"),
                 millisRow("--restart-base-ms", fleet.restartBaseSeconds,
                           1, 60'000, "first restart backoff"),
                 realRow("--drain-timeout", fleet.drainTimeoutSeconds,
                         0.001, 86400, "S",
                         "worker drain budget before SIGKILL"),
                 realRow("--failover-wait", fleet.failoverWaitSeconds,
                         0.001, 86400, "S",
                         "how long a session waits for its worker's "
                         "restart")}),
         [&in] { return cmdFleet(in.campaign, in.fleet); }},
        {"serve-send",
         "send stdin lines to a serve daemon and print the responses; "
         "refused connects and shed (E-SERVE-OVERLOAD) lines are retried "
         "with jittered exponential backoff",
         {},
         concat(transportRows(send.socketPath, send.port),
                std::vector<Flag>{
                    integerRow("--retries", send.retries, 0, 100, "N",
                               "retries per refused connect or shed line"),
                    millisRow("--retry-base-ms", send.retryBaseSeconds, 1,
                              60'000, "first retry backoff"),
                    realRow("--timeout", send.idleTimeoutSeconds, 0.001,
                            86400, "S",
                            "exit 7 when no response byte arrives for "
                            "this long")}),
         [&in] { return cmdServeSend(in.serveSend); }},
        {"help", "print this text", {}, {},
         [] {
             printUsage(stdout);
             return kExitOk;
         }},
    };
}

std::string
positionalLabel(const Positional& positional)
{
    if (positional.arity == Arity::Optional)
        return "[" + positional.name + "]";
    return "<" + positional.name + ">" +
           (positional.arity == Arity::Variadic ? "..." : "");
}

std::string
synopsis(const Command& command)
{
    std::string text = command.name;
    for (const Positional& positional : command.positionals)
        text += " " + positionalLabel(positional);
    return text;
}

/** Append @p label at @p indent, then @p words from column 30 on,
 *  wrapped at 79 columns (a word is never split). */
void
appendHelpLine(std::string& out, size_t indent, const std::string& label,
               const std::vector<std::string>& words)
{
    constexpr size_t kColumn = 30;
    constexpr size_t kWidth = 79;
    std::string line = std::string(indent, ' ') + label;
    if (line.size() + 2 > kColumn) {
        out += line + "\n";
        line.clear();
    }
    for (const std::string& word : words) {
        if (line.size() > kColumn &&
            line.size() + 1 + word.size() > kWidth) {
            out += line + "\n";
            line.clear();
        }
        if (line.size() < kColumn)
            line.resize(kColumn, ' ');
        else
            line += ' ';
        line += word;
    }
    out += line + "\n";
}

void
appendFlagHelp(std::string& out, size_t indent, const Flag& row)
{
    std::string label = row.name;
    if (row.kind != FlagKind::Switch)
        label += (row.separate ? " " : "=") + row.meta;
    std::vector<std::string> words = splitWhitespace(row.help);
    if (row.kind == FlagKind::Integer || row.kind == FlagKind::Real)
        words.push_back(row.range);
    if (!row.defaultValue.empty())
        words.push_back("(default " + row.defaultValue + ")");
    appendHelpLine(out, indent, label, words);
}

/** The --help text, generated from the tables. */
void
printUsage(std::FILE* out)
{
    Invocation defaults;
    std::string text = "usage: vdram_cli [flags] <command> [args]\n"
                       "<target> = file.dram | preset:<name>\n"
                       "\ncommands:\n";
    for (const Command& command : commandTable(defaults)) {
        appendHelpLine(text, 2, synopsis(command),
                       splitWhitespace(command.summary));
        for (const Flag& row : command.flags)
            appendFlagHelp(text, 4, row);
    }
    text += "\nflags (any command, anywhere on the line):\n";
    for (const Flag& row : globalRows(defaults))
        appendFlagHelp(text, 2, row);
    text += "\ncampaign flags (montecarlo, sensitivity, sweep, trends, "
            "trace, sched's\nmatrix, fit; serve and fleet read the jobs "
            "as worker threads):\n";
    for (const Flag& row : campaignRows(defaults.campaign))
        appendFlagHelp(text, 2, row);
    text += "\nenv:\n";
    appendHelpLine(text, 2, "VDRAM_FAILPOINTS=name=action[:arg][@rate][,...]",
                   splitWhitespace("deterministic fault injection at named "
                                   "sites (test/chaos hook)"));
    text += "\nSIGINT drains a campaign: in-flight variants finish, the\n"
            "checkpoint is flushed, partial results are reported (exit 5).\n"
            "exit codes: 0 ok, 1 runtime, 2 usage, 3 syntax error,\n"
            "4 validation error, 5 interrupted (partial results),\n"
            "6 unreadable input/checkpoint file, 7 serve-send idle "
            "deadline\n";
    std::fputs(text.c_str(), out);
}

int
usage()
{
    printUsage(stderr);
    return kExitUsage;
}

/** The row @p arg ("--name" or "--name=value") names, or null. */
const Flag*
findFlag(const std::vector<Flag>& rows, const std::string& arg)
{
    for (const Flag& row : rows) {
        if (arg == row.name || startsWith(arg, row.name + "="))
            return &row;
    }
    return nullptr;
}

/** Parse flag @p row given as @p arg (the two-token form also takes
 *  argv[i + 1]); returns the exit code. */
int
applyFlag(const Flag& row, const std::string& arg, int argc, char** argv,
          int& i)
{
    std::string value;
    if (arg.size() > row.name.size()) {
        value = arg.substr(row.name.size() + 1);
        if (row.kind == FlagKind::Switch) {
            std::fprintf(stderr, "%s takes no value\n", row.name.c_str());
            return kExitUsage;
        }
    } else if (row.kind != FlagKind::Switch) {
        if (!row.separate || i + 1 >= argc) {
            std::fprintf(stderr, "%s needs a value: %s=%s\n",
                         row.name.c_str(), row.name.c_str(),
                         row.meta.c_str());
            return kExitUsage;
        }
        value = argv[++i];
    }
    const int code = row.apply(row, value);
    if (code != kExitOk)
        return code;
    if (row.given)
        *row.given = true;
    return kExitOk;
}

/** Hand @p words to @p command's positionals in order: a usage error
 *  when a required one is missing or a word is left over. */
int
bindPositionals(const Command& command,
                const std::vector<std::string>& words)
{
    size_t next = 0;
    for (const Positional& positional : command.positionals) {
        if (next < words.size() && positional.arity == Arity::Variadic) {
            positional.many->assign(words.begin() + next, words.end());
            next = words.size();
        } else if (next < words.size()) {
            *positional.one = words[next++];
        } else if (positional.arity != Arity::Optional) {
            std::fprintf(stderr, "%s: missing %s\nusage: vdram_cli %s\n",
                         command.name.c_str(),
                         positionalLabel(positional).c_str(),
                         synopsis(command).c_str());
            return kExitUsage;
        }
    }
    if (next < words.size()) {
        std::fprintf(stderr,
                     "unknown argument '%s' for command '%s'\n"
                     "usage: vdram_cli %s\n",
                     words[next].c_str(), command.name.c_str(),
                     synopsis(command).c_str());
        return kExitUsage;
    }
    return kExitOk;
}

/** Flush the --metrics-out / --trace-out files. Runs after dispatch on
 *  every exit path of runCli() (including usage and load errors), so a
 *  partial campaign still leaves its observability data behind. */
void
writeObservabilityOutputs()
{
    if (!g_metrics_out.empty()) {
        std::ofstream out(g_metrics_out, std::ios::trunc);
        if (out)
            out << globalMetrics().snapshot().renderJson() << "\n";
        if (!out) {
            std::fprintf(stderr, "warning: cannot write metrics to %s\n",
                         g_metrics_out.c_str());
        }
    }
    if (!g_trace_out.empty()) {
        globalTrace().disable();
        std::ofstream out(g_trace_out, std::ios::trunc);
        if (out)
            out << globalTrace().renderChromeJson() << "\n";
        if (!out) {
            std::fprintf(stderr, "warning: cannot write trace to %s\n",
                         g_trace_out.c_str());
        }
    }
}

int
runCli(int argc, char** argv)
{
    // A malformed VDRAM_FAILPOINTS spec is a usage error up front;
    // silently ignoring it would run chaos tests without any chaos.
    Status failpoints = initFailpointsFromEnv();
    if (!failpoints.ok()) {
        std::fprintf(stderr, "VDRAM_FAILPOINTS: %s\n",
                     failpoints.error().toString().c_str());
        return kExitUsage;
    }

    Invocation in;
    const std::vector<Flag> globals =
        concat(globalRows(in), campaignRows(in.campaign));
    std::vector<Command> commands = commandTable(in);

    // One pass: the global rows apply anywhere; the first word names the
    // command, whose rows apply after it. Every other word is positional.
    // A typo like --sample=100 is a usage error, never silently ignored.
    Command* command = nullptr;
    std::vector<std::string> words;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = std::strcmp(argv[i], "-h") == 0
                                    ? std::string("--help")
                                    : std::string(argv[i]);
        if (!startsWith(arg, "--")) {
            if (!command && words.empty()) {
                for (Command& candidate : commands) {
                    if (candidate.name == arg)
                        command = &candidate;
                }
                if (command)
                    continue;
            }
            words.push_back(arg);
            continue;
        }
        const Flag* row = findFlag(globals, arg);
        if (!row && command)
            row = findFlag(command->flags, arg);
        if (!row) {
            const std::string where =
                command ? " for command '" + command->name + "'" : "";
            std::fprintf(stderr,
                         "unknown flag '%s'%s (see vdram_cli --help)\n",
                         arg.c_str(), where.c_str());
            return kExitUsage;
        }
        const int code = applyFlag(*row, arg, argc, argv, i);
        if (code != kExitOk)
            return code;
    }
    if (!g_metrics_out.empty() || !g_trace_out.empty())
        setMetricsEnabled(true);
    if (!g_trace_out.empty())
        globalTrace().enable();

    if (in.help) {
        printUsage(stdout);
        return kExitOk;
    }
    if (!command) {
        // Lint mode needs only a target: `vdram_cli --lint file.dram`.
        if (in.diag.lint && words.size() == 1)
            return loadTarget(words.front(), in.diag, in.desc);
        if (!words.empty())
            std::fprintf(stderr, "unknown command '%s'\n",
                         words.front().c_str());
        return usage();
    }
    const int bound = bindPositionals(*command, words);
    if (bound != kExitOk)
        return bound;
    // The target is always the first positional.
    in.targetGiven = !words.empty() && !command->positionals.empty() &&
                     command->positionals.front().one == &in.target;
    if (in.diag.lint) {
        if (!in.targetGiven) {
            std::fprintf(stderr, "%s: nothing to lint (no <target>)\n",
                         command->name.c_str());
            return kExitUsage;
        }
        return loadTarget(in.target, in.diag, in.desc);
    }
    if (in.targetGiven) {
        const int loaded = loadTarget(in.target, in.diag, in.desc);
        if (loaded != kExitOk)
            return loaded;
    }
    return command->run();
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc > 0 && argv[0])
        g_argv0 = argv[0];
    int code = runCli(argc, argv);
    writeObservabilityOutputs();
    // Commands print their results without checking each write; a full
    // disk or a closed descriptor shows up once here, when stdout is
    // flushed.
    // An earlier failure keeps its own exit code.
    errno = 0;
    const bool flushed = std::fflush(stdout) == 0;
    if (!flushed || std::ferror(stdout)) {
        Error error;
        error.code = "E-IO-WRITE";
        error.message = "cannot write standard output";
        if (!flushed && errno != 0)
            error.message += std::string(": ") + std::strerror(errno);
        std::fprintf(stderr, "%s\n", error.toString().c_str());
        if (code == kExitOk)
            code = exitCodeForError(error);
    }
    return code;
}
