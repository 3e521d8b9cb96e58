/**
 * @file
 * vdram_cli — command-line front end to the model.
 *
 *   vdram_cli list
 *   vdram_cli describe   <target>
 *   vdram_cli idd        <target>
 *   vdram_cli emit       <target>
 *   vdram_cli pattern    <target> act nop rd ...
 *   vdram_cli sensitivity <target> [--detailed]
 *   vdram_cli montecarlo <target> [--samples=N] [--seed=N] [--json]
 *   vdram_cli schemes    <target>
 *   vdram_cli timing     <target>
 *   vdram_cli trends     [--csv]
 *   vdram_cli --lint [--diag-format=text|json] <target>
 *
 * <target> is either a path to a .dram description file or
 * "preset:<name>" (see `vdram_cli list`).
 *
 * Campaign commands (montecarlo, sensitivity, sweep, trends) route
 * through the resilient batch runner (src/runner/): --jobs=N
 * parallelism, --task-timeout, --checkpoint/--resume, --inject-fault
 * and graceful SIGINT draining.
 *
 * Exit codes: 0 success, 1 runtime error, 2 usage error, 3 syntax
 * (parse) error in the description, 4 validation error, 5 interrupted
 * (partial results; checkpoint flushed).
 */
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fstream>
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

/** Daemon mode writes to sockets whose peer may vanish any time; a
 *  dying client must surface as EPIPE on that one session's write
 *  (handled, session closes), never as process-killing SIGPIPE. */
void
ignoreSigpipe()
{
    std::signal(SIGPIPE, SIG_IGN);
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

/** Install the graceful-drain handler (campaign commands only). */
void
installDrainHandler(RunnerOptions& options)
{
    options.stopFlag = &g_stop_requested;
    std::signal(SIGINT, onSigint);
    if (g_ready_marker) {
        std::fprintf(stderr, "%s\n", kReadyMarker);
        std::fflush(stderr);
        g_ready_marker = false; // once per process
    }
}

void
printUsage(std::FILE* out)
{
    std::fprintf(
        out,
        "usage: vdram_cli [flags] <command> [args]\n"
        "  list                      list built-in presets\n"
        "  describe <target>         summary, IDD table, breakdown, die\n"
        "  idd <target>              IDD table only\n"
        "  json <target>             full evaluation as JSON\n"
        "  emit <target>             emit the description language text\n"
        "  pattern <target> OP...    evaluate a command loop\n"
        "  sensitivity <target> [--detailed]\n"
        "  montecarlo <target> [--samples=N] [--seed=N] [--json]\n"
        "                            vendor-variation IDD distributions\n"
        "  sweep <target> <parameter> f1 [f2 ...]\n"
        "                            what-if factors on one parameter\n"
        "  fit <target> (--targets=FILE | --datasheet=ddr2|ddr3\n"
        "               --rate=MBPS --width=BITS [--edge=F])\n"
        "      [--starts=N] [--max-generations=N] [--step=F]\n"
        "      [--shrink=F] [--min-step=F] [--spread=F] [--seed=N]\n"
        "      [--report=FILE] [--json] [--list-parameters]\n"
        "                            calibrate the model to IDD targets\n"
        "                            (docs/calibration.md): calibrated\n"
        "                            description DSL on stdout, residual\n"
        "                            report on stderr; --report writes\n"
        "                            the JSON fit report, --json prints\n"
        "                            it to stdout instead of the DSL;\n"
        "                            exit 1 when outside tolerance\n"
        "  schemes <target>          Section V power-reduction study\n"
        "  timing <target>           RC timing estimate\n"
        "  trends [--csv]            generation ladder trends\n"
        "  workload <target> <trace> [--closed]\n"
        "                            schedule an access trace and "
        "evaluate it\n"
        "  gen-trace <target> <workload> <count>\n"
        "                            emit a synthetic access trace to\n"
        "                            stdout (workloads: random, stream,\n"
        "                            local, zipf, chase, mixed)\n"
        "  sched <target> [--workload=K] [--count=N] [--seed=N]\n"
        "        [--policy=inorder|frfcfs] [--page=open|closed]\n"
        "        [--map=row-bank-col|bank-row-col|xor-bank-row-col]\n"
        "        [--window=N] [--write-frac=F] [--locality=F]\n"
        "        [--zipf=F] [--run-length=N] [--jump=F] [--matrix]\n"
        "                            schedule a synthetic workload and\n"
        "                            emit the timed command trace to\n"
        "                            stdout (stats on stderr) — pipe\n"
        "                            into `vdram trace --check`;\n"
        "                            --matrix runs the full workload x\n"
        "                            mapping x policy campaign (exit 4\n"
        "                            on any protocol violation)\n"
        "  replay <target> <cmdtrace>\n"
        "                            evaluate a timed command trace\n"
        "                            (dense; capped — see trace)\n"
        "  serve [--socket=PATH|--port=N]\n"
        "                            long-running JSON evaluation daemon\n"
        "                            (one JSON request per line; see\n"
        "                            docs/serve.md); SIGINT/SIGTERM\n"
        "                            drains (exit 5); --jobs=N sets the\n"
        "                            worker threads; also --queue=N,\n"
        "                            --deadline=S, --max-deadline=S,\n"
        "                            --idle-timeout=S, --cache=N\n"
        "  serve-send [--socket=PATH|--port=N] [--retries=N]\n"
        "             [--retry-base-ms=MS]\n"
        "                            send stdin lines to a serve daemon\n"
        "                            and print the responses; retries\n"
        "                            refused connects and shed\n"
        "                            (E-SERVE-OVERLOAD) lines with\n"
        "                            jittered exponential backoff\n"
        "                            (default 3 retries, 50 ms base)\n"
        "  fleet [--socket=PATH|--port=N] [--workers=N]\n"
        "        [--worker-dir=DIR] [--heartbeat=S]\n"
        "        [--heartbeat-deadline=S] [--restart-budget=N]\n"
        "        [--restart-base-ms=MS] [--drain-timeout=S]\n"
        "        [--failover-wait=S]\n"
        "                            supervised multi-process serve\n"
        "                            fleet: N workers on private\n"
        "                            sockets behind one front socket;\n"
        "                            crashed workers restart with\n"
        "                            backoff, sessions fail over,\n"
        "                            SIGINT/SIGTERM drains the fleet\n"
        "                            (exit 5); worker passthrough:\n"
        "                            --jobs, --queue, --deadline,\n"
        "                            --max-deadline, --idle-timeout,\n"
        "                            --cache (see docs/serve.md)\n"
        "  trace <target> <cmdtrace> [--window=N] "
        "[--format=text|csv|json]\n"
        "                            [--check] [--serial]\n"
        "                            stream a timed command trace in\n"
        "                            bounded memory; --jobs=N counts\n"
        "                            slices in parallel; --window=N\n"
        "                            adds a per-window power timeline;\n"
        "                            --check runs the protocol check\n"
        "                            (serial; exit 4 on a violation)\n"
        "  help                      print this text (also --help)\n"
        "flags:\n"
        "  --lint                    parse + validate the target, report\n"
        "                            every diagnostic, run no command\n"
        "  --diag-format=text|json   diagnostic rendering (default text)\n"
        "  --metrics-out FILE        write a metrics snapshot (JSON) on\n"
        "                            exit; also enables the counters\n"
        "  --trace-out FILE          write a chrome://tracing JSON file\n"
        "                            on exit\n"
        "  --ready-marker            print VDRAM-READY to stderr once a\n"
        "                            campaign's SIGINT drain handler is\n"
        "                            armed (test hook)\n"
        "campaign flags (montecarlo, sensitivity, sweep, trends,\n"
        "                trace, sched --matrix, fit):\n"
        "  --jobs=N                  worker threads (default 1; 0 = all "
        "cores)\n"
        "  --task-timeout=SECONDS    per-variant deadline (watchdog)\n"
        "  --checkpoint=PATH         JSONL checkpoint file\n"
        "  --resume                  skip variants completed in the\n"
        "                            checkpoint (default path if none "
        "given)\n"
        "  --inject-fault=R[:KIND]   fault a fraction R of variants;\n"
        "                            KIND = error|timeout|crash (test "
        "hook)\n"
        "                            DEPRECATED alias for the failpoint\n"
        "                            framework; prefer VDRAM_FAILPOINTS=\n"
        "                            runner.task=ACTION@R (see "
        "docs/runner.md)\n"
        "env:\n"
        "  VDRAM_FAILPOINTS=name=action[:arg][@rate][,...]\n"
        "                            deterministic fault injection at\n"
        "                            named sites (test/chaos hook)\n"
        "SIGINT drains a campaign: in-flight variants finish, the\n"
        "checkpoint is flushed, partial results are reported (exit 5).\n"
        "<target> = file.dram | preset:<name>\n"
        "exit codes: 0 ok, 1 runtime, 2 usage, 3 syntax error,\n"
        "4 validation error, 5 interrupted (partial results),\n"
        "6 unreadable input/checkpoint file\n");
}

int
usage()
{
    printUsage(stderr);
    return kExitUsage;
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
 * Returns kExitOk on success; kExitUsage for an unknown preset;
 * kExitParse when the description has syntax errors; kExitValidate when
 * it parses but fails completeness/consistency validation. Parse errors
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
cmdPattern(const DramDescription& desc, int argc, char** argv)
{
    Pattern pattern;
    for (int i = 0; i < argc; ++i) {
        std::string t = toLower(argv[i]);
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
            std::fprintf(stderr, "unknown op '%s'\n", argv[i]);
            return 2;
        }
    }
    if (pattern.loop.empty()) {
        std::fprintf(stderr, "empty pattern\n");
        return 2;
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
 * Parse an integer flag value in [min, max]; false on any syntax or
 * range defect (the caller reports the usage error).
 */
bool
parseCount(const std::string& text, long long min, long long max,
           long long& out)
{
    if (text.empty())
        return false;
    char* end = nullptr;
    long long value = std::strtoll(text.c_str(), &end, 10);
    if (end != text.c_str() + text.size() || value < min || value > max)
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
        return kExitRuntime;
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

int
cmdMonteCarlo(const DramDescription& desc, CampaignFlags flags,
              int argc, char** argv)
{
    long long samples = 200;
    long long seed = 1;
    bool json_out = false;
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        if (startsWith(arg, "--samples=")) {
            if (!parseCount(arg.substr(10), 1, 10'000'000, samples)) {
                std::fprintf(stderr,
                             "--samples must be an integer in "
                             "[1, 10000000], got '%s'\n",
                             arg.substr(10).c_str());
                return kExitUsage;
            }
        } else if (startsWith(arg, "--seed=")) {
            if (!parseCount(arg.substr(7), 0, INT64_MAX, seed)) {
                std::fprintf(stderr,
                             "--seed must be a non-negative integer, "
                             "got '%s'\n",
                             arg.substr(7).c_str());
                return kExitUsage;
            }
        } else if (arg == "--json") {
            json_out = true;
        } else {
            std::fprintf(stderr, "unknown montecarlo argument '%s'\n",
                         arg.c_str());
            return kExitUsage;
        }
    }
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
        static_cast<std::uint64_t>(seed), flags.runner, &diags);
    if (!campaign.ok()) {
        std::fprintf(stderr, "%s\n",
                     campaign.error().toString().c_str());
        return exitCodeForError(campaign.error());
    }
    const MonteCarloCampaign& mc = campaign.value();

    if (json_out) {
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
        // renderJson() yields a complete object; splice its fields by
        // re-emitting the counters here to keep one valid document.
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

int
cmdFit(const DramDescription& desc, CampaignFlags flags, int argc,
       char** argv)
{
    std::string targetsPath;
    std::string datasheet;
    std::string reportPath;
    double rate = 0;
    long long width = 0;
    double edge = 0.5;
    bool json_out = false;
    FitOptions fit;
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        long long count = 0;
        double real = 0;
        if (startsWith(arg, "--targets=")) {
            targetsPath = arg.substr(10);
        } else if (startsWith(arg, "--datasheet=")) {
            datasheet = arg.substr(12);
            if (datasheet != "ddr2" && datasheet != "ddr3") {
                std::fprintf(stderr,
                             "--datasheet must be ddr2 or ddr3, got "
                             "'%s'\n",
                             datasheet.c_str());
                return kExitUsage;
            }
        } else if (startsWith(arg, "--rate=")) {
            if (!parseReal(arg.substr(7), 1, 1e6, rate)) {
                std::fprintf(stderr, "--rate must be Mb/s in [1, 1e6], "
                                     "got '%s'\n",
                             arg.substr(7).c_str());
                return kExitUsage;
            }
        } else if (startsWith(arg, "--width=")) {
            if (!parseCount(arg.substr(8), 1, 128, width)) {
                std::fprintf(stderr, "--width must be an integer in "
                                     "[1, 128], got '%s'\n",
                             arg.substr(8).c_str());
                return kExitUsage;
            }
        } else if (startsWith(arg, "--edge=")) {
            if (!parseReal(arg.substr(7), 0, 1, edge)) {
                std::fprintf(stderr, "--edge must be in [0, 1], got "
                                     "'%s'\n",
                             arg.substr(7).c_str());
                return kExitUsage;
            }
        } else if (startsWith(arg, "--starts=")) {
            if (!parseCount(arg.substr(9), 1, 64, count)) {
                std::fprintf(stderr, "--starts must be an integer in "
                                     "[1, 64], got '%s'\n",
                             arg.substr(9).c_str());
                return kExitUsage;
            }
            fit.starts = static_cast<int>(count);
        } else if (startsWith(arg, "--max-generations=")) {
            if (!parseCount(arg.substr(18), 1, 100000, count)) {
                std::fprintf(stderr,
                             "--max-generations must be an integer in "
                             "[1, 100000], got '%s'\n",
                             arg.substr(18).c_str());
                return kExitUsage;
            }
            fit.maxGenerations = static_cast<int>(count);
        } else if (startsWith(arg, "--step=")) {
            if (!parseReal(arg.substr(7), 1e-9, 10, real)) {
                std::fprintf(stderr, "--step must be in (0, 10], got "
                                     "'%s'\n",
                             arg.substr(7).c_str());
                return kExitUsage;
            }
            fit.initialStep = real;
        } else if (startsWith(arg, "--shrink=")) {
            if (!parseReal(arg.substr(9), 1e-9, 0.999, real)) {
                std::fprintf(stderr, "--shrink must be in (0, 1), got "
                                     "'%s'\n",
                             arg.substr(9).c_str());
                return kExitUsage;
            }
            fit.stepShrink = real;
        } else if (startsWith(arg, "--min-step=")) {
            if (!parseReal(arg.substr(11), 1e-12, 1, real)) {
                std::fprintf(stderr, "--min-step must be in (0, 1], "
                                     "got '%s'\n",
                             arg.substr(11).c_str());
                return kExitUsage;
            }
            fit.minStep = real;
        } else if (startsWith(arg, "--spread=")) {
            if (!parseReal(arg.substr(9), 0, 10, real)) {
                std::fprintf(stderr, "--spread must be in [0, 10], got "
                                     "'%s'\n",
                             arg.substr(9).c_str());
                return kExitUsage;
            }
            fit.restartSpread = real;
        } else if (startsWith(arg, "--seed=")) {
            if (!parseCount(arg.substr(7), 0, INT64_MAX, count)) {
                std::fprintf(stderr,
                             "--seed must be a non-negative integer, "
                             "got '%s'\n",
                             arg.substr(7).c_str());
                return kExitUsage;
            }
            fit.seed = static_cast<std::uint64_t>(count);
        } else if (startsWith(arg, "--report=")) {
            reportPath = arg.substr(9);
        } else if (arg == "--json") {
            json_out = true;
        } else if (arg == "--list-parameters") {
            for (const std::string& name : fitParameterNames())
                std::printf("%s\n", name.c_str());
            return kExitOk;
        } else {
            std::fprintf(stderr, "unknown fit argument '%s'\n",
                         arg.c_str());
            return kExitUsage;
        }
    }

    DiagnosticEngine diags;
    Result<FitTargetSpec> spec = Error{"", 0, 0, "", ""};
    if (!targetsPath.empty()) {
        spec = loadFitTargetSpec(targetsPath, diags);
    } else if (!datasheet.empty()) {
        if (!(rate > 0) || width <= 0) {
            std::fprintf(stderr, "--datasheet needs --rate=MBPS and "
                                 "--width=BITS\n");
            return kExitUsage;
        }
        spec = specFromDatasheet(datasheet == "ddr2"
                                     ? ddr2_1gb_datasheet()
                                     : ddr3_1gb_datasheet(),
                                 rate, static_cast<int>(width), edge,
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
        runFitCampaign(desc, spec.value(), fit, flags.runner, &diags);
    if (!fitted.ok()) {
        if (!diags.diagnostics().empty())
            std::fprintf(stderr, "%s", diags.renderText().c_str());
        std::fprintf(stderr, "%s\n", fitted.error().toString().c_str());
        return exitCodeForError(fitted.error());
    }
    const FitResult& result = fitted.value();

    const std::string reportJson =
        renderFitReportJson(result, spec.value());
    if (!reportPath.empty()) {
        std::ofstream out(reportPath, std::ios::trunc);
        if (out)
            out << reportJson << "\n";
        if (!out) {
            std::fprintf(stderr, "cannot write fit report to %s\n",
                         reportPath.c_str());
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
    if (json_out)
        std::printf("%s\n", reportJson.c_str());
    else
        std::printf("%s", writeDescription(result.calibrated).c_str());
    return result.converged ? kExitOk : kExitRuntime;
}

int
cmdSweep(const DramDescription& desc, CampaignFlags flags,
         const std::string& param_name, int argc, char** argv)
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
    for (int i = 0; i < argc; ++i) {
        double factor = std::atof(argv[i]);
        if (factor <= 0) {
            std::fprintf(stderr, "bad factor '%s'\n", argv[i]);
            return kExitUsage;
        }
        factors.push_back(factor);
        manifest.push_back(
            TaskSpec{strformat("factor-%s", argv[i]),
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

    BatchRunner runner(
        std::move(manifest),
        [&](const TaskContext& context) -> Result<std::string> {
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
        return kExitRuntime;
    }

    Table table({"factor", "pattern power", "IDD0", "IDD4R",
                 "energy/bit"});
    for (const TaskResult& task : runner.results()) {
        std::vector<std::string> row = {
            strformat("%.3g", factors[task.index])};
        if (task.ok()) {
            for (const std::string& cell : splitChar(task.payload, '\t'))
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
            long long count)
{
    if (count < 1 || count > 100'000'000) {
        std::fprintf(stderr,
                     "trace count must be in [1, 100000000], got %lld\n",
                     count);
        return kExitUsage;
    }
    WorkloadParams params;
    params.count = count;
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
cmdSched(const DramDescription& desc, CampaignFlags flags, int argc,
         char** argv)
{
    WorkloadParams params;
    WorkloadKind kind = WorkloadKind::Local;
    SchedulerOptions sched;
    sched.policy = SchedPolicy::FrFcfs;
    MapScheme scheme = MapScheme::RowBankCol;
    bool matrix = false;
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        long long count = 0;
        if (startsWith(arg, "--workload=")) {
            Result<WorkloadKind> parsed =
                parseWorkloadKind(arg.substr(11));
            if (!parsed.ok()) {
                std::fprintf(stderr, "%s\n",
                             parsed.error().toString().c_str());
                return kExitUsage;
            }
            kind = parsed.value();
        } else if (startsWith(arg, "--map=")) {
            Result<MapScheme> parsed = parseMapScheme(arg.substr(6));
            if (!parsed.ok()) {
                std::fprintf(stderr, "%s\n",
                             parsed.error().toString().c_str());
                return kExitUsage;
            }
            scheme = parsed.value();
        } else if (startsWith(arg, "--policy=")) {
            Result<SchedPolicy> parsed = parseSchedPolicy(arg.substr(9));
            if (!parsed.ok()) {
                std::fprintf(stderr, "%s\n",
                             parsed.error().toString().c_str());
                return kExitUsage;
            }
            sched.policy = parsed.value();
        } else if (startsWith(arg, "--page=")) {
            Result<PagePolicy> parsed = parsePagePolicy(arg.substr(7));
            if (!parsed.ok()) {
                std::fprintf(stderr, "%s\n",
                             parsed.error().toString().c_str());
                return kExitUsage;
            }
            sched.pagePolicy = parsed.value();
        } else if (startsWith(arg, "--count=")) {
            if (!parseCount(arg.substr(8), 1, 10'000'000, count)) {
                std::fprintf(stderr,
                             "--count must be an integer in "
                             "[1, 10000000], got '%s'\n",
                             arg.substr(8).c_str());
                return kExitUsage;
            }
            params.count = count;
        } else if (startsWith(arg, "--seed=")) {
            if (!parseCount(arg.substr(7), 0, UINT32_MAX, count)) {
                std::fprintf(stderr,
                             "--seed must be an integer in [0, 2^32), "
                             "got '%s'\n",
                             arg.substr(7).c_str());
                return kExitUsage;
            }
            params.seed = static_cast<unsigned>(count);
        } else if (startsWith(arg, "--window=")) {
            if (!parseCount(arg.substr(9), 1, 4096, count)) {
                std::fprintf(stderr,
                             "--window must be an integer in [1, 4096], "
                             "got '%s'\n",
                             arg.substr(9).c_str());
                return kExitUsage;
            }
            sched.windowSize = static_cast<int>(count);
        } else if (startsWith(arg, "--run-length=")) {
            if (!parseCount(arg.substr(13), 1, 1'000'000, count)) {
                std::fprintf(stderr,
                             "--run-length must be an integer in "
                             "[1, 1000000], got '%s'\n",
                             arg.substr(13).c_str());
                return kExitUsage;
            }
            params.runLength = static_cast<int>(count);
        } else if (startsWith(arg, "--write-frac=")) {
            if (!parseReal(arg.substr(13), 0, 1, params.writeFraction)) {
                std::fprintf(stderr,
                             "--write-frac must be in [0, 1], got '%s'\n",
                             arg.substr(13).c_str());
                return kExitUsage;
            }
        } else if (startsWith(arg, "--locality=")) {
            if (!parseReal(arg.substr(11), 0, 1, params.locality)) {
                std::fprintf(stderr,
                             "--locality must be in [0, 1], got '%s'\n",
                             arg.substr(11).c_str());
                return kExitUsage;
            }
        } else if (startsWith(arg, "--zipf=")) {
            if (!parseReal(arg.substr(7), 0, 4, params.zipfExponent)) {
                std::fprintf(stderr,
                             "--zipf must be in [0, 4], got '%s'\n",
                             arg.substr(7).c_str());
                return kExitUsage;
            }
        } else if (startsWith(arg, "--jump=")) {
            if (!parseReal(arg.substr(7), 0, 1, params.jumpFraction)) {
                std::fprintf(stderr,
                             "--jump must be in [0, 1], got '%s'\n",
                             arg.substr(7).c_str());
                return kExitUsage;
            }
        } else if (arg == "--matrix") {
            matrix = true;
        } else {
            std::fprintf(stderr, "unknown argument '%s' for sched\n",
                         arg.c_str());
            return kExitUsage;
        }
    }

    if (matrix) {
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

/**
 * `vdram trace`: streaming command-trace evaluation. Serial by default
 * (and always serial with --check: bank-FSM state threads through the
 * whole trace); --jobs=0/N routes line-aligned byte slices through the
 * batch runner and merges the integer counts, bit-identical to the
 * serial result.
 */
int
cmdTrace(const DramDescription& desc, CampaignFlags flags, int argc,
         char** argv)
{
    const std::string path = argv[0];
    long long window = 0;
    std::string format = "text";
    bool check = false;
    bool serial = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (startsWith(arg, "--window=")) {
            if (!parseCount(arg.substr(9), INT64_MIN, INT64_MAX,
                            window)) {
                std::fprintf(stderr,
                             "--window must be an integer cycle count, "
                             "got '%s'\n",
                             arg.substr(9).c_str());
                return kExitUsage;
            }
            // A numeric but unusable window — zero, negative, or wide
            // enough to overflow the window index math — is a content
            // defect, not a syntax defect: report the structured
            // E-TRACE-WINDOW diagnostic (exit 4), same code the
            // library's validateTraceWindow() uses.
            Error invalid;
            bool bad = false;
            if (window == 0) {
                invalid = Error{"--window=0 would request a timeline of "
                                "zero-cycle windows; drop --window to "
                                "evaluate without a timeline",
                                0, 0, "", "E-TRACE-WINDOW"};
                bad = true;
            } else if (Status valid = validateTraceWindow(window);
                       !valid.ok()) {
                invalid = valid.error();
                bad = true;
            }
            if (bad) {
                std::fprintf(stderr, "%s\n",
                             invalid.toString().c_str());
                return exitCodeForError(invalid);
            }
        } else if (startsWith(arg, "--format=")) {
            format = arg.substr(9);
        } else if (arg == "--check") {
            check = true;
        } else if (arg == "--serial") {
            serial = true;
        } else {
            std::fprintf(stderr, "unknown argument '%s' for trace\n",
                         arg.c_str());
            return kExitUsage;
        }
    }
    if (format != "text" && format != "csv" && format != "json") {
        std::fprintf(stderr, "unknown trace format '%s' (text|csv|json)\n",
                     format.c_str());
        return kExitUsage;
    }
    if (format == "csv" && window <= 0) {
        std::fprintf(stderr,
                     "--format=csv emits the per-window timeline and "
                     "needs --window=N\n");
        return kExitUsage;
    }

    installDrainHandler(flags.runner);

    const bool parallel = !serial && !check && flags.runner.jobs != 1;
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
        return kExitRuntime;
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
cmdServe(CampaignFlags flags, int argc, char** argv)
{
    ServeOptions options;
    options.threads = flags.runner.jobs;
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        if (startsWith(arg, "--socket=")) {
            options.socketPath = arg.substr(9);
        } else if (startsWith(arg, "--port=")) {
            long long port = 0;
            if (!parseCount(arg.substr(7), 1, 65535, port)) {
                std::fprintf(stderr,
                             "--port must be in [1, 65535], got '%s'\n",
                             arg.substr(7).c_str());
                return kExitUsage;
            }
            options.port = static_cast<int>(port);
        } else if (startsWith(arg, "--queue=")) {
            long long queue = 0;
            if (!parseCount(arg.substr(8), 1, 1 << 20, queue)) {
                std::fprintf(stderr,
                             "--queue must be a positive request count, "
                             "got '%s'\n",
                             arg.substr(8).c_str());
                return kExitUsage;
            }
            options.queueCapacity = queue;
        } else if (startsWith(arg, "--deadline=")) {
            options.deadlineSeconds = std::atof(arg.substr(11).c_str());
            if (options.deadlineSeconds < 0) {
                std::fprintf(stderr, "--deadline must be >= 0 seconds\n");
                return kExitUsage;
            }
        } else if (startsWith(arg, "--max-deadline=")) {
            options.maxDeadlineSeconds =
                std::atof(arg.substr(15).c_str());
            if (!(options.maxDeadlineSeconds > 0)) {
                std::fprintf(stderr,
                             "--max-deadline must be > 0 seconds\n");
                return kExitUsage;
            }
        } else if (startsWith(arg, "--idle-timeout=")) {
            options.idleSessionSeconds =
                std::atof(arg.substr(15).c_str());
            if (options.idleSessionSeconds < 0) {
                std::fprintf(stderr,
                             "--idle-timeout must be >= 0 seconds\n");
                return kExitUsage;
            }
        } else if (startsWith(arg, "--cache=")) {
            long long cache = 0;
            if (!parseCount(arg.substr(8), 1, 4096, cache)) {
                std::fprintf(stderr,
                             "--cache must be in [1, 4096], got '%s'\n",
                             arg.substr(8).c_str());
                return kExitUsage;
            }
            options.cacheCapacity = static_cast<std::size_t>(cache);
        } else {
            std::fprintf(stderr, "unknown argument '%s' for serve\n",
                         arg.c_str());
            return kExitUsage;
        }
    }
    if (options.socketPath.empty() && options.port == 0) {
        std::fprintf(stderr,
                     "serve needs --socket=PATH or --port=N\n");
        return kExitUsage;
    }

    options.stopFlag = &g_stop_requested;
    ignoreSigpipe();
    std::signal(SIGINT, onSigint);
    std::signal(SIGTERM, onSigterm);
    options.onReady = [] {
        if (g_ready_marker) {
            std::fprintf(stderr, "%s\n", kReadyMarker);
            std::fflush(stderr);
            g_ready_marker = false;
        }
    };

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
cmdFleet(CampaignFlags flags, int argc, char** argv)
{
    FleetOptions options;
    options.serve.threads = flags.runner.jobs;
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        if (startsWith(arg, "--socket=")) {
            options.socketPath = arg.substr(9);
        } else if (startsWith(arg, "--port=")) {
            long long port = 0;
            if (!parseCount(arg.substr(7), 1, 65535, port)) {
                std::fprintf(stderr,
                             "--port must be in [1, 65535], got '%s'\n",
                             arg.substr(7).c_str());
                return kExitUsage;
            }
            options.port = static_cast<int>(port);
        } else if (startsWith(arg, "--workers=")) {
            long long workers = 0;
            if (!parseCount(arg.substr(10), 1, 64, workers)) {
                std::fprintf(stderr,
                             "--workers must be in [1, 64], got '%s'\n",
                             arg.substr(10).c_str());
                return kExitUsage;
            }
            options.workers = static_cast<int>(workers);
        } else if (startsWith(arg, "--worker-dir=")) {
            options.socketDir = arg.substr(13);
        } else if (startsWith(arg, "--heartbeat=")) {
            options.heartbeatSeconds =
                std::atof(arg.substr(12).c_str());
            if (!(options.heartbeatSeconds > 0)) {
                std::fprintf(stderr,
                             "--heartbeat must be > 0 seconds\n");
                return kExitUsage;
            }
        } else if (startsWith(arg, "--heartbeat-deadline=")) {
            options.heartbeatDeadlineSeconds =
                std::atof(arg.substr(21).c_str());
            if (!(options.heartbeatDeadlineSeconds > 0)) {
                std::fprintf(
                    stderr,
                    "--heartbeat-deadline must be > 0 seconds\n");
                return kExitUsage;
            }
        } else if (startsWith(arg, "--restart-budget=")) {
            long long budget = 0;
            if (!parseCount(arg.substr(17), 0, 1000, budget)) {
                std::fprintf(
                    stderr,
                    "--restart-budget must be in [0, 1000], got "
                    "'%s'\n",
                    arg.substr(17).c_str());
                return kExitUsage;
            }
            options.restartBudget = static_cast<int>(budget);
        } else if (startsWith(arg, "--restart-base-ms=")) {
            long long base = 0;
            if (!parseCount(arg.substr(18), 1, 60'000, base)) {
                std::fprintf(stderr,
                             "--restart-base-ms must be in [1, 60000], "
                             "got '%s'\n",
                             arg.substr(18).c_str());
                return kExitUsage;
            }
            options.restartBaseSeconds =
                static_cast<double>(base) / 1000.0;
        } else if (startsWith(arg, "--drain-timeout=")) {
            options.drainTimeoutSeconds =
                std::atof(arg.substr(16).c_str());
            if (!(options.drainTimeoutSeconds > 0)) {
                std::fprintf(stderr,
                             "--drain-timeout must be > 0 seconds\n");
                return kExitUsage;
            }
        } else if (startsWith(arg, "--failover-wait=")) {
            options.failoverWaitSeconds =
                std::atof(arg.substr(16).c_str());
            if (!(options.failoverWaitSeconds > 0)) {
                std::fprintf(stderr,
                             "--failover-wait must be > 0 seconds\n");
                return kExitUsage;
            }
        } else if (startsWith(arg, "--queue=")) {
            long long queue = 0;
            if (!parseCount(arg.substr(8), 1, 1 << 20, queue)) {
                std::fprintf(stderr,
                             "--queue must be a positive request "
                             "count, got '%s'\n",
                             arg.substr(8).c_str());
                return kExitUsage;
            }
            options.serve.queueCapacity = queue;
        } else if (startsWith(arg, "--deadline=")) {
            options.serve.deadlineSeconds =
                std::atof(arg.substr(11).c_str());
            if (options.serve.deadlineSeconds < 0) {
                std::fprintf(stderr,
                             "--deadline must be >= 0 seconds\n");
                return kExitUsage;
            }
        } else if (startsWith(arg, "--max-deadline=")) {
            options.serve.maxDeadlineSeconds =
                std::atof(arg.substr(15).c_str());
            if (!(options.serve.maxDeadlineSeconds > 0)) {
                std::fprintf(stderr,
                             "--max-deadline must be > 0 seconds\n");
                return kExitUsage;
            }
        } else if (startsWith(arg, "--idle-timeout=")) {
            options.idleSessionSeconds =
                std::atof(arg.substr(15).c_str());
            if (options.idleSessionSeconds < 0) {
                std::fprintf(stderr,
                             "--idle-timeout must be >= 0 seconds\n");
                return kExitUsage;
            }
            options.serve.idleSessionSeconds =
                options.idleSessionSeconds;
        } else if (startsWith(arg, "--cache=")) {
            long long cache = 0;
            if (!parseCount(arg.substr(8), 1, 4096, cache)) {
                std::fprintf(stderr,
                             "--cache must be in [1, 4096], got '%s'\n",
                             arg.substr(8).c_str());
                return kExitUsage;
            }
            options.serve.cacheCapacity = cache;
        } else {
            std::fprintf(stderr, "unknown argument '%s' for fleet\n",
                         arg.c_str());
            return kExitUsage;
        }
    }
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

    options.stopFlag = &g_stop_requested;
    ignoreSigpipe();
    std::signal(SIGINT, onSigint);
    std::signal(SIGTERM, onSigterm);
    options.onReady = [] {
        if (g_ready_marker) {
            std::fprintf(stderr, "%s\n", kReadyMarker);
            std::fflush(stderr);
            g_ready_marker = false;
        }
    };
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
cmdServeSend(int argc, char** argv)
{
    ServeSendOptions options;
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        if (startsWith(arg, "--socket=")) {
            options.socketPath = arg.substr(9);
        } else if (startsWith(arg, "--port=")) {
            long long value = 0;
            if (!parseCount(arg.substr(7), 1, 65535, value)) {
                std::fprintf(stderr,
                             "--port must be in [1, 65535], got '%s'\n",
                             arg.substr(7).c_str());
                return kExitUsage;
            }
            options.port = static_cast<int>(value);
        } else if (startsWith(arg, "--retries=")) {
            long long retries = 0;
            if (!parseCount(arg.substr(10), 0, 100, retries)) {
                std::fprintf(stderr,
                             "--retries must be in [0, 100], got "
                             "'%s'\n",
                             arg.substr(10).c_str());
                return kExitUsage;
            }
            options.retries = static_cast<int>(retries);
        } else if (startsWith(arg, "--retry-base-ms=")) {
            long long base = 0;
            if (!parseCount(arg.substr(16), 1, 60'000, base)) {
                std::fprintf(stderr,
                             "--retry-base-ms must be in [1, 60000], "
                             "got '%s'\n",
                             arg.substr(16).c_str());
                return kExitUsage;
            }
            options.retryBaseSeconds =
                static_cast<double>(base) / 1000.0;
        } else {
            std::fprintf(stderr,
                         "unknown argument '%s' for serve-send\n",
                         arg.c_str());
            return kExitUsage;
        }
    }
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
        return kExitRuntime;
    }
    std::fputs(responses.value().c_str(), stdout);
    return kExitOk;
}

} // namespace

namespace {

/** True when @p arg is a flag the dispatched @p command consumes
 *  itself (anything else starting with "--" is a usage error). */
bool
commandOwnsFlag(const std::string& command, const std::string& arg)
{
    if (command == "sensitivity")
        return arg == "--detailed";
    if (command == "trends")
        return arg == "--csv";
    if (command == "workload")
        return arg == "--closed";
    if (command == "sched") {
        return startsWith(arg, "--workload=") ||
               startsWith(arg, "--count=") ||
               startsWith(arg, "--seed=") ||
               startsWith(arg, "--policy=") ||
               startsWith(arg, "--page=") ||
               startsWith(arg, "--map=") ||
               startsWith(arg, "--window=") ||
               startsWith(arg, "--write-frac=") ||
               startsWith(arg, "--locality=") ||
               startsWith(arg, "--zipf=") ||
               startsWith(arg, "--run-length=") ||
               startsWith(arg, "--jump=") || arg == "--matrix";
    }
    if (command == "trace") {
        return startsWith(arg, "--window=") ||
               startsWith(arg, "--format=") || arg == "--check" ||
               arg == "--serial";
    }
    if (command == "montecarlo") {
        return startsWith(arg, "--samples=") ||
               startsWith(arg, "--seed=") || arg == "--json";
    }
    if (command == "fit") {
        return startsWith(arg, "--targets=") ||
               startsWith(arg, "--datasheet=") ||
               startsWith(arg, "--rate=") ||
               startsWith(arg, "--width=") ||
               startsWith(arg, "--edge=") ||
               startsWith(arg, "--starts=") ||
               startsWith(arg, "--max-generations=") ||
               startsWith(arg, "--step=") ||
               startsWith(arg, "--shrink=") ||
               startsWith(arg, "--min-step=") ||
               startsWith(arg, "--spread=") ||
               startsWith(arg, "--seed=") ||
               startsWith(arg, "--report=") || arg == "--json" ||
               arg == "--list-parameters";
    }
    if (command == "serve") {
        return startsWith(arg, "--socket=") ||
               startsWith(arg, "--port=") ||
               startsWith(arg, "--queue=") ||
               startsWith(arg, "--deadline=") ||
               startsWith(arg, "--max-deadline=") ||
               startsWith(arg, "--idle-timeout=") ||
               startsWith(arg, "--cache=");
    }
    if (command == "serve-send") {
        return startsWith(arg, "--socket=") ||
               startsWith(arg, "--port=") ||
               startsWith(arg, "--retries=") ||
               startsWith(arg, "--retry-base-ms=");
    }
    if (command == "fleet") {
        return startsWith(arg, "--socket=") ||
               startsWith(arg, "--port=") ||
               startsWith(arg, "--workers=") ||
               startsWith(arg, "--worker-dir=") ||
               startsWith(arg, "--heartbeat=") ||
               startsWith(arg, "--heartbeat-deadline=") ||
               startsWith(arg, "--restart-budget=") ||
               startsWith(arg, "--restart-base-ms=") ||
               startsWith(arg, "--drain-timeout=") ||
               startsWith(arg, "--failover-wait=") ||
               startsWith(arg, "--queue=") ||
               startsWith(arg, "--deadline=") ||
               startsWith(arg, "--max-deadline=") ||
               startsWith(arg, "--idle-timeout=") ||
               startsWith(arg, "--cache=");
    }
    return false;
}

/** Flag value of "--name value" or "--name=value"; advances @p i for
 *  the two-token form. False when the value is missing or empty. */
bool
takeFlagValue(const std::string& name, int argc, char** argv, int& i,
              std::string& value)
{
    std::string arg = argv[i];
    if (arg == name) {
        if (i + 1 >= argc)
            return false;
        value = argv[++i];
        return !value.empty();
    }
    value = arg.substr(name.size() + 1);
    return !value.empty();
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

    // Strip the global flags (position-independent) before command
    // dispatch. Campaign flags are validated here so a typo exits with
    // a usage error instead of silently running with defaults.
    DiagOptions opts;
    CampaignFlags campaign;
    std::vector<char*> args;
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printUsage(stdout);
            return kExitOk;
        }
        if (arg == "--lint") {
            opts.lint = true;
            continue;
        }
        if (startsWith(arg, "--diag-format=")) {
            opts.format = arg.substr(14);
            continue;
        }
        if (arg == "--metrics-out" || startsWith(arg, "--metrics-out=")) {
            if (!takeFlagValue("--metrics-out", argc, argv, i,
                               g_metrics_out)) {
                std::fprintf(stderr, "--metrics-out needs a file path\n");
                return kExitUsage;
            }
            setMetricsEnabled(true);
            continue;
        }
        if (arg == "--trace-out" || startsWith(arg, "--trace-out=")) {
            if (!takeFlagValue("--trace-out", argc, argv, i,
                               g_trace_out)) {
                std::fprintf(stderr, "--trace-out needs a file path\n");
                return kExitUsage;
            }
            setMetricsEnabled(true);
            globalTrace().enable();
            continue;
        }
        if (arg == "--ready-marker") {
            g_ready_marker = true;
            continue;
        }
        if (startsWith(arg, "--jobs=")) {
            long long jobs = 0;
            if (!parseCount(arg.substr(7), 0, 1024, jobs)) {
                std::fprintf(stderr,
                             "--jobs must be an integer in [0, 1024] "
                             "(0 = all cores), got '%s'\n",
                             arg.substr(7).c_str());
                return kExitUsage;
            }
            campaign.runner.jobs = static_cast<int>(jobs);
            campaign.explicitFlags = true;
            continue;
        }
        if (startsWith(arg, "--task-timeout=")) {
            std::string text = arg.substr(15);
            char* end = nullptr;
            double seconds = std::strtod(text.c_str(), &end);
            if (text.empty() || end != text.c_str() + text.size() ||
                !(seconds > 0)) {
                std::fprintf(stderr,
                             "--task-timeout must be a positive number "
                             "of seconds, got '%s'\n",
                             text.c_str());
                return kExitUsage;
            }
            campaign.runner.taskTimeoutSeconds = seconds;
            campaign.explicitFlags = true;
            continue;
        }
        if (startsWith(arg, "--checkpoint=")) {
            std::string path = arg.substr(13);
            if (path.empty()) {
                std::fprintf(stderr,
                             "--checkpoint needs a file path\n");
                return kExitUsage;
            }
            campaign.runner.checkpointPath = path;
            campaign.explicitFlags = true;
            continue;
        }
        if (arg == "--resume") {
            campaign.runner.resume = true;
            campaign.explicitFlags = true;
            continue;
        }
        if (startsWith(arg, "--inject-fault=")) {
            Result<FaultPlan> plan = parseFaultPlan(arg.substr(15));
            if (!plan.ok()) {
                std::fprintf(stderr, "--inject-fault: %s\n",
                             plan.error().toString().c_str());
                return kExitUsage;
            }
            campaign.runner.faultPlan = plan.value();
            campaign.explicitFlags = true;
            continue;
        }
        args.push_back(argv[i]);
    }
    if (opts.format != "text" && opts.format != "json") {
        std::fprintf(stderr,
                     "unknown diagnostic format '%s' (text|json)\n",
                     opts.format.c_str());
        return kExitUsage;
    }
    argc = static_cast<int>(args.size());
    argv = args.data();

    if (opts.lint) {
        // Lint mode needs only a target: the last argument (so both
        // "vdram_cli --lint file.dram" and
        // "vdram_cli describe file.dram --lint" work).
        if (argc < 2)
            return usage();
        DramDescription desc;
        return loadTarget(argv[argc - 1], opts, desc);
    }

    if (argc < 2)
        return usage();
    std::string command = argv[1];
    if (command == "help") {
        printUsage(stdout);
        return kExitOk;
    }

    // Reject flags the dispatched command does not understand (the
    // global ones were stripped above). Silently ignoring a typo like
    // --sample=100 would run a different experiment than asked for.
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (startsWith(arg, "--") && !commandOwnsFlag(command, arg)) {
            std::fprintf(stderr,
                         "unknown flag '%s' for command '%s' "
                         "(see vdram_cli --help)\n",
                         arg.c_str(), command.c_str());
            return kExitUsage;
        }
    }

    if (command == "list")
        return cmdList();
    if (command == "serve")
        return cmdServe(campaign, argc - 2, argv + 2);
    if (command == "fleet")
        return cmdFleet(campaign, argc - 2, argv + 2);
    if (command == "serve-send")
        return cmdServeSend(argc - 2, argv + 2);
    if (command == "trends") {
        bool csv = argc > 2 && std::strcmp(argv[2], "--csv") == 0;
        return cmdTrends(campaign, csv);
    }

    // `fit --list-parameters` needs no target.
    if (command == "fit" && argc == 3 &&
        std::strcmp(argv[2], "--list-parameters") == 0) {
        for (const std::string& name : fitParameterNames())
            std::printf("%s\n", name.c_str());
        return kExitOk;
    }

    if (argc < 3)
        return usage();
    DramDescription desc;
    int load_status = loadTarget(argv[2], opts, desc);
    if (load_status != kExitOk)
        return load_status;

    if (command == "describe")
        return cmdDescribe(desc);
    if (command == "idd")
        return cmdIdd(desc);
    if (command == "json") {
        DramPowerModel model(desc);
        std::printf("%s\n", modelToJson(model).c_str());
        return 0;
    }
    if (command == "emit")
        return cmdEmit(desc);
    if (command == "pattern")
        return cmdPattern(desc, argc - 3, argv + 3);
    if (command == "sensitivity") {
        bool detailed = argc > 3 &&
                        std::strcmp(argv[3], "--detailed") == 0;
        return cmdSensitivity(desc, campaign, detailed);
    }
    if (command == "montecarlo")
        return cmdMonteCarlo(desc, campaign, argc - 3, argv + 3);
    if (command == "fit")
        return cmdFit(desc, campaign, argc - 3, argv + 3);
    if (command == "sweep" && argc > 4)
        return cmdSweep(desc, campaign, argv[3], argc - 4, argv + 4);
    if (command == "schemes")
        return cmdSchemes(desc);
    if (command == "timing")
        return cmdTiming(desc);
    if (command == "workload" && argc > 3) {
        bool closed = argc > 4 && std::strcmp(argv[4], "--closed") == 0;
        return cmdWorkload(desc, argv[3], closed);
    }
    if (command == "gen-trace" && argc > 3) {
        long long count = argc > 4 ? std::atoll(argv[4]) : 1000;
        return cmdGenTrace(desc, argv[3], count);
    }
    if (command == "sched")
        return cmdSched(desc, campaign, argc - 3, argv + 3);
    if (command == "trace" && argc > 3)
        return cmdTrace(desc, campaign, argc - 3, argv + 3);
    if (command == "replay" && argc > 3) {
        Result<Pattern> trace = loadCommandTraceFile(argv[3]);
        if (!trace.ok()) {
            std::fprintf(stderr, "%s\n",
                         trace.error().toString().c_str());
            return exitCodeForError(trace.error());
        }
        if (trace.value().loop.empty()) {
            std::fprintf(stderr, "%s: trace contains no commands\n",
                         argv[3]);
            return kExitRuntime;
        }
        DramPowerModel model(desc);
        PatternPower power = model.evaluate(trace.value());
        std::printf("replayed %d cycles: current %s, power %s, %.1f "
                    "pJ/bit\n\n%s",
                    trace.value().cycles(),
                    formatEng(power.externalCurrent, "A").c_str(),
                    formatEng(power.power, "W").c_str(),
                    power.energyPerBit * 1e12,
                    renderBreakdown(power).c_str());
        return 0;
    }

    return usage();
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc > 0 && argv[0])
        g_argv0 = argv[0];
    int code = runCli(argc, argv);
    writeObservabilityOutputs();
    return code;
}
