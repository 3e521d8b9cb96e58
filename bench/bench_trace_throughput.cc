/**
 * @file
 * Streaming trace-engine throughput benchmark and regression gate.
 *
 * Generates a synthetic command trace (sized to fit the dense replay
 * cap so the reference path still works), then measures:
 *
 *  - dense replay (parseCommandTrace + computePatternPower), the
 *    reference implementation,
 *  - serial streaming evaluation (evaluateTraceStreamFile),
 *  - parallel streaming evaluation (evaluateTraceFileParallel, all
 *    cores),
 *  - rendering the dense pattern back to text (writeCommandTrace),
 *
 * verifies both streaming results are bit-for-bit identical to the
 * dense result and that the rendered text parses back to the identical
 * loop, and writes BENCH_trace.json with the throughput. The run fails
 * when rendering is slower than a quarter of the serial streaming rate
 * measured in the same run; with --baseline=PATH it also fails when the
 * serial streaming throughput regressed more than 20 % below the
 * recorded baseline.
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <filesystem>
#include <fstream>

#include "core/model.h"
#include "presets/presets.h"
#include "protocol/command_trace.h"
#include "protocol/trace_stream.h"
#include "runner/trace_campaign.h"
#include "util/json.h"
#include "util/metrics.h"

namespace {

using namespace vdram;

constexpr long long kCommands = 2'000'000;
constexpr std::uint32_t kSeed = 41;
/** A run may be at most 20 % slower than the recorded baseline. */
constexpr double kBaselineTolerance = 0.8;
/** Rendering must reach this share of the same run's serial streaming
 *  rate (a same-run ratio, so it holds on any host). */
constexpr double kMinRenderToSerial = 0.25;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Minimal extraction of a numeric field from a one-object JSON file. */
bool
readJsonNumber(const std::string& text, const std::string& key,
               double* out)
{
    std::string needle = "\"" + key + "\":";
    size_t pos = text.find(needle);
    if (pos == std::string::npos)
        return false;
    *out = std::strtod(text.c_str() + pos + needle.size(), nullptr);
    return true;
}

/** Synthetic controller-style trace: bursts of row activity with
 *  variable gaps, refreshes, and power-down runs. */
std::string
makeBenchTrace(long long commands)
{
    std::mt19937 rng(kSeed);
    std::string text;
    text.reserve(static_cast<size_t>(commands) * 12);
    long long cycle = 0;
    long long emitted = 0;
    while (emitted < commands) {
        const unsigned kind = rng() % 16;
        if (kind < 10) {
            // Row cycle: ACT, a few column bursts, PRE.
            text += std::to_string(cycle) + " ACT\n";
            cycle += 10;
            const int bursts = 1 + static_cast<int>(rng() % 4);
            for (int b = 0; b < bursts; ++b) {
                text += std::to_string(cycle) +
                        (rng() % 3 == 0 ? " WR\n" : " RD\n");
                cycle += 4 + rng() % 4;
            }
            text += std::to_string(cycle) + " PRE\n";
            cycle += 9 + rng() % 8;
            emitted += 2 + bursts;
        } else if (kind < 12) {
            text += std::to_string(cycle) + " REF\n";
            cycle += 40 + rng() % 20;
            ++emitted;
        } else {
            const int run = 4 + static_cast<int>(rng() % 12);
            for (int k = 0; k < run; ++k) {
                text += std::to_string(cycle) + " PDN\n";
                ++cycle;
            }
            cycle += 1 + rng() % 10;
            emitted += run;
        }
    }
    return text;
}

bool
bitIdentical(const PatternPower& a, const PatternPower& b)
{
    return std::memcmp(&a.externalCurrent, &b.externalCurrent,
                       sizeof(double)) == 0 &&
           a.power == b.power && a.loopTime == b.loopTime &&
           a.bitsPerLoop == b.bitsPerLoop &&
           a.energyPerBit == b.energyPerBit &&
           a.busUtilization == b.busUtilization;
}

int
run(const std::string& baseline_path)
{
    std::printf("== trace throughput: dense replay vs streaming "
                "(seed %u) ==\n\n",
                kSeed);

    setMetricsEnabled(true);
    const MetricsSnapshot metrics_start = globalMetrics().snapshot();

    DramPowerModel model(preset1GbDdr3(55e-9, 16, 1333));
    const DramDescription& desc = model.description();

    const std::string text = makeBenchTrace(kCommands);
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "vdram_bench_trace.trace")
            .string();
    {
        std::ofstream out(path, std::ios::trunc | std::ios::binary);
        out << text;
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
    }
    const double megabytes =
        static_cast<double>(text.size()) / (1024.0 * 1024.0);

    // Dense reference (counts the parse, as the streaming timings do).
    auto start = std::chrono::steady_clock::now();
    Result<Pattern> dense = parseCommandTrace(text);
    if (!dense.ok()) {
        std::fprintf(stderr, "dense parse failed: %s\n",
                     dense.error().toString().c_str());
        return 1;
    }
    const PatternPower reference = model.evaluate(dense.value());
    const double dense_seconds = secondsSince(start);

    // Render the dense pattern back to text; it must parse back to the
    // identical loop.
    start = std::chrono::steady_clock::now();
    const std::string rendered = writeCommandTrace(dense.value());
    const double render_seconds = secondsSince(start);
    Result<Pattern> reparsed = parseCommandTrace(rendered);
    const bool render_identical =
        reparsed.ok() && reparsed.value().loop == dense.value().loop;

    // Serial streaming.
    start = std::chrono::steady_clock::now();
    Result<TraceStreamResult> serial =
        evaluateTraceStreamFile(path, TraceStreamOptions{});
    if (!serial.ok()) {
        std::fprintf(stderr, "streaming failed: %s\n",
                     serial.error().toString().c_str());
        return 1;
    }
    const PatternPower serial_power = computePatternPowerFromStats(
        serial.value().stats, model.operations(), desc.elec,
        desc.timing.tCkSeconds, desc.spec);
    const double serial_seconds = secondsSince(start);

    // Parallel streaming, all cores.
    TraceCampaignOptions campaign_options;
    campaign_options.jobs = 0;
    start = std::chrono::steady_clock::now();
    Result<TraceCampaignResult> parallel =
        evaluateTraceFileParallel(path, campaign_options);
    if (!parallel.ok()) {
        std::fprintf(stderr, "parallel streaming failed: %s\n",
                     parallel.error().toString().c_str());
        return 1;
    }
    const PatternPower parallel_power = computePatternPowerFromStats(
        parallel.value().trace.stats, model.operations(), desc.elec,
        desc.timing.tCkSeconds, desc.spec);
    const double parallel_seconds = secondsSince(start);

    std::filesystem::remove(path);

    const long long commands = serial.value().commands;
    const double serial_rate =
        serial_seconds > 0 ? commands / serial_seconds : 0;
    const double parallel_rate =
        parallel_seconds > 0 ? commands / parallel_seconds : 0;
    const double dense_rate =
        dense_seconds > 0 ? commands / dense_seconds : 0;
    const double render_rate =
        render_seconds > 0 ? commands / render_seconds : 0;
    const bool render_ok = render_rate >= kMinRenderToSerial * serial_rate;
    const bool serial_identical = bitIdentical(reference, serial_power);
    const bool parallel_identical =
        bitIdentical(reference, parallel_power);

    std::printf("commands:             %lld (%.1f MiB, %lld cycles)\n",
                commands, megabytes, serial.value().cycles);
    std::printf("dense replay:         %.0f commands/s\n", dense_rate);
    std::printf("serial streaming:     %.0f commands/s (%.1f MiB/s)\n",
                serial_rate,
                serial_seconds > 0 ? megabytes / serial_seconds : 0);
    std::printf("parallel streaming:   %.0f commands/s (%d slices)\n",
                parallel_rate, parallel.value().slices);
    std::printf("render:               %.0f commands/s (%.2fx serial)\n\n",
                render_rate, serial_rate > 0 ? render_rate / serial_rate : 0);
    std::printf("shape: serial streaming bit-identical to dense: %s\n",
                serial_identical ? "PASS" : "FAIL");
    std::printf("shape: parallel bit-identical to dense: %s\n",
                parallel_identical ? "PASS" : "FAIL");
    std::printf("shape: rendered trace parses back to the dense loop: %s\n",
                render_identical ? "PASS" : "FAIL");
    std::printf("gate: render at least %.2fx serial streaming: %s\n",
                kMinRenderToSerial, render_ok ? "PASS" : "FAIL");

    bool baseline_ok = true;
    double baseline_rate = 0;
    if (!baseline_path.empty()) {
        std::FILE* in = std::fopen(baseline_path.c_str(), "r");
        if (!in) {
            std::fprintf(stderr, "cannot open baseline '%s'\n",
                         baseline_path.c_str());
            return 1;
        }
        std::string baseline_text;
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, in)) > 0)
            baseline_text.append(buf, n);
        std::fclose(in);
        if (!readJsonNumber(baseline_text, "serialCommandsPerSecond",
                            &baseline_rate)) {
            std::fprintf(stderr,
                         "baseline '%s' has no "
                         "\"serialCommandsPerSecond\" field\n",
                         baseline_path.c_str());
            return 1;
        }
        baseline_ok = serial_rate >= kBaselineTolerance * baseline_rate;
        std::printf("gate: serial throughput within 20%% of baseline "
                    "%.0f commands/s: %s\n",
                    baseline_rate, baseline_ok ? "PASS" : "FAIL");
    }

    JsonWriter json;
    json.beginObject();
    json.key("benchmark").value("trace_streaming");
    json.key("commands").value(commands);
    json.key("cycles").value(serial.value().cycles);
    json.key("traceMebibytes").value(megabytes);
    json.key("denseCommandsPerSecond").value(dense_rate);
    json.key("serialCommandsPerSecond").value(serial_rate);
    json.key("parallelCommandsPerSecond").value(parallel_rate);
    json.key("renderCommandsPerSecond").value(render_rate);
    json.key("parallelSlices").value(parallel.value().slices);
    json.key("serialIdenticalToDense").value(serial_identical);
    json.key("parallelIdenticalToDense").value(parallel_identical);
    json.key("renderedIdenticalToDense").value(render_identical);
    if (!baseline_path.empty())
        json.key("baselineSerialCommandsPerSecond").value(baseline_rate);
    json.key("metrics").rawValue(
        globalMetrics().snapshot().diffSince(metrics_start).renderJson());
    json.endObject();
    std::FILE* out = std::fopen("BENCH_trace.json", "w");
    if (out) {
        std::fprintf(out, "%s\n", json.str().c_str());
        std::fclose(out);
        std::printf("\nwrote BENCH_trace.json\n");
    } else {
        std::fprintf(stderr, "could not write BENCH_trace.json\n");
        return 1;
    }

    return serial_identical && parallel_identical && render_identical &&
                   render_ok && baseline_ok
        ? 0
        : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string baseline;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--baseline=", 11) == 0)
            baseline = argv[i] + 11;
    }
    return run(baseline);
}
