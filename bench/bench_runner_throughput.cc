/**
 * @file
 * Batch-runner throughput benchmark: the same Monte-Carlo campaign run
 * serially and with a worker pool. Emits BENCH_runner.json with the
 * variants/sec of both runs so CI can track the parallel speedup, and
 * checks that the parallel aggregate is bit-identical to the serial one
 * (the runner's ordering guarantee).
 *
 * The >=2x speedup gate only applies on machines with at least four
 * hardware threads; below that the gate is reported as skipped, not
 * failed. A miss exits non-zero, unless --baseline=PATH names a
 * recorded miss (bench/BENCH_runner_baseline.json) and the run stays
 * within 20 % of its speedup: the target is never lowered, the miss is
 * written down.
 */
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "presets/presets.h"
#include "runner/campaign.h"
#include "util/json.h"
#include "util/metrics.h"

using namespace vdram;

namespace {

constexpr int kSamples = 4000;
constexpr int kParallelJobs = 4;
constexpr double kSpeedupTarget = 2.0;
/** A run may be at most 20 % slower than a recorded miss. */
constexpr double kBaselineTolerance = 0.8;

Result<MonteCarloCampaign>
runOnce(const DramDescription& nominal, int jobs)
{
    RunnerOptions options;
    options.jobs = jobs;
    return runMonteCarloCampaign(
        nominal, {IddMeasure::Idd0, IddMeasure::Idd4R}, kSamples, {}, 7,
        options);
}

/** The "speedup" field of a one-object JSON baseline file. */
bool
readBaselineSpeedup(const std::string& path, double* out)
{
    std::FILE* in = std::fopen(path.c_str(), "r");
    if (!in)
        return false;
    std::string text;
    char chunk[4096];
    size_t got;
    while ((got = std::fread(chunk, 1, sizeof chunk, in)) > 0)
        text.append(chunk, got);
    std::fclose(in);
    const std::string needle = "\"speedup\":";
    const size_t pos = text.find(needle);
    if (pos == std::string::npos)
        return false;
    *out = std::strtod(text.c_str() + pos + needle.size(), nullptr);
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string baseline_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--baseline=", 0) == 0) {
            baseline_path = arg.substr(11);
        } else {
            std::fprintf(stderr, "usage: %s [--baseline=PATH]\n",
                         argv[0]);
            return 2;
        }
    }
    double baseline_speedup = 0;
    if (!baseline_path.empty() &&
        !readBaselineSpeedup(baseline_path, &baseline_speedup)) {
        std::fprintf(stderr, "baseline '%s' is missing or has no "
                             "\"speedup\" field\n",
                     baseline_path.c_str());
        return 2;
    }

    std::printf("== batch runner throughput (serial vs --jobs=%d) ==\n\n",
                kParallelJobs);

    DramDescription nominal = preset1GbDdr3(55e-9, 16, 1333);
    setMetricsEnabled(true);
    const MetricsSnapshot metrics_start = globalMetrics().snapshot();
    Result<MonteCarloCampaign> serial = runOnce(nominal, 1);
    Result<MonteCarloCampaign> parallel = runOnce(nominal, kParallelJobs);
    if (!serial.ok() || !parallel.ok()) {
        std::fprintf(stderr, "campaign failed: %s\n",
                     (!serial.ok() ? serial : parallel)
                         .error()
                         .toString()
                         .c_str());
        return 1;
    }

    const double serial_rate = serial.value().report.tasksPerSecond;
    const double parallel_rate = parallel.value().report.tasksPerSecond;
    const double speedup =
        serial_rate > 0 ? parallel_rate / serial_rate : 0;
    const unsigned cores = std::thread::hardware_concurrency();

    std::printf("samples:            %d\n", kSamples);
    std::printf("serial:             %.0f variants/s\n", serial_rate);
    std::printf("--jobs=%d:           %.0f variants/s\n", kParallelJobs,
                parallel_rate);
    std::printf("speedup:            %.2fx (on %u hardware threads)\n\n",
                speedup, cores);

    bool identical = true;
    for (size_t m = 0; m < serial.value().distributions.size(); ++m) {
        const IddDistribution& a = serial.value().distributions[m];
        const IddDistribution& b = parallel.value().distributions[m];
        identical &= a.mean == b.mean && a.minimum == b.minimum &&
                     a.maximum == b.maximum && a.p05 == b.p05 &&
                     a.p95 == b.p95;
    }
    std::printf("shape: parallel aggregate bit-identical to serial: %s\n",
                identical ? "PASS" : "FAIL");

    const bool speedup_checked = cores >= 4;
    const bool target_met = speedup >= kSpeedupTarget;
    bool gate_ok = true;
    if (speedup_checked) {
        std::printf("perf: --jobs=%d at least 2x serial variants/s: %s\n",
                    kParallelJobs, target_met ? "PASS" : "FAIL");
        if (!target_met && !baseline_path.empty()) {
            gate_ok = speedup >= kBaselineTolerance * baseline_speedup;
            std::printf("gate: within 20%% of the recorded miss %.2fx: "
                        "%s\n",
                        baseline_speedup, gate_ok ? "PASS" : "FAIL");
        } else {
            gate_ok = target_met;
        }
    } else {
        std::printf("perf: speedup gate skipped (%u hardware threads "
                    "< 4)\n", cores);
    }

    JsonWriter json;
    json.beginObject();
    json.key("benchmark").value("runner_throughput");
    json.key("samples").value(kSamples);
    json.key("hardwareThreads").value(static_cast<long long>(cores));
    json.key("serialVariantsPerSecond").value(serial_rate);
    json.key("parallelJobs").value(kParallelJobs);
    json.key("parallelVariantsPerSecond").value(parallel_rate);
    json.key("speedup").value(speedup);
    json.key("aggregateIdentical").value(identical);
    json.key("speedupGateChecked").value(speedup_checked);
    json.key("speedupTarget").value(kSpeedupTarget);
    json.key("speedupTargetMet").value(target_met);
    if (!baseline_path.empty())
        json.key("baselineSpeedup").value(baseline_speedup);
    json.key("metrics").rawValue(
        globalMetrics().snapshot().diffSince(metrics_start).renderJson());
    json.endObject();
    std::FILE* out = std::fopen("BENCH_runner.json", "w");
    if (out) {
        std::fprintf(out, "%s\n", json.str().c_str());
        std::fclose(out);
        std::printf("\nwrote BENCH_runner.json\n");
    } else {
        std::fprintf(stderr, "could not write BENCH_runner.json\n");
    }

    return identical && gate_ok ? 0 : 1;
}
