/**
 * @file
 * E14 — model performance benchmark and fast-path throughput gate.
 *
 * Default mode runs the same single-threaded Monte-Carlo seed stream
 * through the historical full-rebuild path (copy + validate twice +
 * build, as the code before the delta-evaluation refactor did) and
 * through the delta-evaluation fast path (VariantEvaluator), checks the
 * per-sample results are bit-identical, and writes BENCH_model.json with
 * the samples/sec of both paths. With --baseline=PATH the run fails if
 * the fast-path speedup regressed more than 20 % below the recorded
 * baseline. --gbench runs the original google-benchmark microbenchmarks
 * instead (construction, evaluation, IDD loops, DSL, controller).
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/model.h"
#include "core/montecarlo.h"
#include "core/variant_evaluator.h"
#include "dsl/parser.h"
#include "dsl/writer.h"
#include "presets/presets.h"
#include "protocol/bank_fsm.h"
#include "protocol/controller.h"
#include "runner/campaign.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/simd.h"

namespace {

using namespace vdram;

void
BM_ModelConstruction(benchmark::State& state)
{
    DramDescription desc = preset1GbDdr3(55e-9, 16, 1333);
    for (auto _ : state) {
        DramPowerModel model(desc);
        benchmark::DoNotOptimize(model.operations());
    }
}
BENCHMARK(BM_ModelConstruction);

void
BM_PatternEvaluation(benchmark::State& state)
{
    DramPowerModel model(preset1GbDdr3(55e-9, 16, 1333));
    Pattern pattern = model.description().pattern;
    for (auto _ : state) {
        PatternPower power = model.evaluate(pattern);
        benchmark::DoNotOptimize(power.power);
    }
}
BENCHMARK(BM_PatternEvaluation);

void
BM_FullIddTable(benchmark::State& state)
{
    DramPowerModel model(preset1GbDdr3(55e-9, 16, 1333));
    for (auto _ : state) {
        double sum = 0;
        for (IddMeasure m : {IddMeasure::Idd0, IddMeasure::Idd2N,
                             IddMeasure::Idd4R, IddMeasure::Idd4W,
                             IddMeasure::Idd5, IddMeasure::Idd7}) {
            sum += model.idd(m);
        }
        benchmark::DoNotOptimize(sum);
    }
}
BENCHMARK(BM_FullIddTable);

void
BM_MonteCarloSampleFullRebuild(benchmark::State& state)
{
    DramDescription nominal = preset1GbDdr3(55e-9, 16, 1333);
    const std::vector<IddMeasure> measures = {IddMeasure::Idd0,
                                              IddMeasure::Idd4R};
    long long s = 0;
    for (auto _ : state) {
        auto values = evaluateMonteCarloSample(
            nominal, {}, measures, monteCarloSampleSeed(7, s++));
        benchmark::DoNotOptimize(values.ok());
    }
}
BENCHMARK(BM_MonteCarloSampleFullRebuild);

void
BM_MonteCarloSampleFastPath(benchmark::State& state)
{
    Result<VariantEvaluator> evaluator =
        VariantEvaluator::create(preset1GbDdr3(55e-9, 16, 1333));
    const std::vector<IddMeasure> measures = {IddMeasure::Idd0,
                                              IddMeasure::Idd4R};
    long long s = 0;
    for (auto _ : state) {
        auto values = evaluateMonteCarloSampleFast(
            evaluator.value(), {}, measures, monteCarloSampleSeed(7, s++));
        benchmark::DoNotOptimize(values.ok());
    }
}
BENCHMARK(BM_MonteCarloSampleFastPath);

void
BM_BuildCommodityDescription(benchmark::State& state)
{
    const GenerationInfo& gen = generationAt(55e-9);
    for (auto _ : state) {
        DramDescription desc = buildCommodityDescription(gen, {});
        benchmark::DoNotOptimize(desc.signals.size());
    }
}
BENCHMARK(BM_BuildCommodityDescription);

void
BM_SensitivitySweepGrouped(benchmark::State& state)
{
    DramDescription desc = preset1GbDdr3(55e-9, 16, 1333);
    for (auto _ : state) {
        auto campaign = runSensitivityCampaign(
            desc, 0.20, SweepMode::Grouped, RunnerOptions{});
        benchmark::DoNotOptimize(campaign.ok());
    }
}
BENCHMARK(BM_SensitivitySweepGrouped);

void
BM_DslParse(benchmark::State& state)
{
    std::string text = writeDescription(preset1GbDdr3(55e-9, 16, 1333));
    for (auto _ : state) {
        auto result = parseDescription(text);
        benchmark::DoNotOptimize(result.ok());
    }
}
BENCHMARK(BM_DslParse);

void
BM_DslWrite(benchmark::State& state)
{
    DramDescription desc = preset1GbDdr3(55e-9, 16, 1333);
    for (auto _ : state) {
        std::string text = writeDescription(desc);
        benchmark::DoNotOptimize(text.size());
    }
}
BENCHMARK(BM_DslWrite);

void
BM_ControllerScheduling(benchmark::State& state)
{
    DramDescription desc = preset1GbDdr3(55e-9, 16, 1333);
    WorkloadParams params;
    params.count = 1000;
    auto accesses = makeLocalityWorkload(desc.spec, params, 0.6);
    for (auto _ : state) {
        CommandScheduler scheduler(desc.spec, desc.timing,
                                   PagePolicy::OpenPage);
        Result<ScheduledStream> stream = scheduler.schedule(accesses);
        benchmark::DoNotOptimize(stream.value().stats.rowHits);
    }
    state.SetItemsProcessed(state.iterations() * params.count);
}
BENCHMARK(BM_ControllerScheduling);

void
BM_PatternCheck(benchmark::State& state)
{
    DramDescription desc = preset1GbDdr3(55e-9, 16, 1333);
    Pattern pattern = desc.pattern;
    for (auto _ : state) {
        PatternCheckResult result =
            checkPattern(pattern, desc.timing, desc.spec.banks());
        benchmark::DoNotOptimize(result.ok());
    }
}
BENCHMARK(BM_PatternCheck);

// ---------------------------------------------------------------------
// Fast-path throughput gate (default mode).

constexpr int kGateSamples = 2000;
constexpr std::uint64_t kGateSeed = 7;
constexpr double kSpeedupTarget = 5.0;
/** A run may be at most 20 % slower than the recorded baseline. */
constexpr double kBaselineTolerance = 0.8;

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

int
runThroughputGate(const std::string& baseline_path)
{
    std::printf("== model throughput: full rebuild vs fast path "
                "(single thread, seed %llu) ==\n\n",
                static_cast<unsigned long long>(kGateSeed));

    // Record the gate's own cache behaviour into the BENCH file. The
    // overhead is a few relaxed atomics per sample, identical for both
    // timed loops, so the speedup ratio the gate checks is unaffected.
    setMetricsEnabled(true);
    const MetricsSnapshot metrics_start = globalMetrics().snapshot();

    DramDescription nominal = preset1GbDdr3(55e-9, 16, 1333);
    const VariationModel variation;
    // The full datasheet characterization: every IDD measure per
    // variant, the workload a Monte-Carlo vendor-spread campaign runs.
    const std::vector<IddMeasure> measures = {
        IddMeasure::Idd0,  IddMeasure::Idd1,  IddMeasure::Idd2N,
        IddMeasure::Idd2P, IddMeasure::Idd3N, IddMeasure::Idd3P,
        IddMeasure::Idd4R, IddMeasure::Idd4W, IddMeasure::Idd5,
        IddMeasure::Idd6,  IddMeasure::Idd7};

    // Sample results stay as raw doubles inside the timed loops; payload
    // encoding is campaign-harness work both paths share and would
    // otherwise drown the model-side difference the gate measures.
    struct SampleOutcome {
        bool ok = false;
        std::vector<double> values;
    };

    // Full-rebuild path: per sample a deep copy, TWO full validation
    // passes and a from-scratch build. The second validation reproduces
    // the pre-fast-path build(), which re-validated what create() had
    // just validated; it still prices that path conservatively, without
    // its map-based charge accumulators.
    std::vector<SampleOutcome> full_outcomes(kGateSamples);
    auto start = std::chrono::steady_clock::now();
    for (int s = 0; s < kGateSamples; ++s) {
        DramDescription variant = sampleVariant(
            nominal, variation, monteCarloSampleSeed(kGateSeed, s));
        Status build_validation = validateDescription(variant);
        Result<DramPowerModel> model =
            DramPowerModel::create(std::move(variant));
        if (!build_validation.ok() || !model.ok())
            continue;
        SampleOutcome& out = full_outcomes[s];
        out.ok = true;
        out.values.reserve(measures.size());
        for (IddMeasure measure : measures)
            out.values.push_back(model.value().idd(measure));
    }
    const double full_seconds = secondsSince(start);

    Result<VariantEvaluator> evaluator = VariantEvaluator::create(nominal);
    if (!evaluator.ok()) {
        std::fprintf(stderr, "nominal description invalid: %s\n",
                     evaluator.error().toString().c_str());
        return 1;
    }
    // Fast path in per-worker batches: one evaluateMonteCarloBatchFast()
    // call per kFastBatch seeds, each sample's measure set evaluated as
    // the lanes of one SIMD dot-product pass.
    constexpr int kFastBatch = 64;
    std::vector<SampleOutcome> fast_outcomes(kGateSamples);
    std::vector<std::uint64_t> seeds(kFastBatch);
    start = std::chrono::steady_clock::now();
    for (int s = 0; s < kGateSamples; s += kFastBatch) {
        const int batch =
            std::min(kFastBatch, kGateSamples - s);
        for (int j = 0; j < batch; ++j)
            seeds[static_cast<size_t>(j)] =
                monteCarloSampleSeed(kGateSeed, s + j);
        auto batch_values = evaluateMonteCarloBatchFast(
            evaluator.value(), variation, measures, seeds.data(),
            static_cast<size_t>(batch));
        for (int j = 0; j < batch; ++j) {
            auto& values = batch_values[static_cast<size_t>(j)];
            if (!values.ok())
                continue;
            fast_outcomes[s + j].ok = true;
            fast_outcomes[s + j].values = std::move(values.value());
        }
    }
    const double fast_seconds = secondsSince(start);

    // Bit-for-bit equivalence: byte-compare the raw doubles (the same
    // identity the campaign payloads carry, without the formatting).
    long long mismatches = 0;
    for (int s = 0; s < kGateSamples; ++s) {
        const SampleOutcome& a = full_outcomes[s];
        const SampleOutcome& b = fast_outcomes[s];
        bool same = a.ok == b.ok && a.values.size() == b.values.size() &&
                    std::memcmp(a.values.data(), b.values.data(),
                                a.values.size() * sizeof(double)) == 0;
        if (!same) {
            if (mismatches == 0) {
                std::fprintf(
                    stderr, "sample %d differs:\n  full: %s\n  fast: %s\n",
                    s,
                    a.ok ? encodeDoublePayload(a.values).c_str()
                         : "error",
                    b.ok ? encodeDoublePayload(b.values).c_str()
                         : "error");
            }
            ++mismatches;
        }
    }
    const bool equivalent = mismatches == 0;

    const double full_rate =
        full_seconds > 0 ? kGateSamples / full_seconds : 0;
    const double fast_rate =
        fast_seconds > 0 ? kGateSamples / fast_seconds : 0;
    const double speedup = full_rate > 0 ? fast_rate / full_rate : 0;

    std::printf("samples:              %d\n", kGateSamples);
    std::printf("full rebuild:         %.0f samples/s\n", full_rate);
    std::printf("fast path:            %.0f samples/s\n", fast_rate);
    std::printf("speedup:              %.2fx\n\n", speedup);
    std::printf("shape: fast path bit-identical to full rebuild: %s\n",
                equivalent ? "PASS" : "FAIL");
    std::printf("perf: fast path at least %.0fx full rebuild: %s\n",
                kSpeedupTarget,
                speedup >= kSpeedupTarget ? "PASS" : "FAIL");

    bool baseline_ok = true;
    double baseline_speedup = 0;
    if (!baseline_path.empty()) {
        std::FILE* in = std::fopen(baseline_path.c_str(), "r");
        if (!in) {
            std::fprintf(stderr, "cannot open baseline '%s'\n",
                         baseline_path.c_str());
            return 1;
        }
        std::string text;
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, in)) > 0)
            text.append(buf, n);
        std::fclose(in);
        if (!readJsonNumber(text, "speedup", &baseline_speedup)) {
            std::fprintf(stderr, "baseline '%s' has no \"speedup\" field\n",
                         baseline_path.c_str());
            return 1;
        }
        baseline_ok = speedup >= kBaselineTolerance * baseline_speedup;
        std::printf("gate: speedup within 20%% of baseline %.2fx: %s\n",
                    baseline_speedup, baseline_ok ? "PASS" : "FAIL");
    }

    JsonWriter json;
    json.beginObject();
    json.key("benchmark").value("model_fast_path");
    json.key("samples").value(kGateSamples);
    json.key("measuresPerSample")
        .value(static_cast<long long>(measures.size()));
    json.key("fullRebuildSamplesPerSecond").value(full_rate);
    json.key("fastPathSamplesPerSecond").value(fast_rate);
    json.key("speedup").value(speedup);
    json.key("equivalent").value(equivalent);
    json.key("simd").value(simdEnabled());
    json.key("speedupTarget").value(kSpeedupTarget);
    json.key("speedupTargetMet").value(speedup >= kSpeedupTarget);
    if (!baseline_path.empty())
        json.key("baselineSpeedup").value(baseline_speedup);
    json.key("metrics").rawValue(
        globalMetrics().snapshot().diffSince(metrics_start).renderJson());
    json.endObject();
    std::FILE* out = std::fopen("BENCH_model.json", "w");
    if (out) {
        std::fprintf(out, "%s\n", json.str().c_str());
        std::fclose(out);
        std::printf("\nwrote BENCH_model.json\n");
    } else {
        std::fprintf(stderr, "could not write BENCH_model.json\n");
        return 1;
    }

    return equivalent && baseline_ok ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    bool gbench = false;
    std::string baseline;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--gbench") == 0) {
            gbench = true;
        } else if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
            baseline = argv[i] + 11;
        }
    }
    if (gbench) {
        // Strip our flags; google-benchmark rejects unknown arguments.
        int bench_argc = 1;
        benchmark::Initialize(&bench_argc, argv);
        benchmark::RunSpecifiedBenchmarks();
        return 0;
    }
    return runThroughputGate(baseline);
}
