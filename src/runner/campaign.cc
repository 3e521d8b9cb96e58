#include "runner/campaign.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "core/model.h"
#include "tech/generations.h"
#include "util/numerics.h"
#include "util/strings.h"

namespace vdram {

FastPathMode
fastPathMode()
{
    const char* env = std::getenv("VDRAM_FASTPATH");
    if (env == nullptr)
        return FastPathMode::On;
    if (std::strcmp(env, "off") == 0)
        return FastPathMode::Off;
    if (std::strcmp(env, "verify") == 0)
        return FastPathMode::Verify;
    return FastPathMode::On;
}

namespace {

/** A resumed payload that does not carry the campaign's width of
 *  doubles. */
Error
payloadWidthError(long long index, const std::string& checkpointPath)
{
    return Error{strformat("task %lld has a corrupt checkpoint payload",
                           index),
                 0, 0, checkpointPath, "E-CKPT-PAYLOAD"};
}

} // namespace

Result<MonteCarloCampaign>
runMonteCarloCampaign(const DramDescription& nominal,
                      const std::vector<IddMeasure>& measures,
                      int samples, const VariationModel& variation,
                      std::uint64_t seed, const RunnerOptions& options,
                      DiagnosticEngine* diags)
{
    if (samples <= 0) {
        return Error{"Monte-Carlo needs a positive sample count", 0, 0,
                     "", "E-MC-SAMPLES"};
    }
    Result<DramPowerModel> nominal_model = DramPowerModel::create(nominal);
    if (!nominal_model.ok()) {
        Error error = nominal_model.error();
        error.message =
            "Monte-Carlo nominal description is invalid: " + error.message;
        return error;
    }

    std::vector<TaskSpec> manifest;
    manifest.reserve(samples);
    for (int s = 0; s < samples; ++s) {
        manifest.push_back(TaskSpec{strformat("sample-%d", s),
                                    monteCarloSampleSeed(seed, s)});
    }

    const FastPathMode fast_path = fastPathMode();
    WorkerEvaluators evaluators(nominal_model.value(), options.jobs);
    BatchRunner<std::vector<double>> runner(
        std::move(manifest),
        [&](const TaskContext& context) {
            return evaluateFastOrSlow(
                fast_path, context.index,
                [&] {
                    return evaluateMonteCarloSampleFast(
                        evaluators.forWorker(context.worker), variation,
                        measures, context.seed);
                },
                [&] {
                    return evaluateMonteCarloSample(nominal, variation,
                                                    measures, context.seed);
                });
        },
        options);

    Result<RunReport> report = runner.run(diags);
    if (!report.ok())
        return report.error();

    std::vector<std::vector<double>> values(measures.size());
    for (const TaskResult& task : runner.results()) {
        if (!task.ok())
            continue;
        const std::vector<double>& sample = runner.payloads()[task.index];
        if (sample.size() != measures.size())
            return payloadWidthError(task.index, options.checkpointPath);
        for (size_t m = 0; m < measures.size(); ++m)
            values[m].push_back(sample[m]);
    }

    MonteCarloCampaign campaign;
    campaign.report = report.value();
    campaign.distributions =
        summarizeIddDistributions(nominal_model.value(), measures, values);
    return campaign;
}

Result<SensitivityCampaign>
runSensitivityCampaign(const DramDescription& base, double variation,
                       SweepMode mode, const RunnerOptions& options,
                       DiagnosticEngine* diags)
{
    Result<DramPowerModel> base_model = DramPowerModel::create(base);
    if (!base_model.ok()) {
        Error error = base_model.error();
        error.message = "sensitivity base description is invalid: " +
                        error.message;
        return error;
    }
    const double basePower =
        base_model.value()
            .evaluate(makeParetoPattern(base.spec, base.timing))
            .power;

    const std::vector<SweepParam> params = sweepParameters(mode);
    std::vector<TaskSpec> manifest;
    manifest.reserve(params.size());
    for (size_t i = 0; i < params.size(); ++i) {
        manifest.push_back(
            TaskSpec{params[i].name, deriveStreamSeed(0x5E45, i)});
    }

    const FastPathMode fast_path = fastPathMode();
    WorkerEvaluators evaluators(base_model.value(), options.jobs);
    // Both paths evaluate + before -, so a perturbation that breaks the
    // description surfaces the same (first) error either way.
    auto pairOf = [&](auto sideOf) -> Result<std::vector<double>> {
        Result<double> plus = sideOf(1.0 + variation);
        if (!plus.ok())
            return plus.error();
        Result<double> minus = sideOf(1.0 - variation);
        if (!minus.ok())
            return minus.error();
        return std::vector<double>{plus.value() / basePower - 1.0,
                                   minus.value() / basePower - 1.0};
    };
    BatchRunner<std::vector<double>> runner(
        std::move(manifest),
        [&](const TaskContext& context) {
            const SweepParam& param = params[context.index];
            return evaluateFastOrSlow(
                fast_path, context.index,
                [&] {
                    VariantEvaluator& evaluator =
                        evaluators.forWorker(context.worker);
                    return pairOf([&](double factor) -> Result<double> {
                        Status status = evaluator.applyPerturbation(
                            [&](DramDescription& d) {
                                param.apply(d, factor);
                            },
                            param.dirty);
                        if (!status.ok())
                            return status.error();
                        return evaluator.paretoPower();
                    });
                },
                [&] {
                    return pairOf([&](double factor) {
                        DramDescription variant = base;
                        param.apply(variant, factor);
                        return paretoPatternPower(variant);
                    });
                });
        },
        options);

    Result<RunReport> report = runner.run(diags);
    if (!report.ok())
        return report.error();

    SensitivityCampaign campaign;
    campaign.report = report.value();
    for (const TaskResult& task : runner.results()) {
        if (!task.ok())
            continue;
        const std::vector<double>& pair = runner.payloads()[task.index];
        if (pair.size() != 2)
            return payloadWidthError(task.index, options.checkpointPath);
        SensitivityResult r;
        r.name = task.spec.name;
        r.plus = pair[0];
        r.minus = pair[1];
        campaign.results.push_back(std::move(r));
    }
    // stable_sort: parameters with equal spread keep manifest order, so
    // the rendered Pareto is identical across runs and job counts.
    std::stable_sort(
        campaign.results.begin(), campaign.results.end(),
        [](const SensitivityResult& a, const SensitivityResult& b) {
            return a.spread() > b.spread();
        });
    return campaign;
}

Result<TrendsCampaign>
runTrendsCampaign(const BuilderOptions& builderOptions,
                  const RunnerOptions& options, DiagnosticEngine* diags)
{
    const std::vector<GenerationInfo> ladder = generationLadder();
    std::vector<TaskSpec> manifest;
    manifest.reserve(ladder.size());
    for (size_t i = 0; i < ladder.size(); ++i) {
        manifest.push_back(TaskSpec{ladder[i].label(),
                                    deriveStreamSeed(0x72E7D, i)});
    }

    // Fast-path bypass (see docs/performance.md): every ladder point is
    // a different description built from scratch, so there is no nominal
    // model to delta against. The campaign still gains from create()'s
    // single validation pass.
    BatchRunner<std::vector<double>> runner(
        std::move(manifest),
        [&ladder, &builderOptions](const TaskContext& context)
            -> Result<std::vector<double>> {
            const GenerationInfo& gen = ladder[context.index];
            DramDescription desc =
                buildCommodityDescription(gen, builderOptions);
            Result<DramPowerModel> model =
                DramPowerModel::create(std::move(desc));
            if (!model.ok())
                return model.error();
            const DramPowerModel& m = model.value();
            return std::vector<double>{
                m.area().dieArea * 1e6, m.energyPerBit(),
                m.idd(IddMeasure::Idd0), m.idd(IddMeasure::Idd4R),
                m.area().arrayEfficiency};
        },
        options);

    Result<RunReport> report = runner.run(diags);
    if (!report.ok())
        return report.error();

    TrendsCampaign campaign;
    campaign.report = report.value();
    for (const TaskResult& task : runner.results()) {
        if (!task.ok())
            continue;
        const std::vector<double>& v = runner.payloads()[task.index];
        if (v.size() != 5)
            return payloadWidthError(task.index, options.checkpointPath);
        const GenerationInfo& gen = ladder[task.index];
        TrendPoint p;
        p.generation = gen;
        p.vdd = gen.vdd;
        p.vint = gen.vint;
        p.vpp = gen.vpp;
        p.vbl = gen.vbl;
        p.dataRatePerPin = gen.dataRatePerPin;
        p.tRcSeconds = gen.tRcSeconds;
        p.dieAreaMm2 = v[0];
        p.energyPerBit = v[1];
        p.idd0 = v[2];
        p.idd4r = v[3];
        p.arrayEfficiency = v[4];
        campaign.points.push_back(std::move(p));
    }
    return campaign;
}

} // namespace vdram
