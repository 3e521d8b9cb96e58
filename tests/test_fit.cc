/**
 * @file
 * Fitting-engine tests: the differential safety net (perturb known
 * parameters, synthesize targets from the perturbed model, assert the
 * search recovers the currents within tolerance), objective
 * monotonicity, fast-path/slow-path trajectory identity, checkpoint
 * resume equivalence, the committed golden vendor reports and the
 * calibrated vendor presets.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/model.h"
#include "core/sensitivity.h"
#include "fit/fit_engine.h"
#include "fit/target_spec.h"
#include "presets/presets.h"
#include "protocol/idd.h"
#include "util/diag.h"

namespace vdram {
namespace {

std::string
goldenPath(const std::string& name)
{
    return std::string(VDRAM_GOLDEN_DIR) + "/" + name;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Apply a multiplicative factor to one detailed-sweep parameter. */
void
applyByName(DramDescription& desc, const std::string& name, double factor)
{
    for (const SweepParam& param : fitParameterVocabulary()) {
        if (param.name == name) {
            param.apply(desc, factor);
            return;
        }
    }
    FAIL() << "unknown fit parameter " << name;
}

/** The IDD current of @p desc for @p measure, in amperes. */
double
iddOf(const DramDescription& desc, IddMeasure measure)
{
    Result<DramPowerModel> model = DramPowerModel::create(desc);
    EXPECT_TRUE(model.ok());
    return model.ok() ? model.value().idd(measure) : 0.0;
}

/** RAII VDRAM_FASTPATH override restored on scope exit. */
struct FastPathEnv {
    explicit FastPathEnv(const char* mode)
    {
        const char* old = std::getenv("VDRAM_FASTPATH");
        had_ = old != nullptr;
        if (had_)
            old_ = old;
        ::setenv("VDRAM_FASTPATH", mode, 1);
    }
    ~FastPathEnv()
    {
        if (had_)
            ::setenv("VDRAM_FASTPATH", old_.c_str(), 1);
        else
            ::unsetenv("VDRAM_FASTPATH");
    }
    bool had_ = false;
    std::string old_;
};

// ---------------------------------------------------------------------
// Vocabulary
// ---------------------------------------------------------------------

TEST(FitVocabularyTest, NamesAreUniqueAndQueryable)
{
    std::vector<std::string> names = fitParameterNames();
    ASSERT_GE(names.size(), 39u); // at least the Table I registry
    std::set<std::string> unique(names.begin(), names.end());
    EXPECT_EQ(unique.size(), names.size());
    for (const std::string& name : names)
        EXPECT_TRUE(isFitParameterName(name)) << name;
    EXPECT_FALSE(isFitParameterName("no such knob"));
}

TEST(FitVocabularyTest, DefaultParametersAreInTheVocabulary)
{
    for (const std::string& name : defaultFitParameters())
        EXPECT_TRUE(isFitParameterName(name)) << name;
}

// ---------------------------------------------------------------------
// Differential safety net: targets synthesized from a known
// perturbation must be recovered by the search.
// ---------------------------------------------------------------------

/** The known perturbation the differential tests hide and recover. */
struct Perturbation {
    const char* name;
    double factor;
};

const Perturbation kHidden[] = {
    {"Constant current adder", 0.70},
    {"Bitline capacitance", 1.25},
    {"Number of logic gates", 1.20},
};

/** Build the spec whose targets are the IDD currents of the nominal
 *  description with kHidden applied — so a perfect fit exists inside
 *  the bounds by construction. */
FitTargetSpec
differentialSpec(const DramDescription& nominal, double tolerance)
{
    DramDescription truth = nominal;
    for (const Perturbation& p : kHidden)
        applyByName(truth, p.name, p.factor);
    FitTargetSpec spec;
    spec.name = "differential";
    for (IddMeasure measure :
         {IddMeasure::Idd0, IddMeasure::Idd4R, IddMeasure::Idd4W,
          IddMeasure::Idd2N}) {
        FitTarget target;
        target.measure = measure;
        target.amps = iddOf(truth, measure);
        target.tolerance = tolerance;
        spec.targets.push_back(target);
    }
    for (const Perturbation& p : kHidden)
        spec.parameters.push_back(p.name);
    return spec;
}

FitOptions
differentialOptions()
{
    FitOptions fit;
    fit.starts = 2;
    fit.seed = 5;
    return fit;
}

TEST(FitDifferentialTest, RecoversSynthesizedTargetsWithinTolerance)
{
    const DramDescription nominal = preset2GbDdr3_55();
    const FitTargetSpec spec = differentialSpec(nominal, 0.02);
    RunnerOptions runner;
    runner.jobs = 2;
    Result<FitResult> fitted =
        runFitCampaign(nominal, spec, differentialOptions(), runner);
    ASSERT_TRUE(fitted.ok()) << fitted.error().toString();
    const FitResult& result = fitted.value();

    EXPECT_TRUE(result.converged);
    ASSERT_EQ(result.residuals.size(), spec.targets.size());
    for (const FitResidual& residual : result.residuals) {
        EXPECT_TRUE(residual.within())
            << iddName(residual.measure) << " residual "
            << residual.residual();
    }
    // The calibrated description must reproduce the fitted currents.
    ASSERT_EQ(result.parameters.size(), result.factors.size());
    for (const FitResidual& residual : result.residuals) {
        EXPECT_NEAR(iddOf(result.calibrated, residual.measure),
                    residual.fittedAmps,
                    1e-12 * residual.fittedAmps);
    }
}

TEST(FitDifferentialTest, ObjectiveIsMonotonicallyNonIncreasingPerStart)
{
    const DramDescription nominal = preset2GbDdr3_55();
    const FitTargetSpec spec = differentialSpec(nominal, 0.02);
    Result<FitResult> fitted =
        runFitCampaign(nominal, spec, differentialOptions(), {});
    ASSERT_TRUE(fitted.ok()) << fitted.error().toString();
    const FitResult& result = fitted.value();

    ASSERT_FALSE(result.history.empty());
    // Within each start the recorded objective is the best-so-far: it
    // must never increase, and strictly decreases on accepted steps
    // after the first.
    for (size_t i = 1; i < result.history.size(); ++i) {
        const FitStep& prev = result.history[i - 1];
        const FitStep& step = result.history[i];
        if (step.start != prev.start)
            continue;
        EXPECT_LE(step.objective, prev.objective)
            << "start " << step.start << " generation "
            << step.generation;
        if (step.accepted) {
            EXPECT_LT(step.objective, prev.objective);
        }
    }
}

TEST(FitDifferentialTest, SlowPathTrajectoryIsBitIdentical)
{
    const DramDescription nominal = preset2GbDdr3_55();
    const FitTargetSpec spec = differentialSpec(nominal, 0.02);
    FitOptions fit = differentialOptions();
    fit.maxGenerations = 16; // enough trajectory, half the cost

    Result<FitResult> fast = runFitCampaign(nominal, spec, fit, {});
    ASSERT_TRUE(fast.ok()) << fast.error().toString();

    FastPathEnv off("off");
    Result<FitResult> slow = runFitCampaign(nominal, spec, fit, {});
    ASSERT_TRUE(slow.ok()) << slow.error().toString();

    // The delta fast path must not change a single accepted step,
    // objective bit or factor anywhere in the trajectory.
    ASSERT_EQ(fast.value().history.size(), slow.value().history.size());
    for (size_t i = 0; i < fast.value().history.size(); ++i) {
        const FitStep& a = fast.value().history[i];
        const FitStep& b = slow.value().history[i];
        EXPECT_EQ(a.accepted, b.accepted) << "step " << i;
        EXPECT_EQ(a.objective, b.objective) << "step " << i;
        EXPECT_EQ(a.step, b.step) << "step " << i;
        ASSERT_EQ(a.factors.size(), b.factors.size());
        for (size_t p = 0; p < a.factors.size(); ++p)
            EXPECT_EQ(a.factors[p], b.factors[p])
                << "step " << i << " param " << p;
    }
    EXPECT_EQ(renderFitReportJson(fast.value(), spec),
              renderFitReportJson(slow.value(), spec));
}

// ---------------------------------------------------------------------
// Checkpoint resume
// ---------------------------------------------------------------------

TEST(FitResumeTest, ResumeFromPartialCheckpointIsByteIdentical)
{
    const DramDescription nominal = preset2GbDdr3_55();
    const FitTargetSpec spec = differentialSpec(nominal, 0.02);
    FitOptions fit = differentialOptions();
    fit.maxGenerations = 12;

    const std::string full = testing::TempDir() + "fit_full.jsonl";
    const std::string partial = testing::TempDir() + "fit_partial.jsonl";
    std::remove(full.c_str());
    std::remove(partial.c_str());

    RunnerOptions ckpt;
    ckpt.checkpointPath = full;
    Result<FitResult> reference =
        runFitCampaign(nominal, spec, fit, ckpt);
    ASSERT_TRUE(reference.ok()) << reference.error().toString();

    // Keep only the first 7 trajectory records — the state a crash
    // after generation 7 leaves behind.
    {
        std::ifstream in(full);
        std::ofstream out(partial, std::ios::trunc);
        std::string line;
        for (int i = 0; i < 7 && std::getline(in, line); ++i)
            out << line << "\n";
    }
    RunnerOptions resume;
    resume.checkpointPath = partial;
    resume.resume = true;
    Result<FitResult> resumed =
        runFitCampaign(nominal, spec, fit, resume);
    ASSERT_TRUE(resumed.ok()) << resumed.error().toString();

    EXPECT_EQ(resumed.value().restoredGenerations, 7);
    EXPECT_LT(resumed.value().evaluations,
              reference.value().evaluations);
    EXPECT_EQ(renderFitReportJson(reference.value(), spec),
              renderFitReportJson(resumed.value(), spec));
    std::remove(full.c_str());
    std::remove(partial.c_str());
}

TEST(FitResumeTest, MismatchedCheckpointIsRejected)
{
    const DramDescription nominal = preset2GbDdr3_55();
    const FitTargetSpec spec = differentialSpec(nominal, 0.02);
    FitOptions fit = differentialOptions();
    fit.maxGenerations = 4;

    const std::string path = testing::TempDir() + "fit_mismatch.jsonl";
    std::remove(path.c_str());
    RunnerOptions ckpt;
    ckpt.checkpointPath = path;
    ASSERT_TRUE(runFitCampaign(nominal, spec, fit, ckpt).ok());

    // Same checkpoint, different search space: the recorded factor
    // vectors no longer match the configuration.
    FitTargetSpec narrowed = spec;
    narrowed.parameters = {"Constant current adder"};
    RunnerOptions resume;
    resume.checkpointPath = path;
    resume.resume = true;
    Result<FitResult> mismatched =
        runFitCampaign(nominal, narrowed, fit, resume);
    ASSERT_FALSE(mismatched.ok());
    EXPECT_EQ(mismatched.error().code, "E-FIT-CKPT");
    std::remove(path.c_str());
}

TEST(FitResumeTest, RaisedStopFlagDrainsToInterruptedResult)
{
    const DramDescription nominal = preset2GbDdr3_55();
    const FitTargetSpec spec = differentialSpec(nominal, 0.02);
    std::atomic<bool> stop{true};
    RunnerOptions runner;
    runner.stopFlag = &stop;
    Result<FitResult> fitted =
        runFitCampaign(nominal, spec, differentialOptions(), runner);
    ASSERT_TRUE(fitted.ok()) << fitted.error().toString();
    EXPECT_TRUE(fitted.value().interrupted);
    EXPECT_FALSE(fitted.value().converged);
}

// ---------------------------------------------------------------------
// Engine validation
// ---------------------------------------------------------------------

TEST(FitEngineTest, RejectsInvalidOptionsSpecAndParameters)
{
    const DramDescription nominal = preset2GbDdr3_55();
    FitTargetSpec spec = differentialSpec(nominal, 0.02);

    FitOptions bad = differentialOptions();
    bad.stepShrink = 1.5;
    Result<FitResult> options = runFitCampaign(nominal, spec, bad, {});
    ASSERT_FALSE(options.ok());
    EXPECT_EQ(options.error().code, "E-FIT-OPTIONS");

    FitTargetSpec empty = spec;
    empty.targets.clear();
    Result<FitResult> none =
        runFitCampaign(nominal, empty, differentialOptions(), {});
    ASSERT_FALSE(none.ok());
    EXPECT_EQ(none.error().code, "E-FIT-EMPTY");

    FitTargetSpec unknown = spec;
    unknown.parameters = {"no such knob"};
    Result<FitResult> param =
        runFitCampaign(nominal, unknown, differentialOptions(), {});
    ASSERT_FALSE(param.ok());
    EXPECT_EQ(param.error().code, "E-FIT-PARAM");
}

// ---------------------------------------------------------------------
// Golden vendor calibrations
// ---------------------------------------------------------------------

/** The committed vendor spec (examples/data/fit_ddr3_vendor_*.json)
 *  and the pinned CLI options that produced the golden reports. */
FitTargetSpec
vendorSpec(const std::string& name, double idd0, double idd4r,
           double idd4w)
{
    DiagnosticEngine diags;
    std::ostringstream json;
    json << "{\"name\": \"" << name << "\", \"tolerance\": 0.05, "
         << "\"targets\": ["
         << "{\"measure\": \"IDD0\", \"ma\": " << idd0 << "}, "
         << "{\"measure\": \"IDD4R\", \"ma\": " << idd4r << "}, "
         << "{\"measure\": \"IDD4W\", \"ma\": " << idd4w << "}]}";
    Result<FitTargetSpec> spec = parseFitTargetSpec(json.str(), diags);
    EXPECT_TRUE(spec.ok());
    return spec.ok() ? spec.value() : FitTargetSpec{};
}

void
checkGoldenVendorFit(const std::string& golden,
                     const FitTargetSpec& spec)
{
    FitOptions fit;
    fit.starts = 2;
    fit.seed = 1;
    RunnerOptions runner;
    runner.jobs = 2;
    Result<FitResult> fitted = runFitCampaign(
        preset1GbDdr3(55e-9, 16, 1333), spec, fit, runner);
    ASSERT_TRUE(fitted.ok()) << fitted.error().toString();
    EXPECT_TRUE(fitted.value().converged);

    const std::string expected = readFile(goldenPath(golden));
    ASSERT_FALSE(expected.empty()) << "missing fixture " << golden;
    // The report is fully deterministic: same seed, byte-identical
    // bytes as the committed `vdram fit --report` artifact.
    EXPECT_EQ(renderFitReportJson(fitted.value(), spec) + "\n",
              expected);
}

TEST(FitGoldenTest, VendorLowReportIsByteIdentical)
{
    checkGoldenVendorFit(
        "fit_ddr3_vendor_low.json",
        vendorSpec("ddr3-1333-x16-vendor-low", 75.0, 167.5, 156.25));
}

TEST(FitGoldenTest, VendorHighReportIsByteIdentical)
{
    checkGoldenVendorFit(
        "fit_ddr3_vendor_high.json",
        vendorSpec("ddr3-1333-x16-vendor-high", 95.0, 212.5, 198.75));
}

/** The baked presets must reproduce the calibrated currents inside
 *  every tolerance band of their vendor spec. */
void
checkCalibratedPreset(const DramDescription& preset,
                      const FitTargetSpec& spec)
{
    for (const FitTarget& target : spec.targets) {
        const double fitted = iddOf(preset, target.measure);
        const double residual = fitted / target.amps - 1.0;
        EXPECT_LE(std::abs(residual), target.tolerance)
            << iddName(target.measure) << " residual " << residual;
    }
}

TEST(FitGoldenTest, CalibratedVendorPresetsStayInsideTheBands)
{
    checkCalibratedPreset(
        presetDdr3VendorLow(),
        vendorSpec("ddr3-1333-x16-vendor-low", 75.0, 167.5, 156.25));
    checkCalibratedPreset(
        presetDdr3VendorHigh(),
        vendorSpec("ddr3-1333-x16-vendor-high", 95.0, 212.5, 198.75));
}

} // namespace
} // namespace vdram
