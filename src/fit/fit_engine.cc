#include "fit/fit_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "core/model.h"
#include "core/variant_evaluator.h"
#include "runner/campaign.h"
#include "runner/checkpoint.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/numerics.h"
#include "util/strings.h"
#include "util/trace.h"

namespace vdram {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double
clampFactor(double factor, const FitBounds& bounds)
{
    return std::min(std::max(factor, bounds.minFactor),
                    bounds.maxFactor);
}

/** Weighted relative least squares over the spec targets, computed in
 *  target order so both evaluation paths produce identical bits. */
double
objectiveOf(const std::vector<FitTarget>& targets,
            const std::vector<double>& currents)
{
    double objective = 0;
    for (size_t t = 0; t < targets.size(); ++t) {
        const double miss = currents[t] / targets[t].amps - 1.0;
        objective += targets[t].weight * miss * miss;
    }
    return objective;
}

Error
fitError(const char* code, std::string message)
{
    return Error{std::move(message), 0, 0, "", code};
}

/** Everything constant across one fit run. */
struct FitSetup {
    const DramDescription* nominal = nullptr;
    const FitTargetSpec* spec = nullptr;
    std::vector<const SweepParam*> params;
    DirtyMask dirty = 0;
};

/** Apply a factor vector to a description (shared by both evaluation
 *  paths and the final calibrated-description construction; parameter
 *  order is the application order). */
void
applyFactors(const FitSetup& setup, DramDescription& desc,
             const std::vector<double>& factors)
{
    for (size_t p = 0; p < setup.params.size(); ++p)
        setup.params[p]->apply(desc, factors[p]);
}

/** {objective, currents...} of one candidate, with @p iddOf giving
 *  each target's current. Both evaluation paths go through here. */
template <typename IddOf>
std::vector<double>
candidateValues(const FitSetup& setup, IddOf&& iddOf)
{
    std::vector<double> currents;
    currents.reserve(setup.spec->targets.size());
    for (const FitTarget& target : setup.spec->targets)
        currents.push_back(iddOf(target.measure));
    std::vector<double> out;
    out.push_back(objectiveOf(setup.spec->targets, currents));
    out.insert(out.end(), currents.begin(), currents.end());
    return out;
}

/** Full-rebuild evaluation of one candidate: description copy,
 *  validation, from-scratch model (the VDRAM_FASTPATH=off and verify
 *  reference). */
Result<std::vector<double>>
evaluateSlow(const FitSetup& setup, const std::vector<double>& factors)
{
    DramDescription desc = *setup.nominal;
    applyFactors(setup, desc, factors);
    Result<DramPowerModel> model = DramPowerModel::create(std::move(desc));
    if (!model.ok())
        return model.error();
    return candidateValues(setup, [&](IddMeasure measure) {
        return model.value().idd(measure);
    });
}

/** Delta evaluation of one candidate through a worker's
 *  VariantEvaluator. Bit-identical to evaluateSlow(). */
Result<std::vector<double>>
evaluateFast(const FitSetup& setup, VariantEvaluator& evaluator,
             const std::vector<double>& factors)
{
    Status status = evaluator.applyPerturbation(
        [&](DramDescription& d) { applyFactors(setup, d, factors); },
        setup.dirty);
    if (!status.ok())
        return status.error();
    return candidateValues(setup, [&](IddMeasure measure) {
        return evaluator.idd(measure);
    });
}

/** The search state of one start. */
struct SearchPoint {
    std::vector<double> factors;
    double objective = kInf;
    double step = 0;
};

/** Seed-perturbed initial factors of start @p start (start 0 is the
 *  unperturbed nominal point). */
std::vector<double>
initialFactors(const FitSetup& setup, const FitOptions& fit, int start)
{
    std::vector<double> factors(setup.params.size(), 1.0);
    if (start == 0)
        return factors;
    const std::uint64_t stream =
        deriveStreamSeed(fit.seed, 0xF17u + static_cast<std::uint64_t>(
                                                start));
    for (size_t p = 0; p < factors.size(); ++p) {
        const double u =
            uniformDoubleOf(deriveStreamSeed(stream, p)) * 2.0 - 1.0;
        factors[p] = clampFactor(1.0 + fit.restartSpread * u,
                                 setup.spec->bounds);
    }
    return factors;
}

/** Candidate factor vectors of one generation: the current point plus
 *  an up/down pair per free parameter. */
std::vector<std::vector<double>>
generationCandidates(const FitSetup& setup, const SearchPoint& point)
{
    std::vector<std::vector<double>> candidates;
    candidates.reserve(1 + 2 * setup.params.size());
    candidates.push_back(point.factors);
    for (size_t p = 0; p < setup.params.size(); ++p) {
        std::vector<double> up = point.factors;
        up[p] = clampFactor(up[p] * (1.0 + point.step),
                            setup.spec->bounds);
        candidates.push_back(std::move(up));
        std::vector<double> down = point.factors;
        down[p] = clampFactor(down[p] / (1.0 + point.step),
                              setup.spec->bounds);
        candidates.push_back(std::move(down));
    }
    return candidates;
}

/** Objective of every candidate of one generation, evaluated as a batch
 *  runner campaign (failed/quarantined candidates score +infinity). */
Result<std::vector<double>>
runGeneration(const FitSetup& setup, const FitOptions& fit,
              const RunnerOptions& userOptions, WorkerEvaluators& evaluators,
              FastPathMode fastPath, int start, int generation,
              const std::vector<std::vector<double>>& candidates,
              RunReport& accounting, bool& interrupted,
              DiagnosticEngine* diags)
{
    TraceSpan span("fit.generation", "fit");
    std::vector<TaskSpec> manifest;
    manifest.reserve(candidates.size());
    const std::uint64_t genStream = deriveStreamSeed(
        fit.seed, (static_cast<std::uint64_t>(start) << 24) |
                      static_cast<std::uint64_t>(generation));
    for (size_t c = 0; c < candidates.size(); ++c) {
        manifest.push_back(
            TaskSpec{strformat("s%d-g%d-c%zu", start, generation, c),
                     deriveStreamSeed(genStream, c)});
    }

    // The generation shares the caller's worker/retry/deadline/fault
    // configuration but never its checkpoint file: the fit owns its own
    // trajectory checkpoint (one record per generation), because runner
    // records are matched by manifest index and every generation would
    // collide on indices 0..2P.
    RunnerOptions options = userOptions;
    options.checkpointPath.clear();
    options.resume = false;

    BatchRunner<std::vector<double>> runner(
        std::move(manifest),
        [&](const TaskContext& context) {
            const std::vector<double>& factors =
                candidates[static_cast<size_t>(context.index)];
            return evaluateFastOrSlow(
                fastPath, context.index,
                [&] {
                    return evaluateFast(
                        setup, evaluators.forWorker(context.worker),
                        factors);
                },
                [&] { return evaluateSlow(setup, factors); });
        },
        options);

    Result<RunReport> report = runner.run(diags);
    if (!report.ok())
        return report.error();

    accounting.total += report.value().total;
    accounting.ok += report.value().ok;
    accounting.failed += report.value().failed;
    accounting.quarantined += report.value().quarantined;
    accounting.timedOut += report.value().timedOut;
    accounting.notRun += report.value().notRun;
    accounting.retried += report.value().retried;
    accounting.wallSeconds += report.value().wallSeconds;
    interrupted = report.value().interrupted;
    globalMetrics().counter("fit.evaluations").add(
        static_cast<std::uint64_t>(report.value().ok));

    std::vector<double> objectives(candidates.size(), kInf);
    for (const TaskResult& task : runner.results()) {
        if (task.ok()) {
            objectives[static_cast<size_t>(task.index)] =
                runner.payloads()[task.index][0];
        }
    }
    return objectives;
}

std::string
generationRecordName(int start, int generation)
{
    return strformat("s%d-g%d", start, generation);
}

/** Trajectory record payload: {objective, step, accepted, factors...}.
 *  Everything --resume needs to reproduce the state after the
 *  generation, bit for bit. */
std::string
encodeGeneration(const FitStep& step)
{
    std::vector<double> values;
    values.reserve(3 + step.factors.size());
    values.push_back(step.objective);
    values.push_back(step.step);
    values.push_back(step.accepted ? 1.0 : 0.0);
    values.insert(values.end(), step.factors.begin(),
                  step.factors.end());
    return encodeDoublePayload(values);
}

Error
checkpointMismatch(const std::string& path, const std::string& detail)
{
    return Error{"fit checkpoint does not match this configuration (" +
                     detail + "); re-run without --resume",
                 0, 0, path, "E-FIT-CKPT"};
}

} // namespace

const std::vector<SweepParam>&
fitParameterVocabulary()
{
    static const std::vector<SweepParam> params =
        sweepParameters(SweepMode::Detailed);
    return params;
}

std::vector<std::string>
fitParameterNames()
{
    std::vector<std::string> names;
    names.reserve(fitParameterVocabulary().size());
    for (const SweepParam& param : fitParameterVocabulary())
        names.push_back(param.name);
    return names;
}

bool
isFitParameterName(const std::string& name)
{
    for (const SweepParam& param : fitParameterVocabulary()) {
        if (param.name == name)
            return true;
    }
    return false;
}

std::vector<std::string>
defaultFitParameters()
{
    // One knob per major consumer: background current, the Vint
    // conversion chain, array charge (the paper's dominant terms) and
    // peripheral logic size/activity.
    return {"Constant current adder", "Generator efficiency Vint",
            "Bitline capacitance",    "Cell capacitance",
            "Number of logic gates",  "Logic toggle rate"};
}

Result<FitResult>
runFitCampaign(const DramDescription& nominal, const FitTargetSpec& spec,
               const FitOptions& fit, const RunnerOptions& runnerOptions,
               DiagnosticEngine* diags)
{
    TraceSpan span("fit.run", "fit");

    if (fit.starts < 1 || fit.maxGenerations < 1 ||
        !(fit.initialStep > 0) || !(fit.stepShrink > 0) ||
        !(fit.stepShrink < 1) || !(fit.minStep > 0) ||
        !(fit.restartSpread >= 0)) {
        return fitError("E-FIT-OPTIONS",
                        "fit options must satisfy starts >= 1, "
                        "max-generations >= 1, step > 0, "
                        "0 < shrink < 1, min-step > 0, spread >= 0");
    }
    if (spec.targets.empty())
        return fitError("E-FIT-EMPTY", "target spec has no targets");

    FitSetup setup;
    setup.nominal = &nominal;
    setup.spec = &spec;
    const std::vector<std::string> parameterNames =
        spec.parameters.empty() ? defaultFitParameters()
                                : spec.parameters;
    for (const std::string& name : parameterNames) {
        const SweepParam* found = nullptr;
        for (const SweepParam& param : fitParameterVocabulary()) {
            if (param.name == name) {
                found = &param;
                break;
            }
        }
        if (found == nullptr) {
            return fitError("E-FIT-PARAM",
                            "unknown fit parameter \"" + name + "\"");
        }
        setup.params.push_back(found);
        setup.dirty |= found->dirty;
    }

    Result<DramPowerModel> nominalModel = DramPowerModel::create(nominal);
    if (!nominalModel.ok()) {
        Error error = nominalModel.error();
        error.message =
            "fit nominal description is invalid: " + error.message;
        return error;
    }

    // --- Trajectory checkpoint: load on resume, then (re)open. -------
    const std::string& ckptPath = runnerOptions.checkpointPath;
    std::vector<TaskRecord> restored;
    if (runnerOptions.resume && !ckptPath.empty()) {
        Result<std::vector<TaskRecord>> loaded = loadCheckpoint(ckptPath);
        if (!loaded.ok())
            return loaded.error();
        restored = loaded.value();
        // A crashed writer may have left a torn trailing line that
        // loadCheckpoint dropped; rewrite the valid records before
        // appending so the file never carries a half record mid-stream.
        Status clean = consolidateCheckpoint(ckptPath, restored);
        if (!clean.ok())
            return clean.error();
    }
    CheckpointWriter writer;
    bool checkpointOk = !ckptPath.empty();
    if (checkpointOk) {
        if (!runnerOptions.resume)
            std::remove(ckptPath.c_str());
        Status opened = writer.open(ckptPath);
        if (!opened.ok())
            return opened.error();
    }
    auto degradeCheckpoint = [&](const std::string& why) {
        if (diags != nullptr) {
            diags->warning("W-FIT-CKPT",
                           "fit checkpoint failed (" + why +
                               "); the run continues but cannot be "
                               "resumed");
        }
        writer.close();
        checkpointOk = false;
    };

    const FastPathMode fastPath = fastPathMode();
    WorkerEvaluators evaluators(nominalModel.value(), runnerOptions.jobs);
    globalMetrics().counter("fit.runs").add(1);

    FitResult result;
    result.parameters = parameterNames;

    SearchPoint best;
    long long recordIndex = 0;
    size_t consumedRestored = 0;
    bool stopped = false;

    for (int start = 0; start < fit.starts && !stopped; ++start) {
        SearchPoint point;
        point.factors = initialFactors(setup, fit, start);
        point.step = fit.initialStep;
        globalMetrics().counter("fit.starts").add(1);

        for (int generation = 0;
             generation < fit.maxGenerations && point.step >= fit.minStep;
             ++generation, ++recordIndex) {
            FitStep step;
            step.start = start;
            step.generation = generation;

            if (consumedRestored < restored.size()) {
                // Replay: restore the recorded state instead of
                // re-evaluating; determinism makes the trajectory
                // identical to the uninterrupted run's.
                const TaskRecord& record = restored[consumedRestored];
                if (record.task != recordIndex || !record.ok() ||
                    record.name !=
                        generationRecordName(start, generation)) {
                    return checkpointMismatch(
                        ckptPath, "record " + std::to_string(recordIndex) +
                                      " is not generation " +
                                      generationRecordName(start,
                                                           generation));
                }
                Result<std::vector<double>> values =
                    decodeDoublePayload(record.payload);
                if (!values.ok() ||
                    values.value().size() != 3 + setup.params.size()) {
                    return checkpointMismatch(ckptPath,
                                              "record " +
                                                  std::to_string(
                                                      recordIndex) +
                                                  " has a foreign "
                                                  "payload shape");
                }
                step.objective = values.value()[0];
                step.step = values.value()[1];
                step.accepted = values.value()[2] != 0.0;
                step.factors.assign(values.value().begin() + 3,
                                    values.value().end());
                step.restored = true;
                ++consumedRestored;
                ++result.restoredGenerations;
                globalMetrics().counter("fit.generations.restored").add(1);
            } else {
                if (runnerOptions.stopFlag != nullptr &&
                    runnerOptions.stopFlag->load()) {
                    stopped = true;
                    break;
                }
                const std::uint64_t genSeed = deriveStreamSeed(
                    fit.seed,
                    0xC0DEu + static_cast<std::uint64_t>(recordIndex));
                // fit.step: forces a fault at the top of a generation
                // (error action -> E-FIT-STEP; crash is contained here).
                try {
                    Status gate =
                        checkFailpoint("fit.step", "E-FIT-STEP", genSeed);
                    if (!gate.ok())
                        return gate.error();
                } catch (const std::exception& e) {
                    return fitError("E-FIT-STEP",
                                    strformat("fit step fault: %s",
                                              e.what()));
                }

                const std::vector<std::vector<double>> candidates =
                    generationCandidates(setup, point);
                bool interrupted = false;
                Result<std::vector<double>> objectives = runGeneration(
                    setup, fit, runnerOptions, evaluators, fastPath,
                    start, generation, candidates, result.report,
                    interrupted, diags);
                if (!objectives.ok())
                    return objectives.error();
                if (interrupted) {
                    stopped = true;
                    break;
                }

                const double currentObjective = objectives.value()[0];
                size_t bestCandidate = 0;
                double bestObjective = currentObjective;
                for (size_t c = 1; c < objectives.value().size(); ++c) {
                    if (objectives.value()[c] < bestObjective) {
                        bestCandidate = c;
                        bestObjective = objectives.value()[c];
                    }
                }
                step.accepted =
                    bestCandidate != 0 && bestObjective < currentObjective;
                if (step.accepted) {
                    point.factors = candidates[bestCandidate];
                    step.objective = bestObjective;
                    globalMetrics().counter("fit.steps.accepted").add(1);
                } else {
                    point.step *= fit.stepShrink;
                    step.objective = currentObjective;
                }
                step.step = point.step;
                step.factors = point.factors;
                globalMetrics().counter("fit.generations").add(1);

                if (checkpointOk) {
                    TaskRecord record;
                    record.task = recordIndex;
                    record.name = generationRecordName(start, generation);
                    record.status = "ok";
                    record.payload = encodeGeneration(step);
                    // fit.checkpoint: forces the trajectory append to
                    // fail (error degrades; abort simulates kill -9
                    // between generations).
                    Status appended;
                    try {
                        appended = checkFailpoint("fit.checkpoint",
                                                  "E-FIT-CHECKPOINT",
                                                  genSeed);
                        if (appended.ok())
                            appended = writer.append(record);
                    } catch (const std::exception& e) {
                        appended = Status(fitError("E-FIT-CHECKPOINT",
                                                   e.what()));
                    }
                    if (!appended.ok())
                        degradeCheckpoint(appended.error().message);
                }
            }

            point.objective = step.objective;
            point.step = step.step;
            point.factors = step.factors;
            result.history.push_back(step);
        }

        if (!stopped && point.objective < best.objective) {
            best = point;
            result.bestStart = start;
        }
    }
    writer.close();

    if (!stopped && consumedRestored < restored.size()) {
        return checkpointMismatch(
            ckptPath, "file has more generations than this "
                      "configuration produces");
    }
    result.interrupted = stopped;
    result.evaluations = result.report.ok;

    if (!(best.objective < kInf)) {
        if (stopped) {
            // Drained before any start finished: report what we have so
            // the caller can render accounting; no calibrated output.
            result.factors.assign(setup.params.size(), 1.0);
            result.calibrated = nominal;
            return result;
        }
        return fitError("E-FIT-FAILED",
                        "no candidate evaluated successfully; check the "
                        "target spec and bounds");
    }

    result.factors = best.factors;
    result.calibrated = nominal;
    applyFactors(setup, result.calibrated, best.factors);
    Result<DramPowerModel> calibratedModel =
        DramPowerModel::create(result.calibrated);
    if (!calibratedModel.ok()) {
        Error error = calibratedModel.error();
        error.message = "calibrated description failed validation: " +
                        error.message;
        return error;
    }
    result.converged = true;
    for (const FitTarget& target : spec.targets) {
        FitResidual residual;
        residual.measure = target.measure;
        residual.targetAmps = target.amps;
        residual.fittedAmps = calibratedModel.value().idd(target.measure);
        residual.weight = target.weight;
        residual.tolerance = target.tolerance;
        if (target.weight > 0 && !residual.within())
            result.converged = false;
        result.residuals.push_back(residual);
    }
    result.objective = objectiveOf(spec.targets, [&] {
        std::vector<double> currents;
        for (const FitResidual& r : result.residuals)
            currents.push_back(r.fittedAmps);
        return currents;
    }());

    if (checkpointOk && !stopped) {
        // Canonical final file (drops nothing here, but keeps the same
        // consolidation discipline as the runner).
        std::vector<TaskRecord> records;
        long long index = 0;
        for (const FitStep& step : result.history) {
            TaskRecord record;
            record.task = index++;
            record.name = generationRecordName(step.start,
                                               step.generation);
            record.status = "ok";
            record.payload = encodeGeneration(step);
            records.push_back(std::move(record));
        }
        Status consolidated = consolidateCheckpoint(ckptPath, records);
        if (!consolidated.ok())
            degradeCheckpoint(consolidated.error().message);
    }
    return result;
}

std::string
renderFitReportJson(const FitResult& result, const FitTargetSpec& spec)
{
    JsonWriter json;
    json.beginObject();
    json.key("spec").value(spec.name);
    json.key("converged").value(result.converged);
    json.key("interrupted").value(result.interrupted);
    json.key("objective").value(result.objective);
    json.key("bestStart").value(result.bestStart);
    json.key("bounds")
        .beginObject()
        .key("min")
        .value(spec.bounds.minFactor)
        .key("max")
        .value(spec.bounds.maxFactor)
        .endObject();
    json.key("parameters").beginArray();
    for (size_t p = 0; p < result.parameters.size(); ++p) {
        json.beginObject();
        json.key("name").value(result.parameters[p]);
        json.key("factor").value(
            p < result.factors.size() ? result.factors[p] : 1.0);
        json.endObject();
    }
    json.endArray();
    json.key("residuals").beginArray();
    for (const FitResidual& residual : result.residuals) {
        json.beginObject();
        json.key("measure").value(iddName(residual.measure));
        json.key("targetMa").value(residual.targetAmps * 1e3);
        json.key("fittedMa").value(residual.fittedAmps * 1e3);
        json.key("residual").value(residual.residual());
        json.key("tolerance").value(residual.tolerance);
        json.key("weight").value(residual.weight);
        json.key("within").value(residual.within());
        json.endObject();
    }
    json.endArray();
    json.key("history").beginArray();
    for (const FitStep& step : result.history) {
        json.beginObject();
        json.key("start").value(step.start);
        json.key("generation").value(step.generation);
        json.key("accepted").value(step.accepted);
        json.key("objective").value(step.objective);
        json.key("step").value(step.step);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

std::string
renderFitReportText(const FitResult& result, const FitTargetSpec& spec)
{
    std::string out;
    out += strformat("fit '%s': objective %.6g, %s (best start %d)\n",
                     spec.name.c_str(), result.objective,
                     result.interrupted
                         ? "interrupted"
                         : (result.converged ? "converged"
                                             : "NOT converged"),
                     result.bestStart);
    for (const FitResidual& residual : result.residuals) {
        out += strformat("  %-5s target %8.2f mA  fitted %8.2f mA  "
                         "residual %+6.2f%%  (tol +/-%.2f%%, weight %g)"
                         "  %s\n",
                         iddName(residual.measure).c_str(),
                         residual.targetAmps * 1e3,
                         residual.fittedAmps * 1e3,
                         residual.residual() * 100,
                         residual.tolerance * 100, residual.weight,
                         residual.within() ? "ok" : "MISS");
    }
    for (size_t p = 0; p < result.parameters.size(); ++p) {
        out += strformat("  %s: x%.6g\n", result.parameters[p].c_str(),
                         p < result.factors.size() ? result.factors[p]
                                                   : 1.0);
    }
    long long accepted = 0;
    for (const FitStep& step : result.history)
        accepted += step.accepted ? 1 : 0;
    out += strformat("  generations %zu (%lld accepted, %lld restored), "
                     "evaluations %lld\n",
                     result.history.size(), accepted,
                     result.restoredGenerations, result.evaluations);
    return out;
}

} // namespace vdram
