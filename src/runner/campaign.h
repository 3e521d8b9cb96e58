/**
 * @file
 * Campaign adapters: the paper's evaluation studies expressed as batch
 * runner jobs.
 *
 * Each adapter builds a manifest (one task per Monte-Carlo sample,
 * sensitivity parameter, ladder generation or sweep factor), runs it
 * through BatchRunner — gaining parallelism, fault isolation, retry,
 * checkpoint/resume and graceful draining — and aggregates the ok
 * payloads (one std::vector<double> per task) back into the study's
 * native result type. Aggregation always walks tasks in manifest order,
 * so a resumed or parallel run produces a byte-identical aggregate to a
 * serial one.
 */
#ifndef VDRAM_RUNNER_CAMPAIGN_H
#define VDRAM_RUNNER_CAMPAIGN_H

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/builder.h"
#include "core/montecarlo.h"
#include "core/sensitivity.h"
#include "core/trends.h"
#include "core/variant_evaluator.h"
#include "runner/runner.h"

namespace vdram {

/**
 * Which evaluation path the campaigns use per variant (selected by the
 * VDRAM_FASTPATH environment variable; see docs/performance.md):
 *  - On (default): delta evaluation via a per-worker VariantEvaluator.
 *  - Off ("off"): the historical copy + validate + full-rebuild path.
 *  - Verify ("verify"): run both and quarantine the task with
 *    E-FASTPATH-MISMATCH unless the results are bit-identical.
 */
enum class FastPathMode { On, Off, Verify };

/** The mode selected by the VDRAM_FASTPATH environment variable. */
FastPathMode fastPathMode();

/**
 * One lazily constructed VariantEvaluator per worker slot, so parallel
 * campaigns delta-evaluate without locking. The slots are pre-sized to
 * the worker count; each worker only ever touches its own slot.
 */
class WorkerEvaluators {
  public:
    /** One slot per worker of RunnerOptions::jobs = @p jobs; @p nominal
     *  must outlive this object. */
    WorkerEvaluators(const DramPowerModel& nominal, int jobs)
        : nominal_(nominal),
          slots_(static_cast<size_t>(effectiveJobCount(jobs)))
    {
    }

    VariantEvaluator& forWorker(int worker)
    {
        std::unique_ptr<VariantEvaluator>& slot =
            slots_[static_cast<size_t>(worker) % slots_.size()];
        if (!slot)
            slot = std::make_unique<VariantEvaluator>(nominal_);
        return *slot;
    }

  private:
    const DramPowerModel& nominal_;
    std::vector<std::unique_ptr<VariantEvaluator>> slots_;
};

/** Payload equality for the Verify comparison. */
inline bool
samePayload(const std::string& a, const std::string& b)
{
    return a == b;
}

/** Bit equality: -0.0 differs from +0.0 and a NaN equals its own bits,
 *  as they would in the %.17g checkpoint text. */
inline bool
samePayload(const std::vector<double>& a, const std::vector<double>& b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) ==
                0);
}

/**
 * Evaluate task @p index on the path @p mode selects. @p fast (the
 * delta evaluation) and @p slow (its full-rebuild twin) are callables
 * returning the task's Result payload. Under Verify both run, and the
 * task fails with E-FASTPATH-MISMATCH unless the payloads are
 * samePayload() or both failed with the same diagnostic code (the error
 * then passes through).
 */
template <typename Fast, typename Slow>
auto
evaluateFastOrSlow(FastPathMode mode, long long index, Fast&& fast,
                   Slow&& slow) -> decltype(slow())
{
    if (mode == FastPathMode::Off)
        return slow();
    decltype(slow()) result = fast();
    if (mode == FastPathMode::Verify) {
        const decltype(slow()) reference = slow();
        const bool same =
            result.ok() == reference.ok() &&
            (result.ok() ? samePayload(result.value(), reference.value())
                         : result.error().code == reference.error().code);
        if (!same) {
            return Error{"fast-path result of task " +
                             std::to_string(index) +
                             " differs from the full-rebuild result",
                         0, 0, "", "E-FASTPATH-MISMATCH"};
        }
    }
    return result;
}

/** Monte-Carlo study result plus the run's accounting. */
struct MonteCarloCampaign {
    std::vector<IddDistribution> distributions;
    RunReport report;
};

/**
 * Monte-Carlo campaign: one task per sample. Task seeds come from
 * monteCarloSampleSeed(seed, index); invalid variants are quarantined
 * (E-MC-INVALID) and excluded from the distributions. Errors are
 * reserved for campaign-level problems: a non-positive sample count, an
 * invalid nominal description, an unreadable checkpoint.
 */
Result<MonteCarloCampaign>
runMonteCarloCampaign(const DramDescription& nominal,
                      const std::vector<IddMeasure>& measures,
                      int samples, const VariationModel& variation,
                      std::uint64_t seed, const RunnerOptions& options,
                      DiagnosticEngine* diags = nullptr);

/** Sensitivity study result plus the run's accounting. */
struct SensitivityCampaign {
    /**
     * Sorted by descending spread (the paper's Pareto order). The sort
     * is stable: parameters with equal spread keep their
     * sweepParameters() order, whatever the job count.
     */
    std::vector<SensitivityResult> results;
    RunReport report;
};

/**
 * Sensitivity campaign: one task per sweep parameter, each evaluating
 * the +/- variation pair. Perturbations that break the description are
 * quarantined instead of aborting the sweep.
 */
Result<SensitivityCampaign>
runSensitivityCampaign(const DramDescription& base, double variation,
                       SweepMode mode, const RunnerOptions& options,
                       DiagnosticEngine* diags = nullptr);

/** Generation-ladder trend result plus the run's accounting. */
struct TrendsCampaign {
    std::vector<TrendPoint> points;
    RunReport report;
};

/** Trend campaign: one task per ladder generation. */
Result<TrendsCampaign>
runTrendsCampaign(const BuilderOptions& builderOptions,
                  const RunnerOptions& options,
                  DiagnosticEngine* diags = nullptr);

} // namespace vdram

#endif // VDRAM_RUNNER_CAMPAIGN_H
