/**
 * @file
 * Delta-evaluation fast path for variant campaigns.
 *
 * The paper's evaluation (Monte-Carlo vendor spread, sensitivity Pareto,
 * what-if sweeps) evaluates thousands of perturbed copies of one nominal
 * description. The slow path pays, per variant: a deep description copy,
 * a full validateDescription() pass and a from-scratch rebuild of every
 * model stage. A VariantEvaluator owns ONE validated nominal model and,
 * per variant, applies the perturbation in place, re-validates only the
 * dirtied value groups and re-derives only the dirtied stages (see
 * StageMask in core/model.h). IDD and pareto measurement patterns are
 * cached across variants (they depend only on spec/timing, which value
 * perturbations never touch).
 *
 * Results are bit-identical to the from-scratch path — asserted by the
 * VDRAM_FASTPATH=verify equivalence mode of the campaigns and by
 * tests/test_variant_evaluator.cc.
 */
#ifndef VDRAM_CORE_VARIANT_EVALUATOR_H
#define VDRAM_CORE_VARIANT_EVALUATOR_H

#include <array>
#include <functional>

#include "core/model.h"

namespace vdram {

/** Evaluates perturbed variants of one nominal description in place. */
class VariantEvaluator {
  public:
    /**
     * Validate @p nominal and build the evaluator, or return the first
     * validation error. The nominal description is snapshotted so every
     * perturbation starts from the same values.
     */
    static Result<VariantEvaluator> create(DramDescription nominal);

    /**
     * Build from a model that is already validated (e.g. the campaign's
     * nominal model); avoids a second validation pass.
     */
    explicit VariantEvaluator(DramPowerModel nominalModel);

    VariantEvaluator(VariantEvaluator&&) = default;
    VariantEvaluator& operator=(VariantEvaluator&&) = default;
    VariantEvaluator(const VariantEvaluator&) = delete;
    VariantEvaluator& operator=(const VariantEvaluator&) = delete;

    /**
     * Make the current variant: restore any previously perturbed groups
     * to their nominal values, run @p mutate on the description, cheaply
     * re-validate the groups in @p dirty and re-derive the stages they
     * feed. Precondition: @p mutate touches only fields covered by
     * @p dirty (kDirtyStructure covers arch/spec/timing/floorplan/
     * pattern and falls back to full validation + full rebuild).
     *
     * On a validation error the perturbed values are rolled back, the
     * error is returned (same code/message as the from-scratch path
     * would produce) and the evaluator stays usable for the next
     * variant.
     */
    Status applyPerturbation(
        const std::function<void(DramDescription&)>& mutate,
        DirtyMask dirty);

    /** Restore the nominal description (and stages, lazily). */
    void reset();

    /** The current variant's model (valid after a successful
     *  applyPerturbation() or for the nominal after reset()). */
    const DramPowerModel& model()
    {
        ensureFresh();
        return model_;
    }

    /** Datasheet IDD current of the current variant; the measurement
     *  pattern is cached across variants. */
    double idd(IddMeasure measure);

    /**
     * Batched idd(): out[i] receives idd(measures[i]) for n measures,
     * bit-identical to n separate calls. The stages are freshened and
     * the charge table is resolved once, then all measures run through
     * one patternExternalCurrentBatch() call — the SIMD kernel's lanes
     * are the measures, so a full datasheet characterization is a
     * single pass over the charge table.
     */
    void iddBatch(const IddMeasure* measures, size_t n, double* out);

    /** Power of the paper's pareto (sensitivity/trend) workload. */
    double paretoPower();

    /** Evaluate the description's default pattern. */
    PatternPower evaluateDefault();

  private:
    /** Stages dirtied by perturbing the given value groups. */
    static StageMask stagesFor(DirtyMask dirty);

    /** Roll the description back to the nominal values of every group
     *  perturbed since the last restore; marks their stages stale. */
    void restorePerturbedGroups();

    /** Re-derive any stale stages before an evaluation. */
    void ensureFresh();

    const Pattern& paretoPattern();

    /** Build (or reuse) the cached pattern + stats of one IDD measure. */
    void ensureIddPattern(size_t index);

    /** Rebuild model stages and drop caches they feed. */
    void rebuild(StageMask stages);

    /** The memoized external-charge table for the current variant. */
    const ChargeTable& chargeTable();

    DramPowerModel model_;
    /** Pristine copy the per-group restores read from. */
    DramDescription nominal_;
    /** Groups currently differing from the nominal values. */
    DirtyMask perturbed_ = 0;
    /** Stages whose cached results no longer match the description. */
    StageMask stale_ = 0;

    // Measurement patterns depend only on spec and timing: cached until
    // a kDirtyStructure perturbation invalidates them.
    std::array<Pattern, kIddMeasureCount> iddPatterns_;
    std::array<bool, kIddMeasureCount> iddPatternReady_{};
    Pattern paretoPattern_;
    bool paretoPatternReady_ = false;

    // Precomputed per-pattern op counts (invalidated with the patterns)
    // and the per-variant external-charge table (invalidated whenever
    // the charges stage is rebuilt): together they reduce an IDD
    // evaluation to a table dot product that reproduces
    // computePatternPower() bit for bit.
    std::array<PatternStats, kIddMeasureCount> iddStats_{};
    PatternStats paretoStats_{};
    ChargeTable chargeTable_;
    bool chargeTableReady_ = false;
};

} // namespace vdram

#endif // VDRAM_CORE_VARIANT_EVALUATOR_H
