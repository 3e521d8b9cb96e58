/**
 * @file
 * Monte-Carlo study over the technology description.
 *
 * The paper's verification (Figs. 8/9) shows "a quite large spread" of
 * datasheet currents across vendors, attributed to "the different
 * technologies used to build the DRAMs and differences in the power
 * efficiencies of the approach used by different DRAM vendors". This
 * module makes that explanation quantitative: it samples vendor-like
 * variations of the technology parameters, logic sizing and internal
 * voltages around the nominal description and reports the resulting
 * IDD distributions, which can be compared against the encoded
 * datasheet bands.
 *
 * The per-sample primitives (seed derivation, single-sample evaluation,
 * distribution summary) are exposed so the batch runner
 * (src/runner/campaign.h) can parallelize and checkpoint a campaign;
 * the study itself is runMonteCarloCampaign() there.
 */
#ifndef VDRAM_CORE_MONTECARLO_H
#define VDRAM_CORE_MONTECARLO_H

#include <cstdint>
#include <vector>

#include "core/description.h"
#include "protocol/idd.h"
#include "util/result.h"

namespace vdram {

class DramPowerModel;

/** Relative 1-sigma variations applied per sample. */
struct VariationModel {
    /** Technology parameters (capacitances, device sizes, oxides). */
    double technologySigma = 0.08;
    /** Internal voltage trims (Vint/Vbl/Vpp). */
    double voltageSigma = 0.03;
    /** Peripheral logic sizing (gate counts — design-style spread). */
    double logicSigma = 0.15;
    /** Generator/pump efficiency spread. */
    double efficiencySigma = 0.05;
};

/** Distribution summary of one IDD measure over the samples. */
struct IddDistribution {
    IddMeasure measure = IddMeasure::Idd0;
    double nominal = 0;
    double mean = 0;
    double minimum = 0;
    double maximum = 0;
    double p05 = 0; ///< 5th percentile
    double p95 = 0; ///< 95th percentile

    /** Relative width of the 5..95 percentile band. */
    double relativeSpread() const
    {
        return mean > 0 ? (p95 - p05) / mean : 0.0;
    }
};

/**
 * Seed of sample @p sample in the stream derived from @p baseSeed.
 * SplitMix64-style: distinct (base, sample) pairs yield unrelated
 * seeds. The previous affine derivation (base + 977 * sample) collided
 * whenever two base seeds differed by a multiple of 977.
 */
std::uint64_t monteCarloSampleSeed(std::uint64_t baseSeed,
                                   long long sample);

/** Sample one vendor-like variant of a description (deterministic per
 *  seed). */
DramDescription sampleVariant(const DramDescription& nominal,
                              const VariationModel& variation,
                              std::uint64_t seed);

/**
 * Apply the variant perturbation of @p seed to @p d in place — the
 * draw-for-draw identical mutation sampleVariant() applies to its copy.
 * Shared by the copying path and the delta-evaluation fast path so both
 * consume the RNG stream in exactly the same order.
 */
void applyVariantPerturbation(DramDescription& d,
                              const VariationModel& variation,
                              std::uint64_t seed);

/** Value groups a Monte-Carlo perturbation touches: technology,
 *  voltages/efficiencies and logic sizing — never the structure. */
constexpr DirtyMask kMonteCarloDirtyMask =
    kDirtyTechnology | kDirtyElectrical | kDirtyLogicBlocks;

/**
 * Evaluate one Monte-Carlo sample: draw the variant for @p sampleSeed,
 * validate it and return one IDD value per measure. Extreme draws can
 * break divisibility/ordering constraints; those variants return the
 * validation error (code E-MC-INVALID) instead of aborting anything.
 */
Result<std::vector<double>>
evaluateMonteCarloSample(const DramDescription& nominal,
                         const VariationModel& variation,
                         const std::vector<IddMeasure>& measures,
                         std::uint64_t sampleSeed);

class VariantEvaluator;

/**
 * Fast-path equivalent of evaluateMonteCarloSample(): same seed stream,
 * same quarantine decisions (E-MC-INVALID), bit-identical IDD values —
 * but the perturbation is applied in place on @p evaluator's nominal
 * model and only the dirty stages are re-derived.
 */
Result<std::vector<double>>
evaluateMonteCarloSampleFast(VariantEvaluator& evaluator,
                             const VariationModel& variation,
                             const std::vector<IddMeasure>& measures,
                             std::uint64_t sampleSeed);

/**
 * Evaluate @p n Monte-Carlo samples (seeds[0..n)) on one evaluator and
 * return one result per seed, in order. Each entry is exactly what
 * evaluateMonteCarloSampleFast() returns for that seed — same
 * quarantine decisions, bit-identical values — but the loop stays
 * inside the library, feeding every sample's full measure set through
 * VariantEvaluator::iddBatch() in one vectorized pass. This is the
 * per-worker batch shape of a campaign inner loop: one perturbation +
 * one batched dot-product pass per sample, no per-measure call
 * overhead.
 */
std::vector<Result<std::vector<double>>>
evaluateMonteCarloBatchFast(VariantEvaluator& evaluator,
                            const VariationModel& variation,
                            const std::vector<IddMeasure>& measures,
                            const std::uint64_t* seeds, size_t n);

/**
 * Build the per-measure distribution summaries from raw sample values.
 * @p values holds one vector per measure (same order as @p measures);
 * the vectors are sorted in place. Deterministic for a given value
 * multiset regardless of sampling order.
 */
std::vector<IddDistribution>
summarizeIddDistributions(const DramPowerModel& nominalModel,
                          const std::vector<IddMeasure>& measures,
                          std::vector<std::vector<double>>& values);

} // namespace vdram

#endif // VDRAM_CORE_MONTECARLO_H
