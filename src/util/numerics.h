/**
 * @file
 * Numeric helpers for the scaling engine and trend analysis: piecewise
 * interpolation over generation tables, least-squares fits of per-generation
 * factors, and approximate-comparison helpers used by tests.
 */
#ifndef VDRAM_UTIL_NUMERICS_H
#define VDRAM_UTIL_NUMERICS_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vdram {

/** A sampled (x, y) curve, x strictly increasing. */
struct Curve {
    std::vector<double> x;
    std::vector<double> y;

    /** Geometric (log-linear) interpolation for scale-factor curves. */
    double atLog(double xq) const;

    size_t size() const { return x.size(); }
};

/**
 * Average per-step ratio of a positive series: the geometric mean of
 * y[i] / y[i+1]. Used to express "energy per bit improved by a factor of
 * 1.5 per generation" as in the paper's Fig. 13 discussion.
 */
double averageStepFactor(const std::vector<double>& series);

/** Relative difference |a - b| / max(|a|, |b|); 0 when both are 0. */
double relativeDifference(double a, double b);

/**
 * SplitMix64 finalizer: a bijective avalanche of the input word. Every
 * output bit depends on every input bit, so nearby inputs map to
 * unrelated outputs.
 */
std::uint64_t splitmix64(std::uint64_t x);

/**
 * Seed of the @p stream-th independent random stream derived from
 * @p base. Unlike affine derivations (base + k * stream), distinct
 * (base, stream) pairs cannot collide for nearby bases: the stream
 * index advances by the 64-bit golden-gamma constant before the
 * avalanche.
 */
std::uint64_t deriveStreamSeed(std::uint64_t base, std::uint64_t stream);

/**
 * Map a 64-bit word to a uniform double in [0, 1) (53 mantissa bits).
 * Used for deterministic per-task decisions (fault injection).
 */
double uniformDoubleOf(std::uint64_t word);

} // namespace vdram

#endif // VDRAM_UTIL_NUMERICS_H
