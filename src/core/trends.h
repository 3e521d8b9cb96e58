/**
 * @file
 * Trend analysis across the generation ladder (paper Section IV.C,
 * Figs. 11-13): voltages, data rate and row timing, die area and energy
 * per bit of the IDD7-style workload, plus the per-generation improvement
 * factors the paper reports (x1.5 per generation 2000-2010, x1.2
 * thereafter).
 *
 * The trend points come from runTrendsCampaign() in runner/campaign.h.
 */
#ifndef VDRAM_CORE_TRENDS_H
#define VDRAM_CORE_TRENDS_H

#include <vector>

#include "tech/generations.h"

namespace vdram {

/** One generation's trend data. */
struct TrendPoint {
    GenerationInfo generation;
    // Fig. 11
    double vdd = 0, vint = 0, vpp = 0, vbl = 0;
    // Fig. 12
    double dataRatePerPin = 0;
    double tRcSeconds = 0;
    // Fig. 13
    double dieAreaMm2 = 0;
    double energyPerBit = 0;
    // Additional model outputs
    double idd0 = 0;
    double idd4r = 0;
    double arrayEfficiency = 0;
};

/** Trend summary statistics. */
struct TrendSummary {
    /** Geometric-mean energy-per-bit improvement per generation over the
     *  historical range (170 nm .. 44 nm). */
    double historicalFactorPerGen = 0;
    /** Same for the forecast range (44 nm .. 16 nm). */
    double forecastFactorPerGen = 0;
};

/** Summarize the energy-per-bit improvement factors. */
TrendSummary summarizeTrends(const std::vector<TrendPoint>& points);

} // namespace vdram

#endif // VDRAM_CORE_TRENDS_H
