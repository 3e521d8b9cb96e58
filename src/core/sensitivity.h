/**
 * @file
 * Sensitivity analysis of the power model (paper Fig. 10 and Table III):
 * every model parameter is varied by +/- a relative amount and the change
 * of the power of the paper's IDD7-like pattern (half reads replaced by
 * writes) is recorded, producing the power-consumption Pareto.
 *
 * Parameters are swept in the paper's grouping: the internal voltages and
 * efficiencies individually, the technology parameters individually or
 * grouped ("gate oxide thickness", "specific wire capacitance"), and the
 * peripheral logic described by aggregate knobs (number of gates, device
 * widths, layout/wiring density) applied across all logic blocks.
 *
 * The sweep itself runs as a batch-runner campaign:
 * runSensitivityCampaign() in runner/campaign.h.
 */
#ifndef VDRAM_CORE_SENSITIVITY_H
#define VDRAM_CORE_SENSITIVITY_H

#include <functional>
#include <string>
#include <vector>

#include "core/description.h"
#include "util/result.h"

namespace vdram {

/** Result of sweeping one parameter. */
struct SensitivityResult {
    std::string name;
    /** Relative power change at +variation (e.g. +0.12 = +12 %). */
    double plus = 0;
    /** Relative power change at -variation. */
    double minus = 0;

    /** Total variation (the paper's bar length): |plus - minus|. */
    double spread() const;
};

/** How to enumerate parameters. */
enum class SweepMode {
    Grouped,  ///< Table III grouping (aggregated oxides/wire caps/logic)
    Detailed, ///< every registered parameter individually
};

/** One sweepable parameter: a name and a multiplicative mutator. */
struct SweepParam {
    std::string name;
    std::function<void(DramDescription&, double factor)> apply;
    /**
     * Value groups apply() touches, for the delta-evaluation fast path
     * (see core/variant_evaluator.h). Defaults to the conservative full
     * rebuild; sweepParameters() tags each entry precisely.
     */
    DirtyMask dirty = kDirtyStructure;
};

/** The sweep list for a mode. */
std::vector<SweepParam> sweepParameters(SweepMode mode);

/**
 * Power of the paper's sensitivity/trend workload (the IDD7-like
 * pattern with half the reads replaced by writes) for a description;
 * the validation error when the description is invalid.
 */
Result<double> paretoPatternPower(const DramDescription& desc);

} // namespace vdram

#endif // VDRAM_CORE_SENSITIVITY_H
