#include "core/trends.h"

#include "core/model.h"
#include "util/numerics.h"

namespace vdram {

TrendSummary
summarizeTrends(const std::vector<TrendPoint>& points)
{
    TrendSummary summary;
    std::vector<double> historical;
    std::vector<double> forecast;
    for (const TrendPoint& p : points) {
        double node = p.generation.featureSize;
        if (node >= 44e-9 - 0.5e-9)
            historical.push_back(p.energyPerBit);
        if (node <= 44e-9 + 0.5e-9)
            forecast.push_back(p.energyPerBit);
    }
    summary.historicalFactorPerGen = averageStepFactor(historical);
    summary.forecastFactorPerGen = averageStepFactor(forecast);
    return summary;
}

} // namespace vdram
