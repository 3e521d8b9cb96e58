/**
 * @file
 * Forecasting walkthrough: what datasheets cannot do. Starting from the
 * calibrated 55 nm DDR3 technology, scale the full 39-parameter
 * technology set down the roadmap (Figs. 5-7), apply the ITRS voltage
 * trend (Fig. 11) and the interface assumptions (prefetch doubling,
 * capped core clock), and forecast the hypothetical 16 Gb DDR5 at 18 nm
 * — the device of the paper's Table III — including its energy-per-bit
 * trajectory and the shifting power breakdown.
 */
#include <cstdio>

#include "core/model.h"
#include "core/report.h"
#include "presets/presets.h"
#include "runner/campaign.h"
#include "util/strings.h"
#include "util/table.h"

using namespace vdram;

int
main()
{
    // --- the trajectory ----------------------------------------------------
    std::printf("energy-per-bit trajectory (IDD7-style pattern):\n\n");
    Result<TrendsCampaign> campaign = runTrendsCampaign({}, RunnerOptions{});
    if (!campaign.ok()) {
        std::fprintf(stderr, "%s\n", campaign.error().toString().c_str());
        return 1;
    }
    const std::vector<TrendPoint>& points = campaign.value().points;
    Table table({"device", "die", "pJ/bit", "vs previous"});
    double prev = 0;
    for (const TrendPoint& p : points) {
        std::string factor = prev > 0
            ? strformat("x%.2f", prev / p.energyPerBit)
            : "-";
        table.addRow({p.generation.label(),
                      strformat("%.0f mm2", p.dieAreaMm2),
                      strformat("%.1f", p.energyPerBit * 1e12), factor});
        prev = p.energyPerBit;
    }
    std::printf("%s\n", table.render().c_str());

    TrendSummary summary = summarizeTrends(points);
    std::printf("improvement: x%.2f per generation to 2010, x%.2f in "
                "the forecast — the curve flattens because voltage "
                "scaling slows (Fig. 11).\n\n",
                summary.historicalFactorPerGen,
                summary.forecastFactorPerGen);

    // --- the forecast device ------------------------------------------------
    DramPowerModel ddr5(preset16GbDdr5_18());
    std::printf("forecast device: %s\n", renderSummary(ddr5).c_str());
    std::printf("%s\n", renderIddTable(ddr5).c_str());
    std::printf("component breakdown of the forecast device:\n%s\n",
                renderBreakdown(ddr5.evaluateDefault()).c_str());

    // --- where the power went -----------------------------------------------
    DramPowerModel ddr3(preset2GbDdr3_55());
    auto share = [](const DramPowerModel& m, Component c) {
        PatternPower p = m.evaluateDefault();
        return 100.0 * p.componentPower[c] / p.power;
    };
    std::printf("share shift DDR3 55nm -> DDR5 18nm:\n");
    std::printf("  bitline sensing:   %4.1f%% -> %4.1f%%\n",
                share(ddr3, Component::BitlineSensing),
                share(ddr5, Component::BitlineSensing));
    std::printf("  peripheral logic:  %4.1f%% -> %4.1f%%\n",
                share(ddr3, Component::PeripheralLogic),
                share(ddr5, Component::PeripheralLogic));
    std::printf("  data bus wiring:   %4.1f%% -> %4.1f%%\n",
                share(ddr3, Component::DataBus),
                share(ddr5, Component::DataBus));
    std::printf("\n\"Power usage is shifting away from the DRAM "
                "specific cell array circuitry to general logic outside "
                "of the cell array.\" (paper, Conclusion)\n");
    return 0;
}
