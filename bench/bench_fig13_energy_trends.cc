/**
 * @file
 * E10 — Fig. 13: energy per bit (IDD7-style pattern, half reads replaced
 * by writes) and die area as a function of the minimum feature size.
 *
 * Shape criteria (the paper's headline result): energy per bit falls by
 * ~1.5x per generation from 170 nm (2000) to 44 nm (2010) and by only
 * ~1.2x per generation in the forecast to 16 nm (2018) — the curve
 * flattens because voltage scaling slows down; die areas stay in the
 * manufacturable 40-60 mm^2 band (we accept a wider modeling band).
 */
#include <cstdio>

#include "runner/campaign.h"
#include "util/strings.h"
#include "util/table.h"

using namespace vdram;

int
main()
{
    std::printf("== Fig. 13: energy consumption and die area trends "
                "==\n\n");

    Result<TrendsCampaign> campaign = runTrendsCampaign({}, RunnerOptions{});
    if (!campaign.ok()) {
        std::fprintf(stderr, "%s\n", campaign.error().toString().c_str());
        return 1;
    }
    const std::vector<TrendPoint>& points = campaign.value().points;

    Table table({"node", "year", "device", "die area", "energy/bit",
                 "IDD0", "IDD4R"});
    for (const TrendPoint& p : points) {
        table.addRow({strformat("%.0f nm",
                                p.generation.featureSize * 1e9),
                      strformat("%d", p.generation.year),
                      p.generation.label(),
                      strformat("%.1f mm2", p.dieAreaMm2),
                      strformat("%.1f pJ/bit", p.energyPerBit * 1e12),
                      strformat("%.0f mA", p.idd0 * 1e3),
                      strformat("%.0f mA", p.idd4r * 1e3)});
    }
    std::printf("%s\n", table.render().c_str());

    TrendSummary summary = summarizeTrends(points);
    std::printf("energy-per-bit improvement per generation:\n");
    std::printf("  historical (170nm..44nm): %.2fx  (paper: ~1.5x)\n",
                summary.historicalFactorPerGen);
    std::printf("  forecast   (44nm..16nm):  %.2fx  (paper: ~1.2x)\n",
                summary.forecastFactorPerGen);

    bool historical_ok = summary.historicalFactorPerGen > 1.30 &&
                         summary.historicalFactorPerGen < 1.75;
    bool forecast_ok = summary.forecastFactorPerGen > 1.05 &&
                       summary.forecastFactorPerGen < 1.40;
    std::printf("shape: historical factor ~1.5x/gen: %s\n",
                historical_ok ? "PASS" : "FAIL");
    std::printf("shape: forecast factor ~1.2x/gen (flattening): %s\n",
                forecast_ok ? "PASS" : "FAIL");
    std::printf("shape: forecast flatter than history: %s\n",
                summary.forecastFactorPerGen <
                        summary.historicalFactorPerGen
                    ? "PASS"
                    : "FAIL");

    bool area_ok = true;
    for (const TrendPoint& p : points)
        area_ok &= p.dieAreaMm2 > 20 && p.dieAreaMm2 < 95;
    std::printf("shape: die areas stay manufacturable (20-95 mm2 "
                "modeling band around the paper's 40-60): %s\n",
                area_ok ? "PASS" : "FAIL");
    return 0;
}
