/**
 * @file
 * E9 — Fig. 12: data-rate and row-timing trends over the ladder.
 *
 * Shape criteria: per-pin data rate roughly doubles per interface
 * transition while the core (column) frequency stays capped at 200 MHz
 * (prefetch doubles instead); the row cycle time improves only slowly
 * (< 1.5x over the whole 18-year roadmap, vs ~48x in data rate).
 */
#include <cstdio>

#include "runner/campaign.h"
#include "util/strings.h"
#include "util/table.h"

using namespace vdram;

int
main()
{
    std::printf("== Fig. 12: data and row timing trends ==\n\n");

    Result<TrendsCampaign> campaign = runTrendsCampaign({}, RunnerOptions{});
    if (!campaign.ok()) {
        std::fprintf(stderr, "%s\n", campaign.error().toString().c_str());
        return 1;
    }
    const std::vector<TrendPoint>& points = campaign.value().points;

    Table table({"node", "interface", "rate/pin", "prefetch",
                 "core clock", "tRC"});
    for (const TrendPoint& p : points) {
        table.addRow({strformat("%.0f nm",
                                p.generation.featureSize * 1e9),
                      interfaceName(p.generation.interface),
                      strformat("%.0f Mb/s", p.dataRatePerPin / 1e6),
                      strformat("%dn", p.generation.prefetch),
                      strformat("%.0f MHz",
                                p.generation.coreFrequency() / 1e6),
                      strformat("%.0f ns", p.tRcSeconds * 1e9)});
    }
    std::printf("%s\n", table.render().c_str());

    double rate_gain =
        points.back().dataRatePerPin / points.front().dataRatePerPin;
    double trc_gain =
        points.front().tRcSeconds / points.back().tRcSeconds;
    std::printf("shape: data rate grows ~48x while tRC improves < 1.5x "
                "(measured %.1fx vs %.2fx): %s\n", rate_gain, trc_gain,
                rate_gain > 30 && trc_gain < 1.6 ? "PASS" : "FAIL");

    bool capped = true;
    for (const TrendPoint& p : points)
        capped &= p.generation.coreFrequency() <= 200e6 + 1e3;
    std::printf("shape: core frequency capped at 200 MHz (prefetch "
                "doubles instead): %s\n", capped ? "PASS" : "FAIL");

    // Interface transitions double the top pin rate.
    double top_rate[6] = {0, 0, 0, 0, 0, 0};
    for (const TrendPoint& p : points) {
        int i = static_cast<int>(p.generation.interface);
        if (p.dataRatePerPin > top_rate[i])
            top_rate[i] = p.dataRatePerPin;
    }
    bool doubling = true;
    for (int i = 1; i < 6; ++i) {
        double ratio = top_rate[i] / top_rate[i - 1];
        if (ratio < 1.5 || ratio > 3.5)
            doubling = false;
    }
    std::printf("shape: pin data rate ~doubles at each interface "
                "transition: %s\n", doubling ? "PASS" : "FAIL");
    return 0;
}
