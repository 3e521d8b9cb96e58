/**
 * @file
 * E8 — Fig. 11: DRAM voltage trends (Vdd, Vint, Vpp, Vbl) over the
 * generation ladder, 170 nm/2000 to 16 nm/2018.
 *
 * Shape criteria: all four voltages descend monotonically; Vpp stays
 * boosted above Vdd throughout; the descent flattens at the small nodes
 * (the paper's "reduced possibility of voltage scaling" driving the
 * energy-trend flattening of Fig. 13).
 */
#include <cstdio>

#include "runner/campaign.h"
#include "util/strings.h"
#include "util/table.h"

using namespace vdram;

int
main()
{
    std::printf("== Fig. 11: voltage trends ==\n\n");

    Result<TrendsCampaign> campaign = runTrendsCampaign({}, RunnerOptions{});
    if (!campaign.ok()) {
        std::fprintf(stderr, "%s\n", campaign.error().toString().c_str());
        return 1;
    }
    const std::vector<TrendPoint>& points = campaign.value().points;

    Table table({"node", "year", "interface", "Vdd", "Vint", "Vpp",
                 "Vbl"});
    for (const TrendPoint& p : points) {
        table.addRow({strformat("%.0f nm",
                                p.generation.featureSize * 1e9),
                      strformat("%d", p.generation.year),
                      interfaceName(p.generation.interface),
                      strformat("%.2f V", p.vdd),
                      strformat("%.2f V", p.vint),
                      strformat("%.2f V", p.vpp),
                      strformat("%.2f V", p.vbl)});
    }
    std::printf("%s\n", table.render().c_str());

    bool monotone = true, boosted = true;
    for (size_t i = 0; i < points.size(); ++i) {
        if (i > 0) {
            monotone &= points[i].vdd <= points[i - 1].vdd;
            monotone &= points[i].vint <= points[i - 1].vint;
            monotone &= points[i].vpp <= points[i - 1].vpp;
            monotone &= points[i].vbl <= points[i - 1].vbl;
        }
        boosted &= points[i].vpp > points[i].vdd;
    }
    std::printf("shape: all voltages descend monotonically: %s\n",
                monotone ? "PASS" : "FAIL");
    std::printf("shape: Vpp boosted above Vdd in every generation: %s\n",
                boosted ? "PASS" : "FAIL");

    // Flattening: the early half of the roadmap cuts Vdd far more than
    // the late half.
    size_t mid = points.size() / 2;
    double early_drop = points.front().vdd - points[mid].vdd;
    double late_drop = points[mid].vdd - points.back().vdd;
    std::printf("shape: voltage scaling flattens (early drop %.2f V vs "
                "late %.2f V): %s\n", early_drop, late_drop,
                early_drop > 2 * late_drop ? "PASS" : "FAIL");
    return 0;
}
