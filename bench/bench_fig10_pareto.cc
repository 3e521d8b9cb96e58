/**
 * @file
 * E3 — Fig. 10: change in power consumption as a function of a +/-20 %
 * parameter variation, for the three sample devices (128 Mb SDR 170 nm,
 * 2 Gb DDR3 55 nm, 16 Gb DDR5 18 nm), sorted by the impact on the DDR3
 * device, on the paper's IDD7-like pattern with half of the reads
 * replaced by writes.
 *
 * Shape criteria: power exactly proportional to Vdd (the only 40 %
 * parameter, excluded from the chart as in the paper); the internal
 * voltage Vint leads the chart; most parameters individually small.
 */
#include <cstdio>
#include <cstdlib>

#include <map>
#include <vector>

#include "presets/presets.h"
#include "runner/campaign.h"
#include "util/strings.h"
#include "util/table.h"

using namespace vdram;

namespace {

/** The +/-20 % sensitivity Pareto of @p desc; exits non-zero when the
 *  campaign fails. */
std::vector<SensitivityResult>
sensitivityOf(const DramDescription& desc,
              SweepMode mode = SweepMode::Grouped)
{
    Result<SensitivityCampaign> campaign =
        runSensitivityCampaign(desc, 0.20, mode, RunnerOptions{});
    if (!campaign.ok()) {
        std::fprintf(stderr, "%s\n", campaign.error().toString().c_str());
        std::exit(1);
    }
    return std::move(campaign).value().results;
}

} // namespace

int
main()
{
    std::printf("== Fig. 10: power sensitivity to +/-20%% parameter "
                "variation ==\n\n");

    struct Device {
        const char* name;
        DramDescription desc;
    };
    std::vector<Device> devices = {
        {"128M SDR 170nm", preset128MbSdr170()},
        {"2G DDR3 55nm", preset2GbDdr3_55()},
        {"16G DDR5 18nm", preset16GbDdr5_18()},
    };

    // Analyze each device; order rows by the DDR3 spread as the paper
    // sorts its chart by the 55 nm device.
    std::vector<std::vector<SensitivityResult>> results;
    for (const Device& device : devices)
        results.push_back(sensitivityOf(device.desc));

    std::map<std::string, std::vector<double>> spread;
    std::map<std::string, double> order;
    for (size_t d = 0; d < devices.size(); ++d) {
        for (const SensitivityResult& r : results[d]) {
            auto& row = spread[r.name];
            row.resize(devices.size());
            row[d] = r.spread();
            if (d == 1)
                order[r.name] = r.spread();
        }
    }

    Table table({"parameter", "SDR 170nm", "DDR3 55nm", "DDR5 18nm"});
    std::vector<std::pair<double, std::string>> sorted;
    for (const auto& [name, s] : order)
        sorted.push_back({s, name});
    std::sort(sorted.rbegin(), sorted.rend());
    for (const auto& [s, name] : sorted) {
        const auto& row = spread[name];
        table.addRow({name, strformat("%5.1f%%", row[0] * 100),
                      strformat("%5.1f%%", row[1] * 100),
                      strformat("%5.1f%%", row[2] * 100)});
    }
    std::printf("%s\n", table.render().c_str());

    // Shape verdicts.
    bool vdd_linear = true;
    for (size_t d = 0; d < devices.size(); ++d) {
        const auto& row = spread["External supply voltage Vdd"];
        if (row[d] < 0.39 || row[d] > 0.41)
            vdd_linear = false;
    }
    std::printf("shape: power directly proportional to Vdd (40%% "
                "variation): %s\n",
                vdd_linear ? "PASS" : "FAIL");

    bool vint_top = sorted.size() >= 2 &&
                    (sorted[0].second == "External supply voltage Vdd"
                         ? sorted[1].second == "Internal voltage Vint"
                         : sorted[0].second == "Internal voltage Vint");
    std::printf("shape: Vint is the top parameter of the chart: %s\n",
                vint_top ? "PASS" : "FAIL");

    // "Most parameters have little individual influence" — measured on
    // the full ungrouped parameter census (the paper's chart lists
    // every parameter; the table above groups families for
    // readability).
    auto detailed = sensitivityOf(devices[1].desc, SweepMode::Detailed);
    int small = 0;
    for (const SensitivityResult& r : detailed) {
        if (r.spread() < 0.05)
            ++small;
    }
    std::printf("shape: most individual parameters small (<5%%): "
                "%d of %zu: %s\n",
                small, detailed.size(),
                small * 2 > static_cast<int>(detailed.size()) ? "PASS"
                                                              : "FAIL");
    return 0;
}
