/**
 * @file
 * E4 — Table III: top-10 ranking of power sensitivity to model
 * parameters for the three sample devices spanning ~2000 to ~2017:
 * 128 Mb SDR 170 nm, 2 Gb DDR3 55 nm, 16 Gb DDR5 18 nm.
 *
 * Shape criteria (the paper's reading of its own table):
 *  - the internal voltage Vint ranks 1 in every generation;
 *  - array-related parameters (bitline voltage/capacitance) rank high in
 *    the SDR part and fall down the ranking toward DDR5;
 *  - wiring and logic parameters (specific wire capacitance, number of
 *    logic gates, logic device widths) climb toward DDR5.
 */
#include <cstdio>
#include <cstdlib>

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

/** Drop Vdd (not shown in the paper's chart) and return the top 10. */
std::vector<SensitivityResult>
topTen(const std::vector<SensitivityResult>& results)
{
    std::vector<SensitivityResult> top;
    for (const SensitivityResult& r : results) {
        if (r.name == "External supply voltage Vdd")
            continue;
        top.push_back(r);
        if (top.size() == 10)
            break;
    }
    return top;
}

int
rankOf(const std::vector<SensitivityResult>& top, const std::string& name)
{
    for (size_t i = 0; i < top.size(); ++i) {
        if (top[i].name == name)
            return static_cast<int>(i) + 1;
    }
    return 99; // outside the top ten
}

} // namespace

int
main()
{
    std::printf("== Table III: top 10 sensitivity ranking ==\n\n");

    auto top_sdr = topTen(sensitivityOf(preset128MbSdr170()));
    auto top_ddr3 = topTen(sensitivityOf(preset2GbDdr3_55()));
    auto top_ddr5 = topTen(sensitivityOf(preset16GbDdr5_18()));

    Table table({"#", "128M SDR 170nm", "2G DDR3 55nm", "16G DDR5 18nm"});
    for (size_t i = 0; i < 10; ++i) {
        table.addRow({strformat("%zu", i + 1),
                      strformat("%s (%.1f%%)", top_sdr[i].name.c_str(),
                                top_sdr[i].spread() * 100),
                      strformat("%s (%.1f%%)", top_ddr3[i].name.c_str(),
                                top_ddr3[i].spread() * 100),
                      strformat("%s (%.1f%%)", top_ddr5[i].name.c_str(),
                                top_ddr5[i].spread() * 100)});
    }
    std::printf("%s\n", table.render().c_str());

    bool vint_first = top_sdr[0].name == "Internal voltage Vint" &&
                      top_ddr3[0].name == "Internal voltage Vint" &&
                      top_ddr5[0].name == "Internal voltage Vint";
    std::printf("shape: Vint ranks #1 in all three generations: %s\n",
                vint_first ? "PASS" : "FAIL");

    // Array terms sink from SDR to DDR5.
    int vbl_sdr = rankOf(top_sdr, "Bitline voltage");
    int vbl_ddr5 = rankOf(top_ddr5, "Bitline voltage");
    int cbl_sdr = rankOf(top_sdr, "Bitline capacitance");
    int cbl_ddr5 = rankOf(top_ddr5, "Bitline capacitance");
    std::printf("shape: bitline voltage sinks (SDR #%d -> DDR5 #%d): "
                "%s\n", vbl_sdr, vbl_ddr5,
                vbl_sdr < vbl_ddr5 ? "PASS" : "FAIL");
    std::printf("shape: bitline capacitance sinks (SDR #%d -> DDR5 "
                "#%d): %s\n", cbl_sdr, cbl_ddr5,
                cbl_sdr < cbl_ddr5 ? "PASS" : "FAIL");

    // Wiring/logic terms climb.
    int wire_sdr = rankOf(top_sdr, "Specific wire capacitance");
    int wire_ddr5 = rankOf(top_ddr5, "Specific wire capacitance");
    int gates_sdr = rankOf(top_sdr, "Number of logic gates");
    int gates_ddr5 = rankOf(top_ddr5, "Number of logic gates");
    std::printf("shape: specific wire capacitance climbs (SDR #%d -> "
                "DDR5 #%d): %s\n", wire_sdr, wire_ddr5,
                wire_ddr5 < wire_sdr ? "PASS" : "FAIL");
    std::printf("shape: number of logic gates climbs (SDR #%d -> DDR5 "
                "#%d): %s\n", gates_sdr, gates_ddr5,
                gates_ddr5 <= gates_sdr ? "PASS" : "FAIL");
    return 0;
}
