/**
 * @file
 * Extension bench — the vendor spread, explained by Monte Carlo.
 *
 * The paper's verification notes: "As expected the data sheet values
 * show a quite large spread. This is due to the different technologies
 * used to build the DRAMs and differences in the power efficiencies of
 * the approach used by different DRAM vendors." This bench makes that
 * quantitative: vendor-like variations of the technology (8 % sigma),
 * internal voltage trims (3 %), peripheral sizing (15 %) and generator
 * efficiencies (5 %) are sampled around the nominal 1 Gb DDR3, and the
 * resulting IDD percentile bands are compared against the encoded
 * vendor datasheet bands of Fig. 9.
 *
 * Shape criteria: the simulated 5..95 % band has the same order of
 * relative width as the vendor band (tens of percent), and the vendor
 * band overlaps the simulated one for every measure.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "datasheet/reference_data.h"
#include "presets/presets.h"
#include "runner/campaign.h"
#include "util/strings.h"
#include "util/table.h"

using namespace vdram;

namespace {

/** The distribution of one measure over @p samples variants of
 *  @p nominal; exits non-zero when the campaign fails. */
IddDistribution
spreadOf(const DramDescription& nominal, IddMeasure measure, int samples,
         std::uint64_t seed)
{
    Result<MonteCarloCampaign> campaign = runMonteCarloCampaign(
        nominal, {measure}, samples, {}, seed, RunnerOptions{});
    if (!campaign.ok()) {
        std::fprintf(stderr, "%s\n", campaign.error().toString().c_str());
        std::exit(1);
    }
    return campaign.value().distributions.front();
}

} // namespace

int
main()
{
    std::printf("== extension: vendor spread as technology Monte Carlo "
                "==\n\n");

    const int kSamples = 60;
    Table table({"point", "vendor band", "simulated 5..95%", "sim min..max",
                 "overlap"});

    bool all_overlap = true;
    double spread_sum = 0;
    int spread_count = 0;

    for (const DatasheetPoint& point : ddr3_1gb_datasheet()) {
        // Vendors mixed 65 nm and 55 nm parts in this market window —
        // the node choice itself is part of the spread, so the samples
        // split over both nominals and the bands merge.
        IddDistribution dist = spreadOf(
            preset1GbDdr3(65e-9, point.ioWidth, point.dataRateMbps),
            point.measure, kSamples / 2, 1);
        const IddDistribution other = spreadOf(
            preset1GbDdr3(55e-9, point.ioWidth, point.dataRateMbps),
            point.measure, kSamples / 2, 1000);
        dist.minimum = std::min(dist.minimum, other.minimum);
        dist.maximum = std::max(dist.maximum, other.maximum);
        // Merged percentile band: envelope of the two bands.
        dist.p05 = std::min(dist.p05, other.p05);
        dist.p95 = std::max(dist.p95, other.p95);
        dist.mean = 0.5 * (dist.mean + other.mean);

        bool overlap = dist.p95 * 1e3 >= point.minMa &&
                       dist.p05 * 1e3 <= point.maxMa;
        all_overlap &= overlap;
        spread_sum += dist.relativeSpread();
        ++spread_count;

        table.addRow({point.label(),
                      strformat("%.0f..%.0f mA", point.minMa,
                                point.maxMa),
                      strformat("%.0f..%.0f mA", dist.p05 * 1e3,
                                dist.p95 * 1e3),
                      strformat("%.0f..%.0f mA", dist.minimum * 1e3,
                                dist.maximum * 1e3),
                      overlap ? "yes" : "NO"});
    }
    std::printf("%s\n", table.render().c_str());

    double avg_spread = spread_sum / spread_count;
    // Vendor band widths of the encoded data are ~50-60 % relative.
    double vendor_spread = 0;
    for (const DatasheetPoint& p : ddr3_1gb_datasheet())
        vendor_spread += (p.maxMa - p.minMa) / (0.5 * (p.maxMa + p.minMa));
    vendor_spread /= ddr3_1gb_datasheet().size();

    std::printf("average relative spread: simulated %.0f%%, vendor "
                "band %.0f%%\n\n", avg_spread * 100, vendor_spread * 100);
    std::printf("shape: simulated band overlaps the vendor band at "
                "every point: %s\n", all_overlap ? "PASS" : "FAIL");
    std::printf("shape: simulated spread is the same order as the "
                "vendor spread (ratio %.1f in [0.3, 3]): %s\n",
                avg_spread / vendor_spread,
                avg_spread / vendor_spread > 0.3 &&
                        avg_spread / vendor_spread < 3.0
                    ? "PASS"
                    : "FAIL");
    return 0;
}
