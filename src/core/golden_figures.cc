#include "core/golden_figures.h"

#include "core/model.h"
#include "core/sensitivity.h"
#include "core/trends.h"
#include "datasheet/reference_data.h"
#include "presets/presets.h"
#include "runner/campaign.h"
#include "util/json.h"
#include "util/strings.h"

namespace vdram {

namespace {

/** Round-trip-exact double rendering; JsonWriter::value(double) uses
 *  %.9g for human-facing output and would fold distinct doubles. */
JsonWriter&
exactNumber(JsonWriter& json, double value)
{
    return json.rawValue(strformat("%.17g", value));
}

/** Fig. 8/9: the model evaluated at every datasheet band point. */
std::string
verificationFigure(const char* figure,
                   const std::vector<DatasheetPoint>& bands,
                   double feature_size, bool ddr3)
{
    JsonWriter json;
    json.beginObject();
    json.key("figure").value(figure);
    json.key("points").beginArray();
    for (const DatasheetPoint& point : bands) {
        DramDescription desc =
            ddr3 ? preset1GbDdr3(feature_size, point.ioWidth,
                                 point.dataRateMbps)
                 : preset1GbDdr2(feature_size, point.ioWidth,
                                 point.dataRateMbps);
        DramPowerModel model(std::move(desc));
        const double model_ma = model.idd(point.measure) * 1e3;
        json.beginObject();
        json.key("label").value(point.label());
        json.key("measure").value(iddName(point.measure));
        exactNumber(json.key("dataRateMbps"), point.dataRateMbps);
        json.key("ioWidth").value(point.ioWidth);
        exactNumber(json.key("datasheetMinMa"), point.minMa);
        exactNumber(json.key("datasheetMaxMa"), point.maxMa);
        exactNumber(json.key("modelMa"), model_ma);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

/** A figure whose campaign failed: the error in place of the data. */
std::string
errorFigure(const char* figure, const Error& error)
{
    JsonWriter json;
    json.beginObject();
    json.key("figure").value(figure);
    json.key("error").value(error.toString());
    json.endObject();
    return json.str();
}

/** Fig. 10 / Table III: the sensitivity Pareto of the DDR3-1333 part. */
std::string
sensitivityFigure(const char* figure, bool ranking_only)
{
    const DramDescription base = preset1GbDdr3(55e-9, 16, 1333);
    Result<SensitivityCampaign> campaign = runSensitivityCampaign(
        base, 0.20, SweepMode::Grouped, RunnerOptions{});
    if (!campaign.ok())
        return errorFigure(figure, campaign.error());
    // The campaign validated the base, so its pattern power exists.
    const double base_power = paretoPatternPower(base).value();
    const std::vector<SensitivityResult>& results =
        campaign.value().results;
    JsonWriter json;
    json.beginObject();
    json.key("figure").value(figure);
    exactNumber(json.key("basePowerWatts"), base_power);
    json.key("variation").rawValue("0.2");
    json.key(ranking_only ? "ranking" : "parameters").beginArray();
    for (size_t rank = 0; rank < results.size(); ++rank) {
        const SensitivityResult& r = results[rank];
        json.beginObject();
        json.key("rank").value(static_cast<long long>(rank + 1));
        json.key("name").value(r.name);
        exactNumber(json.key("spread"), r.spread());
        if (!ranking_only) {
            exactNumber(json.key("plus"), r.plus);
            exactNumber(json.key("minus"), r.minus);
        }
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

/** Figs. 11-13: one JSON per figure, all from the same trend ladder. */
std::string
trendsFigure(const char* figure,
             const std::vector<TrendPoint>& points)
{
    const bool voltages = std::string(figure) == "fig11_voltage_trends";
    const bool timing = std::string(figure) == "fig12_timing_trends";
    JsonWriter json;
    json.beginObject();
    json.key("figure").value(figure);
    json.key("generations").beginArray();
    for (const TrendPoint& p : points) {
        json.beginObject();
        exactNumber(json.key("featureSize"), p.generation.featureSize);
        json.key("interface")
            .value(interfaceName(p.generation.interface));
        json.key("year").value(p.generation.year);
        if (voltages) {
            exactNumber(json.key("vdd"), p.vdd);
            exactNumber(json.key("vint"), p.vint);
            exactNumber(json.key("vpp"), p.vpp);
            exactNumber(json.key("vbl"), p.vbl);
        } else if (timing) {
            exactNumber(json.key("dataRatePerPin"), p.dataRatePerPin);
            exactNumber(json.key("tRcSeconds"), p.tRcSeconds);
        } else {
            exactNumber(json.key("dieAreaMm2"), p.dieAreaMm2);
            exactNumber(json.key("energyPerBit"), p.energyPerBit);
            exactNumber(json.key("idd0"), p.idd0);
            exactNumber(json.key("idd4r"), p.idd4r);
            exactNumber(json.key("arrayEfficiency"), p.arrayEfficiency);
        }
        json.endObject();
    }
    json.endArray();
    if (!voltages && !timing) {
        TrendSummary summary = summarizeTrends(points);
        exactNumber(json.key("historicalFactorPerGen"),
                    summary.historicalFactorPerGen);
        exactNumber(json.key("forecastFactorPerGen"),
                    summary.forecastFactorPerGen);
    }
    json.endObject();
    return json.str();
}

/** Vendor-spread Monte-Carlo through the batch runner: pins both the
 *  campaign aggregation and the fast path's bit-identical guarantee. */
std::string
monteCarloFigure()
{
    const std::vector<IddMeasure> measures = {
        IddMeasure::Idd0, IddMeasure::Idd2N, IddMeasure::Idd4R,
        IddMeasure::Idd4W};
    RunnerOptions options;
    options.jobs = 1;
    Result<MonteCarloCampaign> campaign = runMonteCarloCampaign(
        preset1GbDdr3(65e-9, 16, 1066), measures, 64, {}, 42, options);
    if (!campaign.ok())
        return errorFigure("mc_vendor_spread", campaign.error());
    JsonWriter json;
    json.beginObject();
    json.key("figure").value("mc_vendor_spread");
    json.key("samples").value(64);
    json.key("seed").value(42);
    json.key("distributions").beginArray();
    for (const IddDistribution& d : campaign.value().distributions) {
        json.beginObject();
        json.key("measure").value(iddName(d.measure));
        exactNumber(json.key("nominal"), d.nominal);
        exactNumber(json.key("mean"), d.mean);
        exactNumber(json.key("minimum"), d.minimum);
        exactNumber(json.key("maximum"), d.maximum);
        exactNumber(json.key("p05"), d.p05);
        exactNumber(json.key("p95"), d.p95);
        json.endObject();
    }
    json.endArray();
    json.key("ok").value(campaign.value().report.ok);
    json.key("quarantined").value(campaign.value().report.quarantined);
    json.endObject();
    return json.str();
}

} // namespace

std::vector<std::string>
goldenFigureNames()
{
    return {"fig8_ddr2_verification", "fig9_ddr3_verification",
            "fig10_sensitivity",      "fig11_voltage_trends",
            "fig12_timing_trends",    "fig13_energy_trends",
            "tab3_sensitivity_ranking", "mc_vendor_spread"};
}

std::vector<GoldenFigure>
computeGoldenFigures()
{
    std::vector<GoldenFigure> figures;
    figures.push_back(
        {"fig8_ddr2_verification",
         verificationFigure("fig8_ddr2_verification",
                            ddr2_1gb_datasheet(), 75e-9, false)});
    figures.push_back(
        {"fig9_ddr3_verification",
         verificationFigure("fig9_ddr3_verification",
                            ddr3_1gb_datasheet(), 65e-9, true)});
    figures.push_back({"fig10_sensitivity",
                       sensitivityFigure("fig10_sensitivity", false)});
    Result<TrendsCampaign> trends = runTrendsCampaign({}, RunnerOptions{});
    for (const char* figure : {"fig11_voltage_trends",
                               "fig12_timing_trends",
                               "fig13_energy_trends"}) {
        figures.push_back(
            {figure, trends.ok()
                         ? trendsFigure(figure, trends.value().points)
                         : errorFigure(figure, trends.error())});
    }
    figures.push_back(
        {"tab3_sensitivity_ranking",
         sensitivityFigure("tab3_sensitivity_ranking", true)});
    figures.push_back({"mc_vendor_spread", monteCarloFigure()});
    return figures;
}

} // namespace vdram
