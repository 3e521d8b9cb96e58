#include "core/json_export.h"

#include "util/json.h"

namespace vdram {

namespace {

void
writePatternPower(JsonWriter& json, const PatternPower& power)
{
    json.beginObject();
    json.key("current_a").value(power.externalCurrent);
    json.key("power_w").value(power.power);
    json.key("loop_time_s").value(power.loopTime);
    json.key("bits_per_loop").value(power.bitsPerLoop);
    json.key("energy_per_bit_j").value(power.energyPerBit);
    json.key("bus_utilization").value(power.busUtilization);

    // Flat enum-indexed arrays: emit every component/op (zeros included)
    // in the stable report order.
    json.key("components").beginObject();
    for (const auto& [component, name] : componentNames())
        json.key(name).value(power.componentPower[component]);
    json.endObject();

    json.key("operations").beginObject();
    for (int o = 0; o < kOpCount; ++o) {
        Op op = static_cast<Op>(o);
        json.key(opName(op)).value(power.operationPower[op]);
    }
    json.endObject();

    json.key("domains").beginObject();
    for (int d = 0; d < kDomainCount; ++d) {
        json.key(domainName(static_cast<Domain>(d)))
            .value(power.domainPower[static_cast<size_t>(d)]);
    }
    json.endObject();
    json.endObject();
}

} // namespace

std::string
modelToJson(const DramPowerModel& model)
{
    const DramDescription& desc = model.description();
    JsonWriter json;
    json.beginObject();
    json.key("name").value(desc.name);
    json.key("feature_size_m").value(desc.tech.featureSize);
    json.key("io_width").value(desc.spec.ioWidth);
    json.key("data_rate_bps").value(desc.spec.dataRate);
    json.key("density_bits").value(desc.spec.densityBits());
    json.key("banks").value(desc.spec.banks());
    json.key("page_bits").value(desc.spec.pageBits());

    AreaReport area = model.area();
    json.key("die").beginObject();
    json.key("width_m").value(area.dieWidth);
    json.key("height_m").value(area.dieHeight);
    json.key("area_m2").value(area.dieArea);
    json.key("array_efficiency").value(area.arrayEfficiency);
    json.key("sa_stripe_share").value(area.saStripeShare);
    json.key("lwd_stripe_share").value(area.lwdStripeShare);
    json.endObject();

    json.key("idd_a").beginObject();
    for (IddMeasure m :
         {IddMeasure::Idd0, IddMeasure::Idd1, IddMeasure::Idd2N,
          IddMeasure::Idd2P, IddMeasure::Idd3N, IddMeasure::Idd3P,
          IddMeasure::Idd4R, IddMeasure::Idd4W, IddMeasure::Idd5,
          IddMeasure::Idd6, IddMeasure::Idd7}) {
        json.key(iddName(m)).value(model.idd(m));
    }
    json.endObject();

    json.key("default_pattern");
    writePatternPower(json, model.evaluateDefault());

    json.endObject();
    return json.str();
}

} // namespace vdram
