#include "core/sensitivity.h"

#include <algorithm>
#include <cmath>

#include "core/model.h"
#include "protocol/idd.h"

namespace vdram {

double
SensitivityResult::spread() const
{
    return std::fabs(plus - minus);
}

namespace {

SweepParam
techParam(const ParamInfo& info)
{
    return SweepParam{
        info.name,
        [&info](DramDescription& d, double factor) {
            double value = getParam(info, d.tech, d.elec);
            setParam(info, d.tech, d.elec, value * factor);
        }};
}

void
appendElectrical(std::vector<SweepParam>& params)
{
    params.push_back({"External supply voltage Vdd",
                      [](DramDescription& d, double f) { d.elec.vdd *= f; }});
    params.push_back({"Internal voltage Vint",
                      [](DramDescription& d, double f) {
                          d.elec.vint *= f;
                      }});
    params.push_back({"Bitline voltage",
                      [](DramDescription& d, double f) { d.elec.vbl *= f; }});
    params.push_back({"Wordline voltage Vpp",
                      [](DramDescription& d, double f) { d.elec.vpp *= f; }});
    params.push_back({"Generator efficiency Vint",
                      [](DramDescription& d, double f) {
                          d.elec.efficiencyVint =
                              std::min(1.0, d.elec.efficiencyVint * f);
                      }});
    params.push_back({"Generator efficiency Vbl",
                      [](DramDescription& d, double f) {
                          d.elec.efficiencyVbl =
                              std::min(1.0, d.elec.efficiencyVbl * f);
                      }});
    params.push_back({"Pump efficiency Vpp",
                      [](DramDescription& d, double f) {
                          d.elec.efficiencyVpp =
                              std::min(1.0, d.elec.efficiencyVpp * f);
                      }});
    params.push_back({"Constant current adder",
                      [](DramDescription& d, double f) {
                          d.elec.constantCurrent *= f;
                      }});
}

void
appendLogicAggregates(std::vector<SweepParam>& params)
{
    auto forAllBlocks = [](void (*mutate)(LogicBlock&, double)) {
        return [mutate](DramDescription& d, double f) {
            for (LogicBlock& block : d.logicBlocks)
                mutate(block, f);
        };
    };
    params.push_back({"Number of logic gates",
                      forAllBlocks([](LogicBlock& b, double f) {
                          b.gateCount *= f;
                      })});
    params.push_back({"Width NFET logic",
                      forAllBlocks([](LogicBlock& b, double f) {
                          b.avgWidthN *= f;
                      })});
    params.push_back({"Width PFET logic",
                      forAllBlocks([](LogicBlock& b, double f) {
                          b.avgWidthP *= f;
                      })});
    params.push_back({"Logic device density",
                      forAllBlocks([](LogicBlock& b, double f) {
                          // Denser layout -> smaller block -> shorter
                          // local wires; density is capped at 1.
                          b.layoutDensity = std::min(1.0,
                                                     b.layoutDensity * f);
                      })});
    params.push_back({"Logic wiring density",
                      forAllBlocks([](LogicBlock& b, double f) {
                          b.wiringDensity *= f;
                      })});
    params.push_back({"Logic toggle rate",
                      forAllBlocks([](LogicBlock& b, double f) {
                          b.toggleRate *= f;
                      })});
}

void
appendArchitecture(std::vector<SweepParam>& params)
{
    params.push_back({"Sense-amplifier stripe width",
                      [](DramDescription& d, double f) {
                          d.arch.saStripeWidth *= f;
                      }});
    params.push_back({"Local wordline driver stripe width",
                      [](DramDescription& d, double f) {
                          d.arch.lwdStripeWidth *= f;
                      }});
    params.push_back({"Wordline pitch",
                      [](DramDescription& d, double f) {
                          d.arch.wordlinePitch *= f;
                      }});
    params.push_back({"Bitline pitch",
                      [](DramDescription& d, double f) {
                          d.arch.bitlinePitch *= f;
                      }});
}

} // namespace

std::vector<SweepParam>
sweepParameters(SweepMode mode)
{
    std::vector<SweepParam> params;
    // Tag each block with the value groups its mutators touch so the
    // campaign fast path re-derives only the stages those groups feed.
    auto tagFrom = [&params](size_t start, DirtyMask dirty) {
        for (size_t i = start; i < params.size(); ++i)
            params[i].dirty = dirty;
    };

    size_t mark = params.size();
    appendElectrical(params);
    tagFrom(mark, kDirtyElectrical);

    mark = params.size();
    if (mode == SweepMode::Detailed) {
        for (const ParamInfo& info : technologyParamRegistry())
            params.push_back(techParam(info));
    } else {
        // Table III grouping: oxides, wire caps and device families are
        // swept together; array-specific parameters stay individual.
        params.push_back({"Gate oxide thickness",
                          [](DramDescription& d, double f) {
                              d.tech.gateOxideLogic *= f;
                              d.tech.gateOxideHighVoltage *= f;
                              d.tech.gateOxideCell *= f;
                          }});
        params.push_back({"Specific wire capacitance",
                          [](DramDescription& d, double f) {
                              d.tech.wireCapSignal *= f;
                              d.tech.wireCapMasterWordline *= f;
                              d.tech.wireCapLocalWordline *= f;
                          }});
        params.push_back({"Junction capacitance logic",
                          [](DramDescription& d, double f) {
                              d.tech.junctionCapLogic *= f;
                          }});
        params.push_back({"Junction capacitance high voltage",
                          [](DramDescription& d, double f) {
                              d.tech.junctionCapHighVoltage *= f;
                          }});
        params.push_back({"Bitline capacitance",
                          [](DramDescription& d, double f) {
                              d.tech.bitlineCap *= f;
                          }});
        params.push_back({"Cell capacitance",
                          [](DramDescription& d, double f) {
                              d.tech.cellCap *= f;
                          }});
        params.push_back({"Sense-amplifier device sizes",
                          [](DramDescription& d, double f) {
                              d.tech.widthSaSenseN *= f;
                              d.tech.widthSaSenseP *= f;
                              d.tech.widthSaEqualize *= f;
                              d.tech.widthSaBitSwitch *= f;
                              d.tech.widthSaBitlineMux *= f;
                              d.tech.widthSaSetN *= f;
                              d.tech.widthSaSetP *= f;
                          }});
        params.push_back({"Row circuit device sizes",
                          [](DramDescription& d, double f) {
                              d.tech.widthMwlDecoderN *= f;
                              d.tech.widthMwlDecoderP *= f;
                              d.tech.widthWordlineControlN *= f;
                              d.tech.widthWordlineControlP *= f;
                              d.tech.widthSwdN *= f;
                              d.tech.widthSwdP *= f;
                              d.tech.widthSwdRestoreN *= f;
                          }});
        params.push_back({"Cell access transistor size",
                          [](DramDescription& d, double f) {
                              d.tech.widthCellTransistor *= f;
                              d.tech.lengthCellTransistor *= f;
                          }});
        params.push_back({"Minimum gate length logic",
                          [](DramDescription& d, double f) {
                              d.tech.minLengthLogic *= f;
                          }});
    }
    tagFrom(mark, kDirtyTechnology);

    mark = params.size();
    appendLogicAggregates(params);
    tagFrom(mark, kDirtyLogicBlocks);

    // Architecture mutators resize the array structure itself; they keep
    // the conservative kDirtyStructure default (full validate + rebuild).
    appendArchitecture(params);
    return params;
}

Result<double>
paretoPatternPower(const DramDescription& desc)
{
    Result<DramPowerModel> model = DramPowerModel::create(desc);
    if (!model.ok())
        return model.error();
    Pattern pattern =
        makeParetoPattern(desc.spec, desc.timing);
    return model.value().evaluate(pattern).power;
}

} // namespace vdram
