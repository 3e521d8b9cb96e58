#include "signal/signal_path.h"

#include "util/logging.h"

namespace vdram {

std::string
signalRoleName(SignalRole role)
{
    switch (role) {
    case SignalRole::WriteData: return "writedata";
    case SignalRole::ReadData: return "readdata";
    case SignalRole::RowAddress: return "rowaddress";
    case SignalRole::ColumnAddress: return "columnaddress";
    case SignalRole::Control: return "control";
    case SignalRole::Clock: return "clock";
    }
    return "?";
}

double
computeSegmentLength(const Segment& segment, const Floorplan& floorplan)
{
    double length;

    // Internal invariant: validateDescription() rejects segments whose
    // grid references fall outside the floorplan before any load
    // computation runs.
    if (segment.insideBlock) {
        if (!floorplan.contains(segment.inside))
            panic("signal segment references a block outside the floorplan");
        double dimension = segment.horizontal
            ? floorplan.blockWidth(segment.inside)
            : floorplan.blockHeight(segment.inside);
        length = dimension * segment.fraction;
    } else {
        if (!floorplan.contains(segment.from) ||
            !floorplan.contains(segment.to)) {
            panic("signal segment references a block outside the floorplan");
        }
        length = floorplan.manhattanDistance(segment.from, segment.to);
    }
    return length * segment.lengthScale;
}

SegmentLoads
computeSegmentLoadsAtLength(const Segment& segment, double length,
                            const TechnologyParams& tech)
{
    SegmentLoads loads;
    loads.length = length;

    loads.wireCap = loads.length * tech.wireCapSignal;

    // Buffer at the head of the segment: input gates plus output
    // junctions of the P/N pair.
    if (segment.bufferWidthP > 0 || segment.bufferWidthN > 0) {
        loads.deviceCap +=
            tech.gateCapLogic(segment.bufferWidthP, tech.minLengthLogic) +
            tech.gateCapLogic(segment.bufferWidthN, tech.minLengthLogic) +
            tech.junctionCapOfLogic(segment.bufferWidthP) +
            tech.junctionCapOfLogic(segment.bufferWidthN);
    }

    // Multiplexer / (de)serializer: one pass-device junction per branch.
    if (segment.muxFactor > 1) {
        double branch_junction =
            tech.junctionCapOfLogic(tech.minLengthLogic * 8.0);
        loads.deviceCap += segment.muxFactor * branch_junction;
    }

    return loads;
}

SegmentLoads
computeSegmentLoads(const Segment& segment, const Floorplan& floorplan,
                    const TechnologyParams& tech)
{
    return computeSegmentLoadsAtLength(
        segment, computeSegmentLength(segment, floorplan), tech);
}

} // namespace vdram
