/**
 * @file
 * The signaling floorplan (paper Section III.B.2): busses built from wire
 * segments running between block centers or inside blocks, with optional
 * re-drive buffers and multiplexers/serializers inserted along the path.
 * For each segment the model computes the wire capacitance (length times
 * specific capacitance) and the device capacitance (buffer gate +
 * junction, multiplexer junctions).
 */
#ifndef VDRAM_SIGNAL_SIGNAL_PATH_H
#define VDRAM_SIGNAL_SIGNAL_PATH_H

#include <string>
#include <vector>

#include "floorplan/floorplan.h"
#include "tech/technology.h"

namespace vdram {

/** Which bus a signal net belongs to (drives when/how often it toggles). */
enum class SignalRole {
    WriteData,     ///< serializer/pads -> banks
    ReadData,      ///< banks -> serializer/pads
    RowAddress,    ///< row + bank address to the row logic
    ColumnAddress, ///< column + bank address to the column logic
    Control,       ///< command/control signals
    Clock,         ///< clock distribution
};

/** Number of SignalRole values (for flat role-indexed caches). */
constexpr int kSignalRoleCount = 6;

/** Name of a signal role ("writedata", "clock", ...). */
std::string signalRoleName(SignalRole role);

/** One wire segment of a signal net. */
struct Segment {
    /** Segment inside one block (true) or between two block centers. */
    bool insideBlock = false;
    /** Between-blocks: endpoints. */
    GridRef from, to;
    /** Inside-block: the block and the fraction of its dimension the
     *  segment covers ("inside=0_2 fraction=25% dir=h"). */
    GridRef inside;
    double fraction = 0.25;
    bool horizontal = true;
    /** Re-drive buffer at the head of the segment; 0 width = no buffer
     *  ("PchW=19.2 NchW=9.6", in micrometres in the DSL). */
    double bufferWidthP = 0;
    double bufferWidthN = 0;
    /** Serialization factor change at the head of the segment ("mux=1:8"
     *  gives 8). 1 = plain wire. */
    double muxFactor = 1;
    /** Length multiplier, used by architecture studies that shorten a
     *  bus without moving blocks (e.g. segmented data lines). */
    double lengthScale = 1.0;
    /** 1-based DSL line the segment came from; 0 when programmatic.
     *  Used by validation diagnostics only. */
    int sourceLine = 0;
};

/** A named bus: several identical wires following the same segments. */
struct SignalNet {
    std::string name;
    SignalRole role = SignalRole::Control;
    /** Parallel wires in the bus. */
    int wireCount = 1;
    /** Average toggles per wire per relevant event (0.5 for random data,
     *  2.0 for a clock wire per cycle). */
    double toggleRate = 0.5;
    std::vector<Segment> segments;
};

/** Capacitance of one segment. */
struct SegmentLoads {
    double length = 0;
    double wireCap = 0;
    double deviceCap = 0;

    double total() const { return wireCap + deviceCap; }
};

/** Routed length of one segment on a resolved floorplan (lengthScale
 *  applied). Depends only on the segment and the floorplan — callers on
 *  the delta-evaluation fast path cache it across technology-only
 *  perturbations. */
double computeSegmentLength(const Segment& segment,
                            const Floorplan& floorplan);

/** Loads of a segment whose routed length is already known.
 *  computeSegmentLoads() is exactly this at computeSegmentLength(). */
SegmentLoads computeSegmentLoadsAtLength(const Segment& segment,
                                         double length,
                                         const TechnologyParams& tech);

/** Compute the loads of one segment on a resolved floorplan. */
SegmentLoads computeSegmentLoads(const Segment& segment,
                                 const Floorplan& floorplan,
                                 const TechnologyParams& tech);

} // namespace vdram

#endif // VDRAM_SIGNAL_SIGNAL_PATH_H
