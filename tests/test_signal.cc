/**
 * @file
 * Signaling floorplan tests: segment capacitance from block geometry,
 * buffers, multiplexers and length scaling.
 */
#include <gtest/gtest.h>

#include "core/builder.h"
#include "signal/signal_path.h"

namespace vdram {
namespace {

Floorplan
grid3x3()
{
    Floorplan fp;
    fp.setHorizontal({{"A", BlockKind::Array, 2e-3},
                      {"P", BlockKind::Periphery, 1e-3},
                      {"A", BlockKind::Array, 2e-3}});
    fp.setVertical({{"A", BlockKind::Array, 2e-3},
                    {"P", BlockKind::Periphery, 1e-3},
                    {"A", BlockKind::Array, 2e-3}});
    return fp;
}

TEST(SignalTest, BetweenBlocksLengthIsCenterToCenter)
{
    Floorplan fp = grid3x3();
    TechnologyParams tech = referenceTechnology90nm();
    Segment seg;
    seg.from = {0, 0};
    seg.to = {2, 0};
    SegmentLoads loads = computeSegmentLoads(seg, fp, tech);
    // Centers at 1.0 mm and 4.0 mm -> 3 mm.
    EXPECT_NEAR(loads.length, 3e-3, 1e-12);
    EXPECT_NEAR(loads.wireCap, 3e-3 * tech.wireCapSignal,
                loads.wireCap * 1e-9);
    EXPECT_DOUBLE_EQ(loads.deviceCap, 0.0);
}

TEST(SignalTest, DiagonalUsesManhattan)
{
    Floorplan fp = grid3x3();
    TechnologyParams tech = referenceTechnology90nm();
    Segment seg;
    seg.from = {0, 0};
    seg.to = {2, 2};
    SegmentLoads loads = computeSegmentLoads(seg, fp, tech);
    EXPECT_NEAR(loads.length, 6e-3, 1e-12);
}

TEST(SignalTest, InsideBlockUsesFractionAndDirection)
{
    Floorplan fp = grid3x3();
    TechnologyParams tech = referenceTechnology90nm();
    Segment seg;
    seg.insideBlock = true;
    seg.inside = {1, 1};
    seg.fraction = 0.25;
    seg.horizontal = true;
    EXPECT_NEAR(computeSegmentLoads(seg, fp, tech).length, 0.25e-3, 1e-12);
    seg.horizontal = false;
    EXPECT_NEAR(computeSegmentLoads(seg, fp, tech).length, 0.25e-3, 1e-12);
    seg.inside = {0, 1};
    seg.horizontal = true;
    EXPECT_NEAR(computeSegmentLoads(seg, fp, tech).length, 0.5e-3, 1e-12);
}

TEST(SignalTest, BufferAddsDeviceCap)
{
    Floorplan fp = grid3x3();
    TechnologyParams tech = referenceTechnology90nm();
    Segment seg;
    seg.from = {0, 0};
    seg.to = {1, 0};
    double bare = computeSegmentLoads(seg, fp, tech).total();
    seg.bufferWidthP = 19.2e-6;
    seg.bufferWidthN = 9.6e-6;
    SegmentLoads buffered = computeSegmentLoads(seg, fp, tech);
    EXPECT_GT(buffered.total(), bare);
    EXPECT_GT(buffered.deviceCap, 0);
}

TEST(SignalTest, MuxAddsBranchJunctions)
{
    Floorplan fp = grid3x3();
    TechnologyParams tech = referenceTechnology90nm();
    Segment seg;
    seg.insideBlock = true;
    seg.inside = {1, 1};
    double bare = computeSegmentLoads(seg, fp, tech).deviceCap;
    seg.muxFactor = 8;
    double muxed = computeSegmentLoads(seg, fp, tech).deviceCap;
    EXPECT_GT(muxed, bare);
    seg.muxFactor = 16;
    EXPECT_GT(computeSegmentLoads(seg, fp, tech).deviceCap, muxed);
}

TEST(SignalTest, LengthScaleShortensSegment)
{
    Floorplan fp = grid3x3();
    TechnologyParams tech = referenceTechnology90nm();
    Segment seg;
    seg.from = {0, 0};
    seg.to = {2, 0};
    seg.lengthScale = 0.5;
    EXPECT_NEAR(computeSegmentLoads(seg, fp, tech).length, 1.5e-3, 1e-12);
}

TEST(SignalTest, RoleNamesStable)
{
    EXPECT_EQ(signalRoleName(SignalRole::WriteData), "writedata");
    EXPECT_EQ(signalRoleName(SignalRole::Clock), "clock");
}

TEST(SignalDeathTest, RejectsOutOfRangeBlocks)
{
    // Grid mismatches are caught by validateDescription(); reaching the
    // load computation with one is an internal invariant violation.
    Floorplan fp = grid3x3();
    TechnologyParams tech = referenceTechnology90nm();
    Segment seg;
    seg.from = {0, 0};
    seg.to = {5, 0};
    EXPECT_DEATH(computeSegmentLoads(seg, fp, tech),
                 "outside the floorplan");
}

} // namespace
} // namespace vdram
