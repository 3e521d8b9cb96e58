/**
 * @file
 * Generation ladder tests: the paper's roadmap assumptions (Figs. 11-12)
 * — monotone voltage descent, data-rate doubling per interface, capped
 * core frequency, slowly-improving row timing.
 */
#include <gtest/gtest.h>

#include "tech/disruptive.h"
#include "tech/generations.h"

namespace vdram {
namespace {

TEST(GenerationsTest, LadderSpans170To16nm)
{
    const auto& ladder = generationLadder();
    ASSERT_GE(ladder.size(), 12u);
    EXPECT_NEAR(ladder.front().featureSize, 170e-9, 1e-12);
    EXPECT_NEAR(ladder.back().featureSize, 16e-9, 1e-12);
    EXPECT_EQ(ladder.front().interface, Interface::SDR);
    EXPECT_EQ(ladder.back().interface, Interface::DDR5);
}

TEST(GenerationsTest, NodesStrictlyDecreaseYearsIncrease)
{
    const auto& ladder = generationLadder();
    for (size_t i = 1; i < ladder.size(); ++i) {
        EXPECT_LT(ladder[i].featureSize, ladder[i - 1].featureSize);
        EXPECT_GE(ladder[i].year, ladder[i - 1].year);
    }
}

TEST(GenerationsTest, VoltagesDescendMonotonically)
{
    const auto& ladder = generationLadder();
    for (size_t i = 1; i < ladder.size(); ++i) {
        EXPECT_LE(ladder[i].vdd, ladder[i - 1].vdd);
        EXPECT_LE(ladder[i].vint, ladder[i - 1].vint);
        EXPECT_LE(ladder[i].vpp, ladder[i - 1].vpp);
        EXPECT_LE(ladder[i].vbl, ladder[i - 1].vbl);
    }
}

TEST(GenerationsTest, VoltageOrderingWithinGeneration)
{
    for (const GenerationInfo& g : generationLadder()) {
        EXPECT_LT(g.vbl, g.vint + 1e-9);
        EXPECT_LE(g.vint, g.vdd);
        EXPECT_GT(g.vpp, g.vdd); // always boosted above the supply
    }
}

TEST(GenerationsTest, DataRateGrowsMonotonically)
{
    const auto& ladder = generationLadder();
    for (size_t i = 1; i < ladder.size(); ++i)
        EXPECT_GT(ladder[i].dataRatePerPin, ladder[i - 1].dataRatePerPin);
}

TEST(GenerationsTest, CoreFrequencyCappedAt200MHz)
{
    // Paper assumption: "the maximum core frequency does not increase,
    // so that the higher interface pin datarate is increased by
    // increasing the prefetch."
    for (const GenerationInfo& g : generationLadder()) {
        EXPECT_LE(g.coreFrequency(), 200e6 + 1e3) << g.label();
        EXPECT_GE(g.coreFrequency(), 100e6) << g.label();
    }
}

TEST(GenerationsTest, PrefetchDoublesAcrossInterfaces)
{
    int prefetch_of[6] = {0, 0, 0, 0, 0, 0};
    for (const GenerationInfo& g : generationLadder())
        prefetch_of[static_cast<int>(g.interface)] = g.prefetch;
    EXPECT_EQ(prefetch_of[static_cast<int>(Interface::SDR)], 1);
    EXPECT_EQ(prefetch_of[static_cast<int>(Interface::DDR)], 2);
    EXPECT_EQ(prefetch_of[static_cast<int>(Interface::DDR2)], 4);
    EXPECT_EQ(prefetch_of[static_cast<int>(Interface::DDR3)], 8);
    EXPECT_EQ(prefetch_of[static_cast<int>(Interface::DDR4)], 16);
    EXPECT_EQ(prefetch_of[static_cast<int>(Interface::DDR5)], 32);
}

TEST(GenerationsTest, RowCycleImprovesSlowly)
{
    const auto& ladder = generationLadder();
    // tRC never increases, and improves far more slowly than the data
    // rate (Fig. 12's flat row-timing lines).
    for (size_t i = 1; i < ladder.size(); ++i)
        EXPECT_LE(ladder[i].tRcSeconds, ladder[i - 1].tRcSeconds);
    EXPECT_GT(ladder.back().tRcSeconds, 0.5 * ladder.front().tRcSeconds);
}

TEST(GenerationsTest, LookupHelpers)
{
    EXPECT_NEAR(generationAt(55e-9).featureSize, 55e-9, 1e-12);
    EXPECT_NEAR(generationNear(52e-9).featureSize, 55e-9, 1e-12);
    EXPECT_NEAR(generationNear(200e-9).featureSize, 170e-9, 1e-12);
    EXPECT_NEAR(generationNear(10e-9).featureSize, 16e-9, 1e-12);
}

TEST(GenerationsTest, LabelsAreDescriptive)
{
    EXPECT_EQ(generationAt(55e-9).label(), "DDR3-1333 2Gb 55nm");
    EXPECT_EQ(generationAt(170e-9).label(), "SDR-133 128Mb 170nm");
}

TEST(DisruptiveTest, TableIIRowsPresent)
{
    const auto& changes = disruptiveChanges();
    EXPECT_GE(changes.size(), 8u);
    bool found_cu = false, found_6f2 = false;
    for (const DisruptiveChange& c : changes) {
        if (c.change.find("Cu metallization") != std::string::npos)
            found_cu = true;
        if (c.change.find("6f2") != std::string::npos)
            found_6f2 = true;
    }
    EXPECT_TRUE(found_cu);
    EXPECT_TRUE(found_6f2);
}

TEST(DisruptiveTest, NodeArchitectureTransitions)
{
    // 8F2 folded above 70 nm, 6F2 open at 65-40 nm, 4F2 below.
    NodeArchitecture a170 = nodeArchitecture(170e-9);
    EXPECT_EQ(a170.cellAreaFactorF2, 8);
    EXPECT_TRUE(a170.foldedBitline);
    EXPECT_EQ(a170.bitsPerBitline, 256);

    NodeArchitecture a90 = nodeArchitecture(90e-9);
    EXPECT_EQ(a90.cellAreaFactorF2, 8);
    EXPECT_EQ(a90.bitsPerBitline, 512); // Table II cells-per-BL step

    NodeArchitecture a55 = nodeArchitecture(55e-9);
    EXPECT_EQ(a55.cellAreaFactorF2, 6);
    EXPECT_FALSE(a55.foldedBitline);

    NodeArchitecture a18 = nodeArchitecture(18e-9);
    EXPECT_EQ(a18.cellAreaFactorF2, 4);
    EXPECT_FALSE(a18.foldedBitline);
}

} // namespace
} // namespace vdram
