/**
 * @file
 * Trend analysis tests (Figs. 11-13): energy per bit falls monotonically
 * down the ladder and die areas stay in the manufacturable band. The
 * per-generation improvement factors are gated by the Fig. 13 entry of
 * the paper-artifact registry (tests/test_paper_artifacts.cc).
 */
#include <gtest/gtest.h>

#include "runner/campaign.h"

namespace vdram {
namespace {

class TrendTest : public ::testing::Test {
  protected:
    static void SetUpTestSuite()
    {
        campaign_ = new Result<TrendsCampaign>(
            runTrendsCampaign({}, RunnerOptions{}));
    }
    static void TearDownTestSuite()
    {
        delete campaign_;
        campaign_ = nullptr;
    }
    void SetUp() override
    {
        ASSERT_TRUE(campaign_->ok()) << campaign_->error().toString();
        points_ = &campaign_->value().points;
    }

    static Result<TrendsCampaign>* campaign_;
    const std::vector<TrendPoint>* points_ = nullptr;
};

Result<TrendsCampaign>* TrendTest::campaign_ = nullptr;

TEST_F(TrendTest, CoversFullLadder)
{
    EXPECT_EQ(points_->size(), generationLadder().size());
}

TEST_F(TrendTest, EnergyPerBitFallsMonotonically)
{
    for (size_t i = 1; i < points_->size(); ++i) {
        EXPECT_LT((*points_)[i].energyPerBit,
                  (*points_)[i - 1].energyPerBit)
            << (*points_)[i].generation.label();
    }
}

TEST_F(TrendTest, EnergyPerBitMagnitudesPlausible)
{
    // SDR-era: hundreds of pJ/bit; 44 nm DDR3: tens; 16 nm DDR5: ~10.
    EXPECT_GT(points_->front().energyPerBit, 100e-12);
    EXPECT_LT(points_->front().energyPerBit, 2000e-12);
    EXPECT_LT(points_->back().energyPerBit, 30e-12);
    EXPECT_GT(points_->back().energyPerBit, 1e-12);
}

TEST_F(TrendTest, DieAreasStayManufacturable)
{
    // Paper Section IV.C: densities chosen so dies are ~40-60 mm^2; our
    // synthesized floorplans must stay near that band.
    for (const TrendPoint& p : *points_) {
        EXPECT_GT(p.dieAreaMm2, 20.0) << p.generation.label();
        EXPECT_LT(p.dieAreaMm2, 95.0) << p.generation.label();
    }
}

TEST_F(TrendTest, VoltageColumnsMatchLadder)
{
    for (size_t i = 0; i < points_->size(); ++i) {
        const TrendPoint& p = (*points_)[i];
        EXPECT_DOUBLE_EQ(p.vdd, p.generation.vdd);
        EXPECT_DOUBLE_EQ(p.vbl, p.generation.vbl);
    }
}

TEST_F(TrendTest, CurrentsGrowWithBandwidthDespiteShrink)
{
    // IDD4R rises down the ladder: bandwidth grows ~48x while voltage
    // only falls ~3x — absolute read current goes up even as energy per
    // bit collapses.
    EXPECT_GT(points_->back().idd4r, points_->front().idd4r);
}

TEST_F(TrendTest, ArrayEfficiencyReasonable)
{
    for (const TrendPoint& p : *points_) {
        EXPECT_GT(p.arrayEfficiency, 0.35) << p.generation.label();
        EXPECT_LT(p.arrayEfficiency, 0.80) << p.generation.label();
    }
}

} // namespace
} // namespace vdram
