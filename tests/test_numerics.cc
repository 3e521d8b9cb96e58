/** @file Numeric helper tests: curves, step factors. */
#include <gtest/gtest.h>

#include <cmath>

#include "util/numerics.h"

namespace vdram {
namespace {

TEST(CurveTest, LogInterpolationIsGeometric)
{
    Curve c;
    c.x = {1.0, 100.0};
    c.y = {1.0, 100.0};
    // Log-log interpolation of y=x hits the geometric midpoint.
    EXPECT_NEAR(c.atLog(10.0), 10.0, 1e-9);
}

TEST(StepFactorTest, ConstantFactorSeries)
{
    // 100, 50, 25: factor 2 per step.
    EXPECT_NEAR(averageStepFactor({100, 50, 25}), 2.0, 1e-12);
    // Mixed factors: geometric mean.
    EXPECT_NEAR(averageStepFactor({100, 50, 12.5}), std::sqrt(2.0 * 4.0),
                1e-12);
    EXPECT_DOUBLE_EQ(averageStepFactor({42}), 1.0);
}

TEST(RelDiffTest, Basics)
{
    EXPECT_DOUBLE_EQ(relativeDifference(0, 0), 0.0);
    EXPECT_NEAR(relativeDifference(100, 110), 10.0 / 110.0, 1e-12);
}

} // namespace
} // namespace vdram
