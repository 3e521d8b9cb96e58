/**
 * @file
 * Monte-Carlo tests: determinism, distribution sanity, variation
 * scaling and validity of the sampled variants.
 */
#include <gtest/gtest.h>

#include "presets/presets.h"
#include "runner/campaign.h"

namespace vdram {
namespace {

DramDescription
nominal()
{
    return preset1GbDdr3(55e-9, 16, 1333);
}

/** A serial seed-1 campaign over the nominal part. */
Result<MonteCarloCampaign>
campaign(const std::vector<IddMeasure>& measures, int samples,
         const VariationModel& variation = {})
{
    return runMonteCarloCampaign(nominal(), measures, samples, variation,
                                 1, RunnerOptions{});
}

TEST(MonteCarloTest, DeterministicPerSeed)
{
    DramDescription a = sampleVariant(nominal(), {}, 42);
    DramDescription b = sampleVariant(nominal(), {}, 42);
    EXPECT_DOUBLE_EQ(a.tech.bitlineCap, b.tech.bitlineCap);
    EXPECT_DOUBLE_EQ(a.elec.vint, b.elec.vint);

    DramDescription c = sampleVariant(nominal(), {}, 43);
    EXPECT_NE(a.tech.bitlineCap, c.tech.bitlineCap);
}

TEST(MonteCarloTest, VariantsStayValid)
{
    for (unsigned seed = 1; seed <= 40; ++seed) {
        DramDescription variant = sampleVariant(nominal(), {}, seed);
        Status status = validateDescription(variant);
        EXPECT_TRUE(status.ok())
            << "seed " << seed << ": "
            << (status.ok() ? "" : status.error().toString());
    }
}

TEST(MonteCarloTest, CountsAndRatiosUntouched)
{
    DramDescription base = nominal();
    DramDescription variant = sampleVariant(base, {}, 7);
    EXPECT_DOUBLE_EQ(variant.tech.bitsPerColumnSelect,
                     base.tech.bitsPerColumnSelect);
    EXPECT_DOUBLE_EQ(variant.tech.predecodeMasterWordline,
                     base.tech.predecodeMasterWordline);
    EXPECT_DOUBLE_EQ(variant.elec.vdd, base.elec.vdd); // spec rail
    EXPECT_EQ(variant.spec.ioWidth, base.spec.ioWidth);
}

TEST(MonteCarloTest, DistributionBracketsNominal)
{
    Result<MonteCarloCampaign> run = campaign({IddMeasure::Idd0}, 40);
    ASSERT_TRUE(run.ok());
    const std::vector<IddDistribution>& dists = run.value().distributions;
    ASSERT_EQ(dists.size(), 1u);
    const IddDistribution& d = dists.front();
    EXPECT_LT(d.minimum, d.nominal);
    EXPECT_GT(d.maximum, d.nominal);
    EXPECT_LE(d.p05, d.mean);
    EXPECT_GE(d.p95, d.mean);
    EXPECT_LE(d.minimum, d.p05);
    EXPECT_GE(d.maximum, d.p95);
    EXPECT_GT(d.relativeSpread(), 0.03);
    EXPECT_LT(d.relativeSpread(), 1.0);
}

TEST(MonteCarloTest, WiderVariationWiderBand)
{
    VariationModel narrow;
    narrow.technologySigma = 0.02;
    narrow.logicSigma = 0.03;
    narrow.voltageSigma = 0.01;
    narrow.efficiencySigma = 0.01;
    VariationModel wide;
    wide.technologySigma = 0.15;
    wide.logicSigma = 0.30;

    Result<MonteCarloCampaign> d_narrow =
        campaign({IddMeasure::Idd4R}, 40, narrow);
    Result<MonteCarloCampaign> d_wide =
        campaign({IddMeasure::Idd4R}, 40, wide);
    ASSERT_TRUE(d_narrow.ok());
    ASSERT_TRUE(d_wide.ok());
    EXPECT_GT(d_wide.value().distributions.front().relativeSpread(),
              2.0 * d_narrow.value().distributions.front().relativeSpread());
}

TEST(MonteCarloTest, MultipleMeasuresInOneRun)
{
    Result<MonteCarloCampaign> run =
        campaign({IddMeasure::Idd0, IddMeasure::Idd4R}, 20);
    ASSERT_TRUE(run.ok());
    const std::vector<IddDistribution>& dists = run.value().distributions;
    ASSERT_EQ(dists.size(), 2u);
    EXPECT_EQ(dists[0].measure, IddMeasure::Idd0);
    EXPECT_EQ(dists[1].measure, IddMeasure::Idd4R);
    EXPECT_GT(dists[1].mean, dists[0].mean);
}

} // namespace
} // namespace vdram
