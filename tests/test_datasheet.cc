/**
 * @file
 * Datasheet subsystem tests: reference band integrity and the
 * CACTI-lite flat-array comparator.
 */
#include <gtest/gtest.h>

#include "core/model.h"
#include "datasheet/cacti_lite.h"
#include "datasheet/reference_data.h"
#include "presets/presets.h"

namespace vdram {
namespace {

TEST(ReferenceDataTest, BandsAreWellFormed)
{
    for (const auto* set : {&ddr2_1gb_datasheet(), &ddr3_1gb_datasheet()}) {
        EXPECT_EQ(set->size(), 9u);
        for (const DatasheetPoint& p : *set) {
            EXPECT_GT(p.minMa, 0);
            EXPECT_GT(p.maxMa, p.minMa);
            // The paper: "the data sheet values show a quite large
            // spread" — at least 30 % between vendors.
            EXPECT_GT(p.maxMa / p.minMa, 1.3) << p.label();
        }
    }
}

TEST(ReferenceDataTest, LookupFindsExactRowsOnly)
{
    Result<DatasheetPoint> hit = lookupDatasheetPoint(
        ddr3_1gb_datasheet(), IddMeasure::Idd0, 1333, 16);
    ASSERT_TRUE(hit.ok()) << hit.error().toString();
    EXPECT_DOUBLE_EQ(hit.value().minMa, 65);
    EXPECT_DOUBLE_EQ(hit.value().maxMa, 105);

    // IDD6 is binned by temperature grade, not speed grade: the row is
    // absent and must come back as a diagnostic, never a neighbour.
    Result<DatasheetPoint> idd6 = lookupDatasheetPoint(
        ddr3_1gb_datasheet(), IddMeasure::Idd6, 1333, 16);
    ASSERT_FALSE(idd6.ok());
    EXPECT_EQ(idd6.error().code, "E-DATASHEET-MISS");

    // Near-miss on rate or width is a miss too (no silent clamping).
    Result<DatasheetPoint> rate = lookupDatasheetPoint(
        ddr3_1gb_datasheet(), IddMeasure::Idd0, 1334, 16);
    ASSERT_FALSE(rate.ok());
    EXPECT_EQ(rate.error().code, "E-DATASHEET-MISS");
}

TEST(ReferenceDataTest, BandTargetInterpolatesAndRejectsBadInput)
{
    const DatasheetPoint band{IddMeasure::Idd4R, 1333, 16, 145, 235};
    EXPECT_DOUBLE_EQ(bandTargetMa(band, 0.0).value(), 145);
    EXPECT_DOUBLE_EQ(bandTargetMa(band, 0.5).value(), 190);
    EXPECT_DOUBLE_EQ(bandTargetMa(band, 1.0).value(), 235);

    // A zero-width (min == max) row is a legitimate single-vendor
    // measurement: every edge returns the one value.
    const DatasheetPoint pin{IddMeasure::Idd0, 800, 8, 90, 90};
    EXPECT_DOUBLE_EQ(bandTargetMa(pin, 0.0).value(), 90);
    EXPECT_DOUBLE_EQ(bandTargetMa(pin, 1.0).value(), 90);

    // Malformed bands and out-of-range edges are diagnostics, not
    // clamps.
    const DatasheetPoint inverted{IddMeasure::Idd0, 800, 8, 105, 65};
    Result<double> bad = bandTargetMa(inverted, 0.5);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, "E-DATASHEET-BAND");

    const DatasheetPoint negative{IddMeasure::Idd0, 800, 8, -5, 10};
    ASSERT_FALSE(bandTargetMa(negative, 0.5).ok());

    ASSERT_FALSE(bandTargetMa(band, -0.1).ok());
    Result<double> outside = bandTargetMa(band, 1.1);
    ASSERT_FALSE(outside.ok());
    EXPECT_EQ(outside.error().code, "E-DATASHEET-BAND");
}

TEST(ReferenceDataTest, CurrentsGrowWithRateAndWidth)
{
    // Within each measure the encoded points go x4 -> x8 -> x16 with
    // rising data rate; the band must rise with them.
    for (const auto* set : {&ddr2_1gb_datasheet(), &ddr3_1gb_datasheet()}) {
        for (size_t i = 1; i < set->size(); ++i) {
            const DatasheetPoint& prev = (*set)[i - 1];
            const DatasheetPoint& cur = (*set)[i];
            if (prev.measure != cur.measure)
                continue;
            EXPECT_GE(cur.minMa, prev.minMa) << cur.label();
            EXPECT_GE(cur.maxMa, prev.maxMa) << cur.label();
        }
    }
}

TEST(ReferenceDataTest, ReadsCostMoreThanWritesInDatasheets)
{
    // Vendor datasheets rate IDD4R slightly above IDD4W.
    const auto& set = ddr3_1gb_datasheet();
    for (size_t i = 0; i < 3; ++i) {
        const DatasheetPoint& rd = set[3 + i];
        const DatasheetPoint& wr = set[6 + i];
        ASSERT_EQ(rd.measure, IddMeasure::Idd4R);
        ASSERT_EQ(wr.measure, IddMeasure::Idd4W);
        EXPECT_GE(rd.maxMa, wr.maxMa);
    }
}

TEST(ReferenceDataTest, LabelsMatchPaperAxisStyle)
{
    EXPECT_EQ(ddr2_1gb_datasheet()[0].label(), "IDD0 533 x4");
    EXPECT_EQ(ddr3_1gb_datasheet()[5].label(), "IDD4R 1333 x16");
}

TEST(CactiLiteTest, FlatArrayGrosslyOverestimatesActivate)
{
    // Without the hierarchical sub-array structure the bitline spans the
    // whole bank: activation energy explodes — the reason hierarchical
    // modeling matters (and why hierarchical wordlines/data lines were
    // adopted in the 1990s).
    DramDescription desc = preset1GbDdr3(55e-9, 16, 1333);
    DramPowerModel model(desc);
    FlatArrayEstimate flat = computeFlatArrayEstimate(desc);

    double hierarchical_act =
        model.operations().activate.externalEnergy(desc.elec);
    EXPECT_GT(flat.activateEnergy, 3.0 * hierarchical_act);
    EXPECT_GT(flat.flatBitlineCap, 10 * desc.tech.bitlineCap);
}

TEST(CactiLiteTest, EstimatesArePositiveAndOrdered)
{
    DramDescription desc = preset2GbDdr3_55();
    FlatArrayEstimate flat = computeFlatArrayEstimate(desc);
    EXPECT_GT(flat.activateEnergy, 0);
    EXPECT_GT(flat.readEnergy, 0);
    EXPECT_GT(flat.activateEnergy, flat.readEnergy);
}

} // namespace
} // namespace vdram
