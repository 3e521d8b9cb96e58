/**
 * @file
 * Failure-injection tests of the description validator: every rule of
 * validateDescription() is triggered by exactly one corruption of an
 * otherwise valid description, and the diagnostic names the problem.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <ostream>

#include "core/description.h"
#include "core/model.h"
#include "dsl/parser.h"
#include "dsl/writer.h"
#include "presets/presets.h"
#include "tech/technology.h"

namespace vdram {
namespace {

struct Corruption {
    const char* name;
    std::function<void(DramDescription&)> apply;
    const char* expected_fragment;
};

// Print a case by its name. gtest's default dump of the raw bytes holds
// the pointers in the struct, so the listed test names (which ctest takes
// from --gtest_list_tests) would change with every build and every run.
void PrintTo(const Corruption& corruption, std::ostream* os)
{
    *os << corruption.name;
}

class ValidationTest : public ::testing::TestWithParam<Corruption> {};

TEST_P(ValidationTest, CorruptionIsCaught)
{
    DramDescription desc = preset1GbDdr3(55e-9, 16, 1333);
    ASSERT_TRUE(validateDescription(desc).ok());

    GetParam().apply(desc);
    Status status = validateDescription(desc);
    ASSERT_FALSE(status.ok()) << GetParam().name;
    EXPECT_NE(status.error().message.find(GetParam().expected_fragment),
              std::string::npos)
        << GetParam().name << ": got '" << status.error().message << "'";
    // Every rejection carries a stable diagnostic code.
    EXPECT_FALSE(status.error().code.empty()) << GetParam().name;
}

const Corruption kCorruptions[] = {
    {"negative_bitline_cap",
     [](DramDescription& d) { d.tech.bitlineCap = -1e-15; },
     "must be positive"},
    {"zero_cell_cap", [](DramDescription& d) { d.tech.cellCap = 0; },
     "must be positive"},
    {"zero_vdd", [](DramDescription& d) { d.elec.vdd = 0; },
     "voltages must be positive"},
    {"vbl_above_vpp",
     [](DramDescription& d) { d.elec.vbl = d.elec.vpp + 0.1; },
     "bitline voltage above"},
    {"vpp_below_vint",
     [](DramDescription& d) { d.elec.vpp = d.elec.vint - 0.1; },
     "below the logic voltage"},
    {"efficiency_above_one",
     [](DramDescription& d) { d.elec.efficiencyVpp = 1.5; },
     "efficiencies"},
    {"efficiency_zero",
     [](DramDescription& d) { d.elec.efficiencyVbl = 0; },
     "efficiencies"},
    {"negative_constant_current",
     [](DramDescription& d) { d.elec.constantCurrent = -1e-3; },
     "constant current"},
    {"zero_cells_per_line",
     [](DramDescription& d) { d.arch.bitsPerBitline = 0; },
     "cells per line"},
    {"zero_pitch", [](DramDescription& d) { d.arch.wordlinePitch = 0; },
     "pitches"},
    {"zero_stripe", [](DramDescription& d) { d.arch.saStripeWidth = 0; },
     "stripe widths"},
    {"zero_blocks_per_csl",
     [](DramDescription& d) { d.arch.arrayBlocksPerCsl = 0; },
     "column select"},
    {"zero_bank_split",
     [](DramDescription& d) { d.arch.bankSplit = 0; }, "bank split"},
    {"activation_fraction_above_one",
     [](DramDescription& d) { d.arch.pageActivationFraction = 1.5; },
     "activation fraction"},
    {"restore_share_above_one",
     [](DramDescription& d) { d.arch.cellRestoreShare = 1.5; },
     "restore share"},
    {"zero_io_width", [](DramDescription& d) { d.spec.ioWidth = 0; },
     "width and data rate"},
    {"zero_prefetch", [](DramDescription& d) { d.spec.prefetch = 0; },
     "prefetch and burst"},
    {"burst_prefetch_mismatch",
     [](DramDescription& d) {
         d.spec.burstLength = 12;
         d.spec.prefetch = 8;
     },
     "divide each other"},
    {"zero_row_bits",
     [](DramDescription& d) { d.spec.rowAddressBits = 0; },
     "address widths"},
    {"zero_clock",
     [](DramDescription& d) { d.spec.controlClockFrequency = 0; },
     "clock frequencies"},
    {"page_not_divisible",
     [](DramDescription& d) { d.arch.bitsPerLocalWordline = 500; },
     "sub-wordlines"},
    {"rows_not_divisible",
     [](DramDescription& d) { d.arch.bitsPerBitline = 600; },
     "sub-arrays"},
    {"empty_floorplan",
     [](DramDescription& d) { d.floorplan = Floorplan{}; },
     "floorplan"},
    {"no_signals", [](DramDescription& d) { d.signals.clear(); },
     "signal nets"},
    {"signal_out_of_grid",
     [](DramDescription& d) {
         d.signals.front().segments.front().insideBlock = false;
         d.signals.front().segments.front().from = {99, 0};
     },
     "outside the floorplan"},
    {"zero_wire_count",
     [](DramDescription& d) { d.signals.front().wireCount = 0; },
     "no wires"},
    {"negative_gate_count",
     [](DramDescription& d) { d.logicBlocks.front().gateCount = -1; },
     "negative activity"},
    {"bad_layout_density",
     [](DramDescription& d) { d.logicBlocks.front().layoutDensity = 0; },
     "layout density"},
    {"empty_pattern",
     [](DramDescription& d) { d.pattern.loop.clear(); },
     "pattern is empty"},
};

INSTANTIATE_TEST_SUITE_P(
    AllRules, ValidationTest, ::testing::ValuesIn(kCorruptions),
    [](const ::testing::TestParamInfo<Corruption>& info) {
        return std::string(info.param.name);
    });

TEST(ValidationTest2, AllPresetsAreValid)
{
    for (const NamedPreset& preset : namedPresets()) {
        Status status = validateDescription(preset.build());
        EXPECT_TRUE(status.ok())
            << preset.name << ": "
            << (status.ok() ? "" : status.error().toString());
    }
}

TEST(ValidationTest2, MissingSignalRoleCaught)
{
    DramDescription desc = preset1GbDdr3(55e-9, 16, 1333);
    // Drop only the clock net.
    std::vector<SignalNet> kept;
    for (const SignalNet& net : desc.signals) {
        if (net.role != SignalRole::Clock)
            kept.push_back(net);
    }
    desc.signals = std::move(kept);
    Status status = validateDescription(desc);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.error().message.find("clock"), std::string::npos);
}

TEST(ValidationTest2, MultipleDefectsReportedInOneRun)
{
    DramDescription desc = preset1GbDdr3(55e-9, 16, 1333);
    desc.tech.bitlineCap = -1e-15;   // E-TECH-RANGE
    desc.elec.vdd = 0;               // E-ELEC-RANGE
    desc.signals.front().wireCount = 0; // E-SIGNAL-RANGE

    DiagnosticEngine diags;
    validateDescription(desc, diags);
    EXPECT_GE(diags.errorCount(), 3);
    bool tech = false, elec = false, signal = false;
    for (const Diagnostic& d : diags.diagnostics()) {
        if (d.code == "E-TECH-RANGE") tech = true;
        if (d.code == "E-ELEC-RANGE") elec = true;
        if (d.code == "E-SIGNAL-RANGE") signal = true;
    }
    EXPECT_TRUE(tech);
    EXPECT_TRUE(elec);
    EXPECT_TRUE(signal);
}

TEST(ValidationTest2, NonFiniteParametersRejected)
{
    const double bads[] = {std::nan(""),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
    for (double bad : bads) {
        DramDescription desc = preset1GbDdr3(55e-9, 16, 1333);
        desc.tech.cellCap = bad;
        DiagnosticEngine diags;
        validateDescription(desc, diags);
        ASSERT_TRUE(diags.hasErrors()) << bad;
        EXPECT_EQ(diags.firstError().code, "E-TECH-RANGE") << bad;
    }
    // NaN must not slip through sign/range comparisons elsewhere either.
    DramDescription desc = preset1GbDdr3(55e-9, 16, 1333);
    desc.elec.vdd = std::nan("");
    DiagnosticEngine diags;
    validateDescription(desc, diags);
    EXPECT_TRUE(diags.hasErrors());
}

TEST(ValidationTest2, CompletenessMissingSectionIsSingleError)
{
    DramDescription desc = preset1GbDdr3(55e-9, 16, 1333);
    DescriptionSource source;
    source.file = "partial.dram";
    source.sawFloorplanPhysical = true;
    source.sawFloorplanSignaling = true;
    source.sawSpecification = true;
    source.sawElectrical = true;
    source.sawTechnology = false; // whole section missing
    for (const ParamInfo& info : electricalParamRegistry())
        source.providedParams.insert(info.key);

    DiagnosticEngine diags;
    validateDescription(desc, diags, &source);
    int complete_errors = 0, per_param_warnings = 0;
    for (const Diagnostic& d : diags.diagnostics()) {
        if (d.code == "E-COMPLETE-SECTION")
            ++complete_errors;
        if (d.code == "W-COMPLETE-PARAM")
            ++per_param_warnings;
    }
    // One error for the section; no per-parameter warning flood.
    EXPECT_EQ(complete_errors, 1);
    EXPECT_EQ(per_param_warnings, 0);
}

TEST(ValidationTest2, CompletenessMissingParamIsWarning)
{
    DramDescription desc = preset1GbDdr3(55e-9, 16, 1333);
    DescriptionSource source;
    source.file = "partial.dram";
    source.sawFloorplanPhysical = true;
    source.sawFloorplanSignaling = true;
    source.sawSpecification = true;
    source.sawTechnology = true;
    source.sawElectrical = true;
    // Mark every technology parameter as provided except one.
    for (const ParamInfo& info : technologyParamRegistry())
        source.providedParams.insert(info.key);
    source.providedParams.erase("cellcap");
    for (const ParamInfo& info : electricalParamRegistry())
        source.providedParams.insert(info.key);

    DiagnosticEngine diags;
    validateDescription(desc, diags, &source);
    bool warned = false;
    for (const Diagnostic& d : diags.diagnostics()) {
        if (d.code == "W-COMPLETE-PARAM" &&
            d.message.find("cellcap") != std::string::npos) {
            warned = true;
        }
    }
    EXPECT_TRUE(warned);
    EXPECT_FALSE(diags.hasErrors());
}

#ifndef NDEBUG
TEST(ValidationDeathTest, ModelBuildFromUnvalidatedDescriptionAsserts)
{
    // The constructor documents validation as a precondition and does
    // not re-validate (that doubled the cost of every construction).
    // Debug builds keep a canary assert on the invariants the build
    // math divides by.
    DramDescription desc = preset1GbDdr3(55e-9, 16, 1333);
    desc.pattern.loop.clear();
    EXPECT_DEATH(DramPowerModel model(desc), "unvalidated");
}
#endif

TEST(ValidationTest2, CreateRejectsInvalidDescriptionWithoutDying)
{
    DramDescription desc = preset1GbDdr3(55e-9, 16, 1333);
    desc.tech.cellCap = -1;
    Result<DramPowerModel> model = DramPowerModel::create(desc);
    ASSERT_FALSE(model.ok());
    EXPECT_EQ(model.error().code, "E-TECH-RANGE");
}

TEST(ValidationTest2, ThreeSeededDefectsAllReportedWithLocations)
{
    // The acceptance scenario: a description with one syntax defect,
    // one range defect and one grid defect produces all three findings
    // in a single run, each with a code and a location.
    std::string text;
    {
        std::string base = writeDescription(preset1GbDdr3(55e-9, 16, 1333));
        text = base;
    }
    // Seed: corrupt one technology value (syntax), one negative cap
    // (range) and one out-of-grid segment reference (consistency).
    size_t p = text.find("cellcap=");
    ASSERT_NE(p, std::string::npos);
    size_t eol = text.find('\n', p);
    ASSERT_NE(eol, std::string::npos);
    text.replace(p, eol - p, "cellcap=zzzz");
    p = text.find("bitlinecap=");
    ASSERT_NE(p, std::string::npos);
    text.insert(p + std::string("bitlinecap=").size(), "-");
    p = text.find("start=");
    ASSERT_NE(p, std::string::npos);
    size_t ref = p + std::string("start=").size();
    size_t ref_end = text.find_first_of(" \n", ref);
    ASSERT_NE(ref_end, std::string::npos);
    text.replace(ref, ref_end - ref, "9_9");

    DiagnosticEngine diags;
    ParsedDescription parsed =
        parseDescriptionDiag(text, diags, "seeded.dram");
    validateDescription(parsed.description, diags, &parsed.source);

    bool syntax = false, range = false, grid = false;
    for (const Diagnostic& d : diags.diagnostics()) {
        if (d.severity != Severity::Error)
            continue;
        EXPECT_FALSE(d.code.empty());
        EXPECT_GT(d.location.line, 0) << d.message;
        if (d.code == "E-SYNTAX-VALUE") syntax = true;
        if (d.code == "E-TECH-RANGE") range = true;
        if (d.code == "E-FLOORPLAN-GRID") grid = true;
    }
    EXPECT_TRUE(syntax);
    EXPECT_TRUE(range);
    EXPECT_TRUE(grid);
    EXPECT_GE(diags.errorCount(), 3);
}

} // namespace
} // namespace vdram
