/**
 * @file
 * Diagnostics engine tests: accumulation, the error cap, text/JSON
 * rendering, legacy Error interop, and the parser's multi-error
 * recovery — the Fig. 4 "report everything in one run" contract.
 */
#include <gtest/gtest.h>

#include "dsl/parser.h"
#include "util/diag.h"

namespace vdram {
namespace {

TEST(DiagnosticEngineTest, AccumulatesMixedSeverities)
{
    DiagnosticEngine diags;
    diags.error("E-TECH-RANGE", "bad cap", {"a.dram", 3, 7});
    diags.warning("W-TECH-PLAUSIBLE", "odd cap", {"a.dram", 4, 1});
    diags.note("N-COMPLETE-PATTERN", "default pattern used");
    diags.error("E-SPEC-RANGE", "bad width");

    EXPECT_EQ(diags.errorCount(), 2);
    EXPECT_EQ(diags.warningCount(), 1);
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_FALSE(diags.errorLimitReached());
    ASSERT_EQ(diags.diagnostics().size(), 4u);
    EXPECT_EQ(diags.diagnostics()[0].code, "E-TECH-RANGE");
    EXPECT_EQ(diags.diagnostics()[2].severity, Severity::Note);
}

TEST(DiagnosticEngineTest, FirstErrorSkipsWarnings)
{
    DiagnosticEngine diags;
    diags.warning("W-TECH-PLAUSIBLE", "odd", {"a.dram", 2, 0});
    diags.error("E-ELEC-RANGE", "bad voltage", {"a.dram", 9, 3});
    Error first = diags.firstError();
    EXPECT_EQ(first.code, "E-ELEC-RANGE");
    EXPECT_EQ(first.message, "bad voltage");
    EXPECT_EQ(first.file, "a.dram");
    EXPECT_EQ(first.line, 9);
    EXPECT_EQ(first.column, 3);
}

TEST(DiagnosticEngineTest, ErrorCapAppendsLimitDiagnostic)
{
    DiagnosticEngine diags(5);
    for (int i = 0; i < 10; ++i)
        diags.error("E-SYNTAX-ITEM", "boom");
    EXPECT_TRUE(diags.errorLimitReached());
    // 5 real errors plus the synthetic E-DIAG-LIMIT marker.
    ASSERT_EQ(diags.diagnostics().size(), 6u);
    EXPECT_EQ(diags.diagnostics().back().code, "E-DIAG-LIMIT");
    // Nothing is appended after the cap, not even warnings.
    diags.warning("W-TECH-PLAUSIBLE", "late");
    EXPECT_EQ(diags.diagnostics().size(), 6u);
}

TEST(DiagnosticEngineTest, RenderTextShowsLocationSeverityAndCode)
{
    DiagnosticEngine diags;
    diags.error("E-TECH-RANGE", "cap is negative", {"dev.dram", 12, 5});
    std::string text = diags.renderText();
    EXPECT_NE(text.find("dev.dram:12:5: error: cap is negative "
                        "[E-TECH-RANGE]"),
              std::string::npos);
}

TEST(DiagnosticEngineTest, RenderJsonIsWellFormed)
{
    DiagnosticEngine diags;
    diags.error("E-TECH-RANGE", "cap \"x\" bad", {"dev.dram", 12, 5});
    diags.warning("W-SPEC-DATARATE", "odd rate");
    std::string json = diags.renderJson();
    EXPECT_NE(json.find("\"errors\":1"), std::string::npos);
    EXPECT_NE(json.find("\"warnings\":1"), std::string::npos);
    EXPECT_NE(json.find("\"code\":\"E-TECH-RANGE\""), std::string::npos);
    EXPECT_NE(json.find("\"line\":12"), std::string::npos);
    // The embedded quotes must be escaped.
    EXPECT_NE(json.find("cap \\\"x\\\" bad"), std::string::npos);
}

TEST(DiagnosticEngineTest, LegacyErrorImportGetsUnclassifiedCode)
{
    DiagnosticEngine diags;
    Error e;
    e.message = "old-style failure";
    e.line = 4;
    diags.reportError(e, "in.dram");
    ASSERT_EQ(diags.diagnostics().size(), 1u);
    EXPECT_EQ(diags.diagnostics()[0].code, "E-UNCLASSIFIED");
    EXPECT_EQ(diags.diagnostics()[0].location.file, "in.dram");
    EXPECT_EQ(diags.diagnostics()[0].location.line, 4);
}

TEST(ErrorToStringTest, RendersFileLineColumnAndCode)
{
    Error e;
    e.message = "boom";
    EXPECT_EQ(e.toString(), "boom");
    e.line = 7;
    EXPECT_EQ(e.toString(), "line 7: boom");
    e.column = 3;
    EXPECT_EQ(e.toString(), "line 7, col 3: boom");
    e.file = "x.dram";
    EXPECT_EQ(e.toString(), "x.dram:7:3: boom");
    e.code = "E-SYNTAX-VALUE";
    EXPECT_EQ(e.toString(), "x.dram:7:3: boom [E-SYNTAX-VALUE]");
}

TEST(ParserRecoveryTest, ReportsEveryBadLineWithLocation)
{
    const std::string text =
        "Name = broken device\n"
        "Technology\n"
        "  featuresize=55nm\n"
        "  wirecapsignal=nonsense\n"
        "  bogus_key=1.0\n"
        "  cellcap=25fF\n";
    DiagnosticEngine diags;
    ParsedDescription parsed =
        parseDescriptionDiag(text, diags, "t.dram");
    EXPECT_TRUE(diags.hasErrors());
    // Both defective lines are reported in one run.
    bool saw_value = false, saw_unknown = false;
    for (const Diagnostic& d : diags.diagnostics()) {
        if (d.location.line == 4 && d.code == "E-SYNTAX-VALUE")
            saw_value = true;
        if (d.location.line == 5 && d.code == "E-SYNTAX-UNKNOWN")
            saw_unknown = true;
        if (d.severity == Severity::Error) {
            EXPECT_FALSE(d.code.empty()) << d.message;
            EXPECT_EQ(d.location.file, "t.dram");
        }
    }
    EXPECT_TRUE(saw_value);
    EXPECT_TRUE(saw_unknown);
    // Recovery continued past the errors: the good values landed.
    EXPECT_EQ(parsed.description.name, "broken device");
    EXPECT_NEAR(parsed.description.tech.cellCap, 25e-15, 1e-18);
}

TEST(ParserRecoveryTest, ColumnsPointAtTheOffendingToken)
{
    const std::string text =
        "Technology\n"
        "  featuresize=55nm cellcap=junk\n";
    DiagnosticEngine diags;
    parseDescriptionDiag(text, diags, "t.dram");
    ASSERT_TRUE(diags.hasErrors());
    const Diagnostic& d = diags.diagnostics().front();
    EXPECT_EQ(d.location.line, 2);
    // The bad item starts at column 20 ("cellcap=junk").
    EXPECT_EQ(d.location.column, 20);
}

TEST(ParserRecoveryTest, GarbageFloodHitsTheErrorCap)
{
    std::string text;
    for (int i = 0; i < 80; ++i)
        text += "utter garbage line\n";
    DiagnosticEngine diags;
    parseDescriptionDiag(text, diags);
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_TRUE(diags.errorLimitReached());
    // Cap + 1 synthetic limit marker, nothing unbounded.
    EXPECT_LE(diags.diagnostics().size(),
              static_cast<size_t>(DiagnosticEngine::kDefaultErrorLimit) +
                  1);
}

TEST(ParserRecoveryTest, MissingFileIsEIoOpen)
{
    DiagnosticEngine diags;
    parseDescriptionFileDiag("/nonexistent/nowhere.dram", diags);
    ASSERT_TRUE(diags.hasErrors());
    EXPECT_EQ(diags.diagnostics().front().code, "E-IO-OPEN");

    // The legacy wrapper propagates the same failure as a Result.
    Result<DramDescription> legacy =
        parseDescriptionFile("/nonexistent/nowhere.dram");
    ASSERT_FALSE(legacy.ok());
    EXPECT_EQ(legacy.error().code, "E-IO-OPEN");
}

} // namespace
} // namespace vdram
