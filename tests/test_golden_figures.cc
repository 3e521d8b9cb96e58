/**
 * @file
 * Golden-figure regression suite: the canonical JSON renderings of the
 * paper's headline figures (Figs. 8-13, Table III, and a Monte-Carlo
 * vendor-spread campaign) must match the files under tests/data/golden
 * byte for byte. The tolerance is zero by design — every double is
 * rendered with %.17g, so any numeric drift in the model shows up here.
 * Intentional changes are regenerated with tools/regen_golden.sh and
 * reviewed as a diff.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/golden_figures.h"

using namespace vdram;

namespace {

std::string
goldenPath(const std::string& name)
{
    return std::string(VDRAM_GOLDEN_DIR) + "/" + name + ".json";
}

bool
readFile(const std::string& path, std::string& out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
}

/** First line on which two documents differ, for a readable failure. */
std::string
firstDifference(const std::string& expected, const std::string& actual)
{
    std::istringstream a(expected), b(actual);
    std::string la, lb;
    int line = 0;
    while (true) {
        ++line;
        bool more_a = static_cast<bool>(std::getline(a, la));
        bool more_b = static_cast<bool>(std::getline(b, lb));
        if (!more_a && !more_b)
            return "documents identical";
        if (la != lb || more_a != more_b) {
            return "line " + std::to_string(line) + ":\n  golden: " +
                   (more_a ? la : "<eof>") + "\n  actual: " +
                   (more_b ? lb : "<eof>");
        }
    }
}

} // namespace

TEST(GoldenFigures, EveryFigureHasAGoldenFile)
{
    for (const std::string& name : goldenFigureNames()) {
        std::string text;
        EXPECT_TRUE(readFile(goldenPath(name), text))
            << "missing golden file for '" << name
            << "' — run tools/regen_golden.sh";
    }
}

TEST(GoldenFigures, MatchesGoldenFilesBitIdentically)
{
    std::vector<GoldenFigure> figures = computeGoldenFigures();
    ASSERT_EQ(figures.size(), goldenFigureNames().size());
    for (const GoldenFigure& figure : figures) {
        SCOPED_TRACE(figure.name);
        std::string golden;
        ASSERT_TRUE(readFile(goldenPath(figure.name), golden))
            << "missing golden file — run tools/regen_golden.sh";
        // The writer appends one trailing newline.
        const std::string actual = figure.json + "\n";
        EXPECT_EQ(golden, actual)
            << firstDifference(golden, actual)
            << "\nintentional change? regenerate with "
               "tools/regen_golden.sh and review the diff";
    }
}

TEST(GoldenFigures, RecomputationIsDeterministic)
{
    // Two in-process computations must agree byte for byte; this is the
    // same identity the golden files pin across processes, and that
    // tools/ci.sh checks against the full rebuild by rerunning the suite
    // under VDRAM_FASTPATH=verify.
    std::vector<GoldenFigure> first = computeGoldenFigures();
    std::vector<GoldenFigure> second = computeGoldenFigures();
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
        SCOPED_TRACE(first[i].name);
        EXPECT_EQ(first[i].name, second[i].name);
        EXPECT_EQ(first[i].json, second[i].json);
    }
}

TEST(GoldenFigures, FigureNamesAreUniqueAndOrdered)
{
    std::vector<std::string> names = goldenFigureNames();
    std::vector<GoldenFigure> figures = computeGoldenFigures();
    ASSERT_EQ(names.size(), figures.size());
    for (size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(names[i], figures[i].name);
    for (size_t i = 0; i < names.size(); ++i) {
        for (size_t j = i + 1; j < names.size(); ++j)
            EXPECT_NE(names[i], names[j]);
    }
}
