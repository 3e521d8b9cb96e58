/**
 * @file
 * The paper-artifact gate (src/core/paper_registry.h).
 *
 * Paper/Artifact.Holds runs once per registry entry (ctest label
 * `paper`): the entry's document must match its golden file under
 * tests/data/golden byte for byte, every verdict must pass, and
 * EXPERIMENTS.md must carry the entry's generated block verbatim. The
 * golden tolerance is zero by design: every double is rendered with
 * %.17g, so any numeric drift in the model shows up here. Intentional
 * changes are regenerated with tools/regen_golden.sh and reviewed as a
 * diff. GoldenFigures checks the registry as a whole; PaperGate shows
 * that the gate can fail.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "core/paper_registry.h"
#include "util/failpoint.h"

using namespace vdram;

namespace {

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

std::string
goldenPath(const std::string& name)
{
    return std::string(VDRAM_GOLDEN_DIR) + "/" + name + ".json";
}

/** The text between "<!-- paper:NAME -->" and "<!-- /paper:NAME -->"
 *  in EXPERIMENTS.md (the lines in between, each ending in a newline). */
bool
experimentsBlock(const std::string& name, std::string& block)
{
    std::string text;
    if (!readFile(VDRAM_EXPERIMENTS_MD, text))
        return false;
    const std::string begin = "<!-- paper:" + name + " -->\n";
    const std::string end = "<!-- /paper:" + name + " -->";
    const size_t from = text.find(begin);
    const size_t to = text.find(end);
    if (from == std::string::npos || to == std::string::npos ||
        to < from + begin.size())
        return false;
    block = text.substr(from + begin.size(), to - from - begin.size());
    return true;
}

/** First line on which two documents differ, for a readable failure. */
std::string
firstDifference(const std::string& expected, const std::string& actual)
{
    std::istringstream a(expected), b(actual);
    std::string la, lb;
    for (int line = 1;; ++line) {
        bool more_a = static_cast<bool>(std::getline(a, la));
        bool more_b = static_cast<bool>(std::getline(b, lb));
        if (!more_a && !more_b)
            return "documents identical";
        if (la != lb || more_a != more_b) {
            return "line " + std::to_string(line) + ":\n  expected: " +
                   (more_a ? la : "<eof>") + "\n  actual:   " +
                   (more_b ? lb : "<eof>");
        }
    }
}

const PaperArtifact&
artifactNamed(const std::string& name)
{
    for (const PaperArtifact& artifact : paperArtifacts()) {
        if (artifact.name == name)
            return artifact;
    }
    throw std::runtime_error("no artifact " + name);
}

std::vector<std::string>
artifactNames()
{
    std::vector<std::string> names;
    for (const PaperArtifact& artifact : paperArtifacts())
        names.push_back(artifact.name);
    return names;
}

/** Overwrite the number under @p key of @p record. */
void
setNumber(ArtifactRecord& record, const std::string& key, double value)
{
    for (auto& [name, v] : record.fields) {
        if (name == key)
            v.number = value;
    }
}

std::vector<ArtifactRecord>&
mutableTable(ArtifactRecord& doc, const std::string& key)
{
    for (auto& [name, v] : doc.fields) {
        if (name == key)
            return v.rows;
    }
    throw std::runtime_error("no table " + key);
}

} // namespace

class Artifact : public ::testing::TestWithParam<std::string> {};

TEST_P(Artifact, Holds)
{
    const PaperArtifact& artifact = artifactNamed(GetParam());
    const ArtifactRecord doc = artifact.compute();
    const std::vector<Verdict> verdicts = judgeArtifact(artifact, doc);
    ASSERT_FALSE(verdicts.empty());
    for (const Verdict& v : verdicts) {
        EXPECT_TRUE(v.pass()) << "FAIL " << v.label << ": " << v.value
                              << " outside [" << v.lo << ", " << v.hi
                              << "]";
    }

    std::string golden;
    ASSERT_TRUE(readFile(goldenPath(artifact.name), golden))
        << "missing golden file — run tools/regen_golden.sh";
    // The writer appends one trailing newline.
    const std::string json = doc.json() + "\n";
    EXPECT_EQ(golden, json) << firstDifference(golden, json)
                            << "\nintentional change? regenerate with "
                               "tools/regen_golden.sh and review the diff";

    std::string block;
    ASSERT_TRUE(experimentsBlock(artifact.name, block))
        << "EXPERIMENTS.md has no generated block for " << artifact.name;
    const std::string markdown = renderArtifactMarkdown(doc, verdicts);
    EXPECT_EQ(block, markdown)
        << firstDifference(block, markdown)
        << "\nEXPERIMENTS.md is stale: run tools/regen_golden.sh";
}

INSTANTIATE_TEST_SUITE_P(
    Paper, Artifact, ::testing::ValuesIn(artifactNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        return info.param;
    });

TEST(GoldenFigures, EveryFigureHasAGoldenFile)
{
    for (const PaperArtifact& artifact : paperArtifacts()) {
        std::string text;
        EXPECT_TRUE(readFile(goldenPath(artifact.name), text))
            << "missing golden file for '" << artifact.name
            << "' — run tools/regen_golden.sh";
    }
}

TEST(GoldenFigures, MatchesGoldenFilesBitIdentically)
{
    for (const PaperArtifact& artifact : paperArtifacts()) {
        SCOPED_TRACE(artifact.name);
        std::string golden;
        ASSERT_TRUE(readFile(goldenPath(artifact.name), golden));
        EXPECT_EQ(golden, artifact.compute().json() + "\n");
    }
}

TEST(GoldenFigures, RecomputationIsDeterministic)
{
    // Two in-process computations must agree byte for byte; this is the
    // same identity the golden files pin across processes, and that
    // tools/ci.sh checks against the full rebuild by rerunning the suite
    // under VDRAM_FASTPATH=verify.
    for (const PaperArtifact& artifact : paperArtifacts()) {
        SCOPED_TRACE(artifact.name);
        EXPECT_EQ(artifact.compute().json(), artifact.compute().json());
    }
}

TEST(GoldenFigures, FigureNamesAreUniqueAndOrdered)
{
    std::set<std::string> names, ids;
    for (const PaperArtifact& artifact : paperArtifacts()) {
        EXPECT_TRUE(names.insert(artifact.name).second) << artifact.name;
        EXPECT_TRUE(ids.insert(artifact.id).second) << artifact.id;
    }
    // E1-E13, X1-X8 and the Monte-Carlo spread, in DESIGN.md order.
    EXPECT_EQ(names.size(), 22u);
    EXPECT_EQ(std::string(paperArtifacts().front().id), "E1");
    EXPECT_EQ(std::string(paperArtifacts().back().name), "mc_vendor_spread");
}

TEST(PaperGate, StrictBandCountFailsWhenOnePointLeavesTheBand)
{
    const PaperArtifact& fig8 = artifactNamed("fig8_ddr2_verification");
    ArtifactRecord doc = fig8.compute();
    // Move the first in-band 75 nm value 1 % below its band minimum.
    for (ArtifactRecord& point : mutableTable(doc, "points")) {
        const double min = point.number("datasheetMinMa");
        if (point.number("modelMa") >= min &&
            point.number("modelMa") <= point.number("datasheetMaxMa")) {
            setNumber(point, "modelMa", 0.99 * min);
            break;
        }
    }
    const std::vector<Verdict> verdicts = judgeArtifact(fig8, doc);
    ASSERT_GE(verdicts.size(), 3u);
    EXPECT_NE(verdicts[0].label.find("75 nm points inside the published "
                                     "band"),
              std::string::npos);
    EXPECT_FALSE(verdicts[0].pass()) << verdicts[0].value;
    EXPECT_NE(verdicts[2].label.find("within 15 % of the band"),
              std::string::npos);
    EXPECT_TRUE(verdicts[2].pass()) << verdicts[2].value;
    EXPECT_NE(renderArtifactMarkdown(doc, verdicts).find("- FAIL: 75 nm"),
              std::string::npos);
}

TEST(PaperGate, CountBelowItsRecordedBaselineFails)
{
    // Fig. 9 records 3 of 9 points inside the band at 55 nm; one fewer
    // must fail, one more passes.
    const PaperArtifact& fig9 = artifactNamed("fig9_ddr3_verification");
    const ArtifactRecord computed = fig9.compute();
    ASSERT_EQ(judgeArtifact(fig9, computed)[1].value, 3);
    for (double shift : {-1.0, 1.0}) {
        ArtifactRecord doc = computed;
        for (ArtifactRecord& point : mutableTable(doc, "points")) {
            const double min = point.number("datasheetMinMa");
            const bool inside = point.number("secondModelMa") >= min;
            if (inside == (shift < 0)) {
                setNumber(point, "secondModelMa", min * (shift < 0 ? 0.5 : 1));
                break;
            }
        }
        const Verdict v = judgeArtifact(fig9, doc)[1];
        EXPECT_EQ(v.value, 3 + shift);
        EXPECT_EQ(v.pass(), shift > 0) << v.label;
    }
}

TEST(PaperGate, CampaignErrorFailsTheArtifact)
{
    // Every runner task fails: the sensitivity campaign drops all of
    // them, which the registry turns into an error document.
    Result<std::vector<FailpointConfig>> spec =
        parseFailpointSpec("runner.task=error");
    ASSERT_TRUE(spec.ok());
    configureFailpoints(spec.value());
    const PaperArtifact& tab3 = artifactNamed("tab3_sensitivity_ranking");
    const ArtifactRecord doc = tab3.compute();
    clearFailpoints();

    ASSERT_NE(doc.find("error"), nullptr) << doc.json();
    const std::vector<Verdict> verdicts = judgeArtifact(tab3, doc);
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_FALSE(verdicts[0].pass());
    EXPECT_NE(renderArtifactMarkdown(doc, verdicts).find("- FAIL: "),
              std::string::npos);
}
