/**
 * @file
 * Parser robustness: deterministic mutation fuzzing of a valid
 * description. Every mutation must either parse or return a diagnostic
 * — never crash, hang or corrupt state. (fatal()/panic() would abort
 * the test binary, so plain execution of this suite is the assertion.)
 */
#include <gtest/gtest.h>

#include <random>

#include "core/description.h"
#include "core/model.h"
#include "dsl/parser.h"
#include "dsl/writer.h"
#include "presets/presets.h"
#include "util/logging.h"

namespace vdram {
namespace {

std::string
baseText()
{
    static const std::string text =
        writeDescription(preset1GbDdr3(55e-9, 16, 1333));
    return text;
}

TEST(DslRobustnessTest, CharacterMutationsNeverCrash)
{
    std::string base = baseText();
    std::mt19937_64 rng(123);
    std::uniform_int_distribution<size_t> pos_dist(0, base.size() - 1);
    const char garbage[] = "\0\t =%#:_xX9-";
    std::uniform_int_distribution<size_t> chr_dist(0,
                                                   sizeof(garbage) - 2);

    int parsed_ok = 0, parse_error = 0;
    for (int i = 0; i < 400; ++i) {
        std::string mutated = base;
        // Flip 1-3 characters.
        for (int k = 0; k <= i % 3; ++k)
            mutated[pos_dist(rng)] = garbage[chr_dist(rng)];
        Result<DramDescription> result = parseDescription(mutated);
        if (result.ok())
            ++parsed_ok;
        else
            ++parse_error;
    }
    // Both outcomes must occur: some mutations are harmless (comments,
    // whitespace), many are diagnosed.
    EXPECT_GT(parsed_ok, 0);
    EXPECT_GT(parse_error, 0);
}

TEST(DslRobustnessTest, LineDeletionsNeverCrash)
{
    std::string base = baseText();
    std::vector<std::string> lines;
    size_t pos = 0;
    while (pos <= base.size()) {
        size_t end = base.find('\n', pos);
        if (end == std::string::npos) {
            lines.push_back(base.substr(pos));
            break;
        }
        lines.push_back(base.substr(pos, end - pos));
        pos = end + 1;
    }

    for (size_t drop = 0; drop < lines.size(); ++drop) {
        std::string mutated;
        for (size_t i = 0; i < lines.size(); ++i) {
            if (i != drop)
                mutated += lines[i] + "\n";
        }
        Result<DramDescription> result = parseDescription(mutated);
        // Either outcome is fine; the error path must carry a message.
        if (!result.ok()) {
            EXPECT_FALSE(result.error().message.empty());
        }
    }
}

TEST(DslRobustnessTest, LineDuplicationsNeverCrash)
{
    std::string base = baseText();
    // Duplicate the whole document: section repetition and re-assignment
    // must be handled (later values win or are diagnosed).
    Result<DramDescription> doubled = parseDescription(base + base);
    if (!doubled.ok()) {
        EXPECT_FALSE(doubled.error().message.empty());
    }
}

TEST(DslRobustnessTest, TruncationsNeverCrash)
{
    std::string base = baseText();
    for (size_t cut = 0; cut < base.size(); cut += 97) {
        Result<DramDescription> result =
            parseDescription(base.substr(0, cut));
        if (!result.ok()) {
            EXPECT_FALSE(result.error().message.empty());
        }
    }
}

TEST(DslRobustnessTest, BinaryGarbageDiagnosed)
{
    std::string garbage = "\x01\x02\xff\xfe lorem ipsum {}[]";
    Result<DramDescription> result = parseDescription(garbage);
    EXPECT_FALSE(result.ok());
}

/**
 * Run the full program flow (Fig. 4) on one input: parse with error
 * recovery, validate completeness + consistency, and — only when the
 * description is clean — build the model. Nothing in this chain may
 * abort, whatever the input.
 */
void
runFullPipeline(const std::string& text)
{
    DiagnosticEngine diags;
    ParsedDescription parsed = parseDescriptionDiag(text, diags, "fuzz.dram");
    validateDescription(parsed.description, diags, &parsed.source);
    for (const Diagnostic& d : diags.diagnostics()) {
        if (d.severity == Severity::Error) {
            EXPECT_FALSE(d.code.empty()) << d.message;
        }
    }
    if (!diags.hasErrors()) {
        Result<DramPowerModel> model =
            DramPowerModel::create(std::move(parsed.description));
        if (model.ok()) {
            // The model must produce a number, not a trap. (NaN can
            // still emerge from extreme-but-valid values; finiteness of
            // the result is checked by the validation suite, not here.)
            PatternPower p = model.value().evaluateDefault();
            (void)p.power;
        }
    }
}

TEST(DslRobustnessTest, MutationsSurviveFullPipeline)
{
    std::string base = baseText();
    std::mt19937_64 rng(321);
    std::uniform_int_distribution<size_t> pos_dist(0, base.size() - 1);
    const char garbage[] = "\0\t =%#:_xX9-";
    std::uniform_int_distribution<size_t> chr_dist(0, sizeof(garbage) - 2);

    setQuiet(true);
    for (int i = 0; i < 100; ++i) {
        std::string mutated = base;
        for (int k = 0; k <= i % 4; ++k)
            mutated[pos_dist(rng)] = garbage[chr_dist(rng)];
        runFullPipeline(mutated);
    }
    setQuiet(false);
}

TEST(DslRobustnessTest, HostileValueInjectionsSurviveFullPipeline)
{
    // Replace every value in the document, one at a time, with numbers
    // chosen to break naive range checks: overflow bait, NaN, negatives
    // and absurd magnitudes. The pipeline must diagnose, not die.
    const char* hostile[] = {"1e308", "nan",  "-nan", "inf",
                             "-5",    "99999999999", "0", "1e-300"};
    std::string base = baseText();

    setQuiet(true);
    size_t eq = base.find('=');
    int injected = 0;
    while (eq != std::string::npos) {
        size_t value_end = base.find_first_of(" \n", eq + 1);
        if (value_end == std::string::npos)
            value_end = base.size();
        for (const char* v : hostile) {
            std::string mutated = base;
            mutated.replace(eq + 1, value_end - eq - 1, v);
            runFullPipeline(mutated);
        }
        ++injected;
        eq = base.find('=', value_end);
    }
    setQuiet(false);
    // Sanity: the document has plenty of value positions to attack.
    EXPECT_GT(injected, 50);
}

TEST(DslRobustnessTest, SectionShuffleSurvivesFullPipeline)
{
    // Move the Pattern section to the front and duplicate Technology:
    // ordering and repetition are user mistakes, not crashes.
    std::string base = baseText();
    size_t tech = base.find("Technology\n");
    ASSERT_NE(tech, std::string::npos);
    size_t tech_end = base.find("\n\n", tech);
    ASSERT_NE(tech_end, std::string::npos);
    std::string tech_section = base.substr(tech, tech_end + 2 - tech);

    setQuiet(true);
    runFullPipeline("Pattern loop= act nop pre\n" + base);
    runFullPipeline(base + tech_section);
    runFullPipeline(tech_section + base);
    setQuiet(false);
}

} // namespace
} // namespace vdram
