/**
 * @file
 * Command-trace tests: parsing, NOP gap filling, round trips, power
 * evaluation of replayed traces, and the renderer against its reference
 * twin.
 */
#include <gtest/gtest.h>

#include <random>

#include "command_trace_reference.h"
#include "core/model.h"
#include "presets/presets.h"
#include "protocol/command_trace.h"
#include "protocol/idd.h"

namespace vdram {
namespace {

TEST(CommandTraceTest, ParsesAndFillsGaps)
{
    const char* text = "# trace\n"
                       "0 ACT\n"
                       "10 rd\n"
                       "24 PRE\n"
                       "33 nop\n";
    Result<Pattern> result = parseCommandTrace(text);
    ASSERT_TRUE(result.ok()) << result.error().toString();
    const Pattern& p = result.value();
    EXPECT_EQ(p.cycles(), 34);
    EXPECT_EQ(p.loop[0], Op::Act);
    EXPECT_EQ(p.loop[10], Op::Rd);
    EXPECT_EQ(p.loop[24], Op::Pre);
    EXPECT_EQ(p.count(Op::Nop), 31);
}

TEST(CommandTraceTest, RejectsOutOfOrderCycles)
{
    Result<Pattern> r = parseCommandTrace("5 ACT\n5 PRE\n");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().line, 2);
    EXPECT_NE(r.error().message.find("not after"), std::string::npos);
}

TEST(CommandTraceTest, RejectsUnknownCommand)
{
    Result<Pattern> r = parseCommandTrace("0 FOO\n");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("FOO"), std::string::npos);
}

TEST(CommandTraceTest, RejectsEmptyTrace)
{
    EXPECT_FALSE(parseCommandTrace("# only comments\n").ok());
}

TEST(CommandTraceTest, RoundTripPreservesPattern)
{
    DramDescription desc = preset1GbDdr3(55e-9, 16, 1333);
    for (IddMeasure m : {IddMeasure::Idd0, IddMeasure::Idd7,
                         IddMeasure::Idd2P}) {
        Pattern original = makeIddPattern(m, desc.spec, desc.timing);
        Result<Pattern> reparsed =
            parseCommandTrace(writeCommandTrace(original));
        ASSERT_TRUE(reparsed.ok()) << iddName(m);
        ASSERT_EQ(reparsed.value().cycles(), original.cycles())
            << iddName(m);
        for (int i = 0; i < original.cycles(); ++i) {
            EXPECT_EQ(reparsed.value().loop[static_cast<size_t>(i)],
                      original.loop[static_cast<size_t>(i)])
                << iddName(m) << " cycle " << i;
        }
    }
}

TEST(CommandTraceTest, ReplayedTraceMatchesDirectEvaluation)
{
    DramPowerModel model(preset1GbDdr3(55e-9, 16, 1333));
    Pattern direct = makeIddPattern(IddMeasure::Idd7,
                                    model.description().spec,
                                    model.description().timing);
    Result<Pattern> replay =
        parseCommandTrace(writeCommandTrace(direct));
    ASSERT_TRUE(replay.ok());
    EXPECT_DOUBLE_EQ(model.evaluate(direct).power,
                     model.evaluate(replay.value()).power);
}

TEST(CommandTraceTest, MissingFileReported)
{
    EXPECT_FALSE(loadCommandTraceFile("/nonexistent.cmd").ok());
}

TEST(CommandTraceTest, RejectsDenseExpansionOverCap)
{
    // Dense replay allocates one Op per cycle up to the last record; a
    // single huge cycle number used to allocate gigabytes. It must be
    // rejected with a diagnostic pointing at the streaming path.
    Result<Pattern> r = parseCommandTrace("0 ACT\n9999999999 PRE\n");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, "E-TRACE-TOO-LONG");
    EXPECT_EQ(r.error().line, 2);
    EXPECT_NE(r.error().message.find("vdram trace"), std::string::npos);

    // A custom cap applies, and records under it still parse.
    EXPECT_FALSE(parseCommandTrace("100 ACT\n", 100).ok());
    EXPECT_TRUE(parseCommandTrace("99 ACT\n", 100).ok());
    // Cap 0 disables the guard (library callers that pre-validate).
    EXPECT_TRUE(parseCommandTrace("200 ACT\n", 0).ok());
}

constexpr Op kAllOps[] = {Op::Act, Op::Pre, Op::Rd,  Op::Wr,
                          Op::Nop, Op::Ref, Op::Pdn, Op::Srf};

/** Render @p pattern with both renderers; they must agree byte for byte,
 *  and the text must parse back to the same loop. */
void
expectRendersLikeReference(const Pattern& pattern, const std::string& what)
{
    const std::string text = writeCommandTrace(pattern);
    ASSERT_EQ(text, writeCommandTraceReference(pattern)) << what;
    if (pattern.loop.empty())
        return;
    Result<Pattern> reparsed = parseCommandTrace(text, 0);
    ASSERT_TRUE(reparsed.ok()) << what;
    EXPECT_TRUE(reparsed.value().loop == pattern.loop) << what;
}

TEST(CommandTraceRenderTest, EdgeLoopsMatchReference)
{
    expectRendersLikeReference(Pattern{}, "empty loop");
    expectRendersLikeReference(Pattern{{Op::Nop}}, "one NOP");
    expectRendersLikeReference(Pattern{std::vector<Op>(7, Op::Nop)},
                               "all-NOP loop");
    expectRendersLikeReference(Pattern{{Op::Act, Op::Nop, Op::Nop}},
                               "trailing NOP");
    expectRendersLikeReference(Pattern{{Op::Nop, Op::Nop, Op::Pre}},
                               "trailing command");
    for (Op op : kAllOps) {
        expectRendersLikeReference(Pattern{{op}},
                                   "single " + opName(op));
        expectRendersLikeReference(Pattern{{Op::Nop, op, Op::Nop}},
                                   "inner " + opName(op));
    }
}

TEST(CommandTraceRenderTest, DigitWidthBoundariesMatchReference)
{
    // Commands on both sides of every power of ten up to 10^7, ending
    // once on a command and once on a NOP marker.
    for (Op last : {Op::Srf, Op::Nop}) {
        Pattern pattern;
        pattern.loop.assign(10'000'002, Op::Nop);
        size_t k = 0;
        for (size_t power = 1; power <= 10'000'000; power *= 10) {
            pattern.loop[power - 1] = kAllOps[k++ % kOpCount];
            pattern.loop[power] = kAllOps[k++ % kOpCount];
        }
        pattern.loop.back() = last;
        expectRendersLikeReference(pattern, "to 10^7, last " +
                                                opName(last));
        // Loops whose last cycle sits exactly on a width boundary.
        for (size_t size : {10, 11, 100, 101, 1000, 1001}) {
            Pattern cut{std::vector<Op>(pattern.loop.begin(),
                                        pattern.loop.begin() +
                                            static_cast<long>(size))};
            expectRendersLikeReference(cut,
                                       "size " + std::to_string(size));
        }
    }
}

TEST(CommandTraceRenderTest, SeededRandomPatternsMatchReference)
{
    std::mt19937 rng(20101);
    for (int round = 0; round < 300; ++round) {
        // Mostly NOPs, as a schedule is; the density varies per round.
        const unsigned nop_share = rng() % 10;
        Pattern pattern;
        pattern.loop.resize(rng() % 3000);
        for (Op& op : pattern.loop) {
            op = rng() % 10 < nop_share ? Op::Nop
                                        : kAllOps[rng() % kOpCount];
        }
        expectRendersLikeReference(pattern,
                                   "round " + std::to_string(round));
    }
}

} // namespace
} // namespace vdram
