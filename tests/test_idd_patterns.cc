/**
 * @file
 * IDD loop generator tests: every standard measurement loop must be
 * steady-state protocol-clean on every device of the generation ladder —
 * the key integration property between the pattern generators and the
 * bank state machine.
 */
#include <gtest/gtest.h>

#include <cctype>
#include <ostream>

#include "core/builder.h"
#include "protocol/bank_fsm.h"
#include "protocol/idd.h"
#include "tech/generations.h"

namespace vdram {

// gtest's default printer would dump the struct's raw bytes into the
// listed test names (which ctest takes from --gtest_list_tests); print
// the label so the names stay the same from run to run. It lives in
// namespace vdram, not the anonymous one, so that argument-dependent
// lookup finds it for vdram::GenerationInfo.
static void
PrintTo(const GenerationInfo& gen, std::ostream* os)
{
    *os << gen.label();
}

namespace {

class IddPatternLadderTest
    : public ::testing::TestWithParam<GenerationInfo> {};

TEST_P(IddPatternLadderTest, AllIddLoopsProtocolClean)
{
    const GenerationInfo& gen = GetParam();
    BuilderOptions options;
    DramDescription desc = buildCommodityDescription(gen, options);

    for (IddMeasure m : {IddMeasure::Idd0, IddMeasure::Idd1,
                         IddMeasure::Idd2N, IddMeasure::Idd3N,
                         IddMeasure::Idd4R, IddMeasure::Idd4W,
                         IddMeasure::Idd5, IddMeasure::Idd7}) {
        Pattern p = makeIddPattern(m, desc.spec, desc.timing);
        PatternCheckResult result =
            checkPattern(p, desc.timing, desc.spec.banks());
        EXPECT_TRUE(result.ok())
            << gen.label() << " " << iddName(m) << ": "
            << result.summary();
    }
}

TEST_P(IddPatternLadderTest, ParetoPatternProtocolClean)
{
    const GenerationInfo& gen = GetParam();
    DramDescription desc = buildCommodityDescription(gen, {});
    Pattern p = makeParetoPattern(desc.spec, desc.timing);
    PatternCheckResult result =
        checkPattern(p, desc.timing, desc.spec.banks());
    EXPECT_TRUE(result.ok()) << gen.label() << ": " << result.summary();
}

TEST_P(IddPatternLadderTest, ParetoPatternHasPaperMix)
{
    // One activate, one write, one read, one precharge per loop —
    // "equivalent to an Idd7 pattern but with half of the read
    // operations replaced by write operations".
    const GenerationInfo& gen = GetParam();
    DramDescription desc = buildCommodityDescription(gen, {});
    Pattern p = makeParetoPattern(desc.spec, desc.timing);
    EXPECT_EQ(p.count(Op::Act), 1);
    EXPECT_EQ(p.count(Op::Pre), 1);
    EXPECT_EQ(p.count(Op::Rd), 1);
    EXPECT_EQ(p.count(Op::Wr), 1);
}

INSTANTIATE_TEST_SUITE_P(
    Ladder, IddPatternLadderTest,
    ::testing::ValuesIn(generationLadder()),
    [](const ::testing::TestParamInfo<GenerationInfo>& info) {
        std::string name = info.param.label();
        for (char& c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(IddPatternTest, Idd0IsActPreAtTrc)
{
    DramDescription desc =
        buildCommodityDescription(generationAt(55e-9), {});
    Pattern p = makeIddPattern(IddMeasure::Idd0, desc.spec, desc.timing);
    EXPECT_EQ(p.cycles(), desc.timing.tRc);
    EXPECT_EQ(p.count(Op::Act), 1);
    EXPECT_EQ(p.count(Op::Pre), 1);
    EXPECT_EQ(p.count(Op::Rd), 0);
    EXPECT_EQ(p.loop[0], Op::Act);
    EXPECT_EQ(p.loop[static_cast<size_t>(desc.timing.tRas)], Op::Pre);
}

TEST(IddPatternTest, Idd4RSaturatesDataBus)
{
    DramDescription desc =
        buildCommodityDescription(generationAt(55e-9), {});
    Pattern p = makeIddPattern(IddMeasure::Idd4R, desc.spec, desc.timing);
    // One read per burst window: the bus is gapless.
    EXPECT_EQ(p.cycles(), desc.timing.burstCycles);
    EXPECT_EQ(p.count(Op::Rd), 1);
}

TEST(IddPatternTest, StandbyLoopsAreNopOnly)
{
    DramDescription desc =
        buildCommodityDescription(generationAt(55e-9), {});
    for (IddMeasure m : {IddMeasure::Idd2N, IddMeasure::Idd3N}) {
        Pattern p = makeIddPattern(m, desc.spec, desc.timing);
        EXPECT_EQ(p.count(Op::Nop), p.cycles());
    }
}

TEST(IddPatternTest, Idd7CyclesRowsAtMaximumRate)
{
    DramDescription desc =
        buildCommodityDescription(generationAt(55e-9), {});
    Pattern idd7 =
        makeIddPattern(IddMeasure::Idd7, desc.spec, desc.timing);
    Pattern idd0 =
        makeIddPattern(IddMeasure::Idd0, desc.spec, desc.timing);
    // Activates per cycle: IDD7 row rate beats IDD0's single-bank rate.
    double idd7_rate =
        static_cast<double>(idd7.count(Op::Act)) / idd7.cycles();
    double idd0_rate =
        static_cast<double>(idd0.count(Op::Act)) / idd0.cycles();
    EXPECT_GT(idd7_rate, 2.0 * idd0_rate);
}

TEST(IddPatternTest, NamesAreDatasheetStyle)
{
    EXPECT_EQ(iddName(IddMeasure::Idd0), "IDD0");
    EXPECT_EQ(iddName(IddMeasure::Idd4R), "IDD4R");
    EXPECT_EQ(iddName(IddMeasure::Idd7), "IDD7");
}

} // namespace
} // namespace vdram
