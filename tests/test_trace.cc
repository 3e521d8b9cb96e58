/**
 * @file
 * Access-trace format tests: parsing, error reporting, round trips, and
 * feeding a trace through the scheduler into the power model.
 */
#include <gtest/gtest.h>

#include "core/model.h"
#include "presets/presets.h"
#include "protocol/trace.h"

namespace vdram {
namespace {

TEST(TraceTest, ParsesBasicTrace)
{
    const char* text = "# comment\n"
                       "R 0 100 4\n"
                       "W 3 200 0\n"
                       "\n"
                       "read 1 5 6   # inline comment\n";
    auto result = parseTrace(text);
    ASSERT_TRUE(result.ok()) << result.error().toString();
    const auto& accesses = result.value();
    ASSERT_EQ(accesses.size(), 3u);
    EXPECT_FALSE(accesses[0].write);
    EXPECT_EQ(accesses[0].bank, 0);
    EXPECT_EQ(accesses[0].row, 100);
    EXPECT_EQ(accesses[0].column, 4);
    EXPECT_TRUE(accesses[1].write);
    EXPECT_EQ(accesses[1].bank, 3);
    EXPECT_FALSE(accesses[2].write);
}

TEST(TraceTest, ErrorsCarryLineNumbers)
{
    auto result = parseTrace("R 0 1 2\nX 0 1 2\n");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().line, 2);
    EXPECT_NE(result.error().message.find("R or W"), std::string::npos);

    auto short_line = parseTrace("R 0 1\n");
    ASSERT_FALSE(short_line.ok());
    EXPECT_NE(short_line.error().message.find("bank row column"),
              std::string::npos);

    auto negative = parseTrace("R 0 -5 2\n");
    ASSERT_FALSE(negative.ok());
    EXPECT_NE(negative.error().message.find("non-negative"),
              std::string::npos);
}

TEST(TraceTest, RoundTrip)
{
    DramDescription desc = preset1GbDdr3(55e-9, 16, 1333);
    WorkloadParams params;
    params.count = 100;
    auto original = makeRandomWorkload(desc.spec, params);
    auto reparsed = parseTrace(writeTrace(original));
    ASSERT_TRUE(reparsed.ok());
    ASSERT_EQ(reparsed.value().size(), original.size());
    for (size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(reparsed.value()[i].write, original[i].write);
        EXPECT_EQ(reparsed.value()[i].bank, original[i].bank);
        EXPECT_EQ(reparsed.value()[i].row, original[i].row);
        EXPECT_EQ(reparsed.value()[i].column, original[i].column);
    }
}

TEST(TraceTest, TraceToPowerPipeline)
{
    DramDescription desc = preset1GbDdr3(55e-9, 16, 1333);
    const char* text = "R 0 7 0\nR 0 7 1\nW 1 9 0\nR 0 8 0\n";
    auto trace = parseTrace(text);
    ASSERT_TRUE(trace.ok());
    CommandScheduler scheduler(desc.spec, desc.timing,
                               PagePolicy::OpenPage);
    Result<ScheduledStream> scheduled = scheduler.schedule(trace.value());
    ASSERT_TRUE(scheduled.ok()) << scheduled.error().toString();
    ScheduledStream stream = std::move(scheduled).value();
    EXPECT_EQ(stream.stats.rowHits, 1);     // second access to row 7
    EXPECT_EQ(stream.stats.rowConflicts, 1); // row 8 after row 7
    DramPowerModel model(desc);
    PatternPower power = model.evaluate(stream.pattern);
    EXPECT_GT(power.power, 0);
    EXPECT_GT(power.bitsPerLoop, 0);
}

TEST(TraceTest, MissingFileReported)
{
    auto result = loadTraceFile("/nonexistent/trace.txt");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find("cannot open"),
              std::string::npos);
    EXPECT_EQ(result.error().code, "E-IO-OPEN");
}

} // namespace
} // namespace vdram
