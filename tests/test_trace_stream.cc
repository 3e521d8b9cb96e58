/**
 * @file
 * Streaming trace-engine tests: the central property is that streaming
 * evaluation — serial at any chunk size, and parallel at any slice
 * size — is bit-for-bit identical to the dense Pattern path on every
 * trace that fits both, including chunk boundaries that split ACT…PRE
 * pairs and PDN/SRF runs. Plus protocol-checker state persistence
 * across chunks, wide-cycle violation reporting, and the parser /
 * merge error paths. Runs in the robustness suite (ASan/UBSan, TSan).
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/model.h"
#include "presets/presets.h"
#include "protocol/command_trace.h"
#include "protocol/trace_stream.h"
#include "runner/trace_campaign.h"

namespace vdram {
namespace {

std::string
tempPath(const std::string& name)
{
    return testing::TempDir() + "vdram_trace_" + name;
}

/**
 * Deterministic random trace: mixed-case mnemonics, comments, variable
 * gaps, occasional PDN/SRF runs and back-to-back ACT…PRE sequences so
 * chunk and slice boundaries land inside every interesting shape.
 */
std::string
makeRandomTrace(unsigned seed, int records)
{
    std::mt19937 rng(seed);
    std::string text = "# generated trace\n";
    long long cycle = static_cast<long long>(rng() % 4);
    const char* names[] = {"ACT", "pre", "Rd", "wr",
                           "REF", "nop", "pdn", "SRF"};
    for (int i = 0; i < records; ++i) {
        const unsigned kind = rng() % 16;
        if (kind < 2) {
            // A powered-down / self-refresh run: consecutive cycles.
            const char* name = kind == 0 ? "PDN" : "srf";
            const int run = 2 + static_cast<int>(rng() % 6);
            for (int k = 0; k < run; ++k) {
                text += std::to_string(cycle) + " " + name + "\n";
                ++cycle;
            }
        } else if (kind < 5) {
            // ACT ... column ... PRE, with small gaps.
            text += std::to_string(cycle) + " act\n";
            cycle += 1 + rng() % 12;
            text += std::to_string(cycle) + (rng() % 2 ? " RD\n" : " WR\n");
            cycle += 1 + rng() % 12;
            text += std::to_string(cycle) + " PRE\n";
            cycle += 1 + rng() % 12;
        } else {
            text += std::to_string(cycle) + " " +
                    names[rng() % (sizeof(names) / sizeof(names[0]))] +
                    "\n";
            cycle += 1 + rng() % 20;
        }
        if (rng() % 7 == 0)
            text += "# comment line\n";
        if (rng() % 11 == 0)
            text += "\n";
    }
    return text;
}

void
expectBitIdentical(const PatternPower& a, const PatternPower& b,
                   const std::string& what)
{
    EXPECT_EQ(a.externalCurrent, b.externalCurrent) << what;
    EXPECT_EQ(a.power, b.power) << what;
    EXPECT_EQ(a.loopTime, b.loopTime) << what;
    EXPECT_EQ(a.bitsPerLoop, b.bitsPerLoop) << what;
    EXPECT_EQ(a.energyPerBit, b.energyPerBit) << what;
    EXPECT_EQ(a.busUtilization, b.busUtilization) << what;
    for (int c = 0; c < kComponentCount; ++c) {
        EXPECT_EQ(a.componentPower.values[static_cast<size_t>(c)],
                  b.componentPower.values[static_cast<size_t>(c)])
            << what << " component " << c;
    }
    for (int o = 0; o < kOpCount; ++o) {
        EXPECT_EQ(a.operationPower.values[static_cast<size_t>(o)],
                  b.operationPower.values[static_cast<size_t>(o)])
            << what << " op " << o;
    }
    for (int d = 0; d < kDomainCount; ++d) {
        EXPECT_EQ(a.domainPower[static_cast<size_t>(d)],
                  b.domainPower[static_cast<size_t>(d)])
            << what << " domain " << d;
    }
}

PatternPower
evaluateStats(const DramPowerModel& model, const PatternStats& stats)
{
    const DramDescription& desc = model.description();
    return computePatternPowerFromStats(stats, model.operations(),
                                        desc.elec,
                                        desc.timing.tCkSeconds,
                                        desc.spec);
}

// ---------------------------------------------------------------------
// Bit-identity: streaming vs dense
// ---------------------------------------------------------------------

TEST(TraceStreamTest, SerialMatchesDenseBitForBitAcrossChunkSizes)
{
    DramPowerModel model(preset1GbDdr3(55e-9, 16, 1333));
    for (unsigned seed : {1u, 2u, 3u, 4u}) {
        const std::string text = makeRandomTrace(seed, 300);
        Result<Pattern> dense = parseCommandTrace(text);
        ASSERT_TRUE(dense.ok()) << dense.error().toString();
        const PatternPower reference = model.evaluate(dense.value());

        for (size_t chunk : {size_t{1}, size_t{7}, size_t{64},
                             size_t{4096}}) {
            std::istringstream in(text);
            TraceStreamOptions options;
            options.chunkBytes = chunk;
            Result<TraceStreamResult> streamed =
                evaluateTraceStream(in, options);
            ASSERT_TRUE(streamed.ok()) << streamed.error().toString();
            EXPECT_EQ(streamed.value().cycles,
                      dense.value().cycles());
            expectBitIdentical(
                reference, evaluateStats(model, streamed.value().stats),
                "seed " + std::to_string(seed) + " chunk " +
                    std::to_string(chunk));
        }
    }
}

TEST(TraceStreamTest, WindowStatsSumToTotal)
{
    const std::string text = makeRandomTrace(7u, 400);
    std::istringstream in(text);
    TraceStreamOptions options;
    options.windowCycles = 37; // deliberately unaligned
    Result<TraceStreamResult> streamed = evaluateTraceStream(in, options);
    ASSERT_TRUE(streamed.ok()) << streamed.error().toString();
    const TraceStreamResult& result = streamed.value();

    ASSERT_FALSE(result.windows.empty());
    long long cycles = 0;
    std::array<double, kChargeCategoryCount> count{};
    for (size_t i = 0; i < result.windows.size(); ++i) {
        const TraceWindow& w = result.windows[i];
        EXPECT_EQ(w.startCycle, static_cast<long long>(i) * 37);
        EXPECT_EQ(w.stats.cycles, w.cycles);
        cycles += w.cycles;
        for (int c = 0; c < kChargeCategoryCount; ++c)
            count[static_cast<size_t>(c)] +=
                w.stats.count[static_cast<size_t>(c)];
    }
    EXPECT_EQ(cycles, result.cycles);
    for (int c = 0; c < kChargeCategoryCount; ++c) {
        EXPECT_EQ(count[static_cast<size_t>(c)],
                  result.stats.count[static_cast<size_t>(c)])
            << "category " << c;
    }
}

TEST(TraceStreamTest, ParallelMatchesSerialOnFiles)
{
    DramPowerModel model(preset1GbDdr3(55e-9, 16, 1333));
    const std::string path = tempPath("parallel.trace");
    for (unsigned seed : {11u, 12u}) {
        const std::string text = makeRandomTrace(seed, 500);
        {
            std::ofstream out(path, std::ios::trunc | std::ios::binary);
            out << text;
        }
        TraceStreamOptions serial_options;
        serial_options.windowCycles = 64;
        Result<TraceStreamResult> serial =
            evaluateTraceStreamFile(path, serial_options);
        ASSERT_TRUE(serial.ok()) << serial.error().toString();
        const PatternPower reference =
            evaluateStats(model, serial.value().stats);

        for (long long slice : {16LL, 97LL, 1024LL}) {
            for (int jobs : {1, 3}) {
                TraceCampaignOptions options;
                options.windowCycles = 64;
                options.jobs = jobs;
                options.sliceBytes = slice;
                Result<TraceCampaignResult> parallel =
                    evaluateTraceFileParallel(path, options);
                ASSERT_TRUE(parallel.ok())
                    << parallel.error().toString();
                const TraceStreamResult& merged =
                    parallel.value().trace;
                const std::string what =
                    "seed " + std::to_string(seed) + " slice " +
                    std::to_string(slice) + " jobs " +
                    std::to_string(jobs);
                EXPECT_EQ(merged.cycles, serial.value().cycles) << what;
                EXPECT_EQ(merged.commands, serial.value().commands)
                    << what;
                expectBitIdentical(reference,
                                   evaluateStats(model, merged.stats),
                                   what);
                ASSERT_EQ(merged.windows.size(),
                          serial.value().windows.size())
                    << what;
                for (size_t i = 0; i < merged.windows.size(); ++i) {
                    for (int c = 0; c < kChargeCategoryCount; ++c) {
                        EXPECT_EQ(
                            merged.windows[i].stats.count[
                                static_cast<size_t>(c)],
                            serial.value().windows[i].stats.count[
                                static_cast<size_t>(c)])
                            << what << " window " << i;
                    }
                }
            }
        }
    }
    std::remove(path.c_str());
}

TEST(TraceStreamTest, SparseTraceNeverMaterializesDensely)
{
    // The dense path would need ~10 GB for this trace; streaming holds
    // one chunk. The NOP marker semantics must match the dense parser:
    // length = last cycle + 1.
    std::istringstream in("0 ACT\n5 PRE\n9999999999 NOP\n");
    Result<TraceStreamResult> streamed =
        evaluateTraceStream(in, TraceStreamOptions{});
    ASSERT_TRUE(streamed.ok()) << streamed.error().toString();
    EXPECT_EQ(streamed.value().cycles, 10000000000LL);
    EXPECT_EQ(streamed.value().commands, 3);
    EXPECT_EQ(streamed.value().stats.count[0], 1.0);
    EXPECT_EQ(streamed.value().stats.count[1], 1.0);
    EXPECT_EQ(streamed.value().stats.count[5], 1e10);
}

// ---------------------------------------------------------------------
// Protocol checking across chunk boundaries
// ---------------------------------------------------------------------

TEST(TraceStreamTest, CheckerStatePersistsAcrossChunks)
{
    DramDescription desc = preset1GbDdr3(55e-9, 16, 1333);
    // tRCD violation: RD 2 cycles after ACT. The 1-byte chunking puts
    // every boundary inside a record; state must carry across.
    const std::string text = "0 ACT\n2 RD\n40 PRE\n";
    long long reference = -1;
    for (size_t chunk : {size_t{1}, size_t{4096}}) {
        std::istringstream in(text);
        TraceStreamOptions options;
        options.chunkBytes = chunk;
        options.check = true;
        options.banks = desc.spec.banks();
        options.timing = desc.timing;
        Result<TraceStreamResult> streamed =
            evaluateTraceStream(in, options);
        ASSERT_TRUE(streamed.ok()) << streamed.error().toString();
        EXPECT_GT(streamed.value().violationCount, 0);
        if (reference < 0)
            reference = streamed.value().violationCount;
        EXPECT_EQ(streamed.value().violationCount, reference)
            << "chunk " << chunk;
        ASSERT_FALSE(streamed.value().violations.empty());
        EXPECT_EQ(streamed.value().violations[0].rule, "tRCD");
    }
}

TEST(TraceStreamTest, ViolationCyclesDoNotWrapBeyondInt)
{
    DramDescription desc = preset1GbDdr3(55e-9, 16, 1333);
    // Two activates one cycle apart, far beyond 2^31 cycles: the
    // reported violation cycle must be the exact 64-bit value.
    std::istringstream in("3000000000 ACT\n3000000001 ACT\n");
    TraceStreamOptions options;
    options.check = true;
    options.banks = desc.spec.banks();
    options.timing = desc.timing;
    Result<TraceStreamResult> streamed = evaluateTraceStream(in, options);
    ASSERT_TRUE(streamed.ok()) << streamed.error().toString();
    ASSERT_FALSE(streamed.value().violations.empty());
    bool found = false;
    for (const TimingViolation& v : streamed.value().violations) {
        if (v.rule == "tRRD") {
            EXPECT_EQ(v.cycle, 3000000001LL);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------
// Parser and merge error paths
// ---------------------------------------------------------------------

TEST(TraceStreamTest, ParseTraceLineHandlesFormats)
{
    long long cycle = 0;
    Op op = Op::Nop;
    auto parse = [&](const std::string& line) {
        return parseTraceLine(line.data(), line.data() + line.size(),
                              cycle, op);
    };
    Result<bool> r = parse("12 AcTiVaTe");
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value());
    EXPECT_EQ(cycle, 12);
    EXPECT_EQ(op, Op::Act);

    r = parse("  7\tselfrefresh  # trailing comment\r");
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value());
    EXPECT_EQ(cycle, 7);
    EXPECT_EQ(op, Op::Srf);

    r = parse("   # only a comment");
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.value());
    r = parse("");
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.value());

    EXPECT_FALSE(parse("12").ok());
    EXPECT_FALSE(parse("12 ACT extra").ok());
    EXPECT_FALSE(parse("twelve ACT").ok());
    EXPECT_FALSE(parse("12 FOO").ok());
    EXPECT_FALSE(parse("99999999999999999999999999 ACT").ok());
}

TEST(TraceStreamTest, RejectsBadTracesWithLineNumbers)
{
    {
        std::istringstream in("0 ACT\n0 PRE\n");
        Result<TraceStreamResult> r =
            evaluateTraceStream(in, TraceStreamOptions{});
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.error().code, "E-TRACE-ORDER");
        EXPECT_EQ(r.error().line, 2);
    }
    {
        std::istringstream in("0 ACT\n# fine\n5 BOGUS\n");
        Result<TraceStreamResult> r =
            evaluateTraceStream(in, TraceStreamOptions{});
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.error().line, 3);
    }
    {
        std::istringstream in("-5 ACT\n");
        Result<TraceStreamResult> r =
            evaluateTraceStream(in, TraceStreamOptions{});
        ASSERT_FALSE(r.ok());
    }
    {
        std::istringstream in("# nothing\n\n");
        Result<TraceStreamResult> r =
            evaluateTraceStream(in, TraceStreamOptions{});
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.error().code, "E-TRACE-EMPTY");
    }
    EXPECT_FALSE(
        evaluateTraceStreamFile("/nonexistent.trace", TraceStreamOptions{})
            .ok());
}

TEST(TraceStreamTest, FinalLineWithoutNewlineIsParsed)
{
    std::istringstream in("0 ACT\n10 PRE"); // no trailing newline
    Result<TraceStreamResult> r =
        evaluateTraceStream(in, TraceStreamOptions{});
    ASSERT_TRUE(r.ok()) << r.error().toString();
    EXPECT_EQ(r.value().commands, 2);
    EXPECT_EQ(r.value().cycles, 11);
}

TEST(TraceStreamTest, DosLineEndingsMatchUnix)
{
    // DOS CRLF endings and trailing blanks/tabs must parse to exactly
    // the unix-format counts — including a lone trailing '\r' on a
    // final line with no newline at EOF.
    const std::string unix_text = "0 ACT\n5 rd\n9 PRE\n20 nop";
    const std::string dos_text =
        "0 ACT\r\n5 rd  \r\n9 PRE\t\r\n20 nop\r";
    std::istringstream unix_in(unix_text);
    Result<TraceStreamResult> unix_r =
        evaluateTraceStream(unix_in, TraceStreamOptions{});
    ASSERT_TRUE(unix_r.ok()) << unix_r.error().toString();
    for (size_t chunk : {size_t{1}, size_t{5}, size_t{4096}}) {
        TraceStreamOptions options;
        options.chunkBytes = chunk;
        std::istringstream dos_in(dos_text);
        Result<TraceStreamResult> dos_r =
            evaluateTraceStream(dos_in, options);
        ASSERT_TRUE(dos_r.ok()) << dos_r.error().toString();
        EXPECT_EQ(dos_r.value().commands, unix_r.value().commands)
            << "chunk " << chunk;
        EXPECT_EQ(dos_r.value().cycles, unix_r.value().cycles);
        for (int c = 0; c < kChargeCategoryCount; ++c) {
            EXPECT_EQ(dos_r.value().stats.count[static_cast<size_t>(c)],
                      unix_r.value().stats.count[
                          static_cast<size_t>(c)])
                << "chunk " << chunk << " category " << c;
        }
    }
}

TEST(TraceStreamTest, NoNewlineAtEofCountsExactlyOnceAtEveryChunkSize)
{
    // The final partial line must be evaluated exactly once whether the
    // chunk boundary lands before it, inside it, or exactly at the last
    // newline (empty final chunk / exact-multiple file sizes).
    const std::string text = "0 act\n7 pre\n19 rd"; // 17 bytes, no \n
    for (size_t chunk = 1; chunk <= text.size() + 3; ++chunk) {
        TraceStreamOptions options;
        options.chunkBytes = chunk;
        std::istringstream in(text);
        Result<TraceStreamResult> r = evaluateTraceStream(in, options);
        ASSERT_TRUE(r.ok()) << r.error().toString();
        EXPECT_EQ(r.value().commands, 3) << "chunk " << chunk;
        EXPECT_EQ(r.value().cycles, 20) << "chunk " << chunk;

        Result<TraceStreamResult> b =
            evaluateTraceBuffer(text.data(), text.size(), options);
        ASSERT_TRUE(b.ok()) << b.error().toString();
        EXPECT_EQ(b.value().commands, 3) << "buffer chunk " << chunk;
        EXPECT_EQ(b.value().cycles, 20) << "buffer chunk " << chunk;
    }
    // A trailing newline at an exact chunk multiple: the empty final
    // read must not re-process or drop the carried line.
    const std::string closed = "0 act\n7 pre\n19 rd\n"; // 18 bytes
    for (size_t chunk : {size_t{6}, size_t{9}, size_t{18}}) {
        ASSERT_EQ(closed.size() % chunk, 0u);
        TraceStreamOptions options;
        options.chunkBytes = chunk;
        std::istringstream in(closed);
        Result<TraceStreamResult> r = evaluateTraceStream(in, options);
        ASSERT_TRUE(r.ok()) << r.error().toString();
        EXPECT_EQ(r.value().commands, 3) << "chunk " << chunk;
    }
}

TEST(TraceStreamTest, ParallelSlicesHandleNoNewlineAtEof)
{
    // The tail slice owns a final line with no newline; every slice
    // size must count it exactly once.
    const std::string path = tempPath("nonewline.trace");
    std::string text;
    long long cycle = 0;
    for (int i = 0; i < 200; ++i) {
        text += std::to_string(cycle) + (i % 2 ? " act\n" : " pre\n");
        cycle += 3;
    }
    text += std::to_string(cycle) + " rd"; // unterminated final record
    {
        std::ofstream out(path, std::ios::trunc | std::ios::binary);
        out << text;
    }
    std::istringstream serial_in(text);
    Result<TraceStreamResult> serial =
        evaluateTraceStream(serial_in, TraceStreamOptions{});
    ASSERT_TRUE(serial.ok()) << serial.error().toString();
    ASSERT_EQ(serial.value().commands, 201);
    for (long long slice : {7LL, 64LL, 1024LL,
                            static_cast<long long>(text.size())}) {
        TraceCampaignOptions options;
        options.jobs = 2;
        options.sliceBytes = slice;
        Result<TraceCampaignResult> parallel =
            evaluateTraceFileParallel(path, options);
        ASSERT_TRUE(parallel.ok()) << parallel.error().toString();
        EXPECT_EQ(parallel.value().trace.commands, 201)
            << "slice " << slice;
        EXPECT_EQ(parallel.value().trace.cycles,
                  serial.value().cycles)
            << "slice " << slice;
    }
    std::remove(path.c_str());
}

TEST(TraceStreamTest, ValidateTraceWindowBounds)
{
    EXPECT_TRUE(validateTraceWindow(0).ok());
    EXPECT_TRUE(validateTraceWindow(1).ok());
    EXPECT_TRUE(validateTraceWindow(kMaxWindowCycles).ok());
    for (long long bad : {-1LL, -1000LL, kMaxWindowCycles + 1}) {
        Status s = validateTraceWindow(bad);
        ASSERT_FALSE(s.ok()) << bad;
        EXPECT_EQ(s.error().code, "E-TRACE-WINDOW") << bad;
    }
    // The evaluators and the merge reject the same values up front.
    {
        std::istringstream in("0 ACT\n");
        TraceStreamOptions options;
        options.windowCycles = -3;
        Result<TraceStreamResult> r = evaluateTraceStream(in, options);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.error().code, "E-TRACE-WINDOW");
    }
    {
        Result<TraceStreamResult> merged =
            mergeTraceSlices({}, kMaxWindowCycles + 1);
        ASSERT_FALSE(merged.ok());
        EXPECT_EQ(merged.error().code, "E-TRACE-WINDOW");
    }
}

TEST(TraceStreamTest, WidestWindowDoesNotOverflowBoundaryMath)
{
    // One record near the end of the first kMaxWindowCycles window and
    // one in the second: the next-boundary tracking would overflow a
    // naive (index + 1) * windowCycles multiply; it must clamp and
    // still assign both windows correctly.
    std::istringstream in("4611686018427387903 ACT\n"
                          "4611686018427387904 PRE\n");
    TraceStreamOptions options;
    options.windowCycles = kMaxWindowCycles;
    Result<TraceStreamResult> r = evaluateTraceStream(in, options);
    ASSERT_TRUE(r.ok()) << r.error().toString();
    EXPECT_EQ(r.value().commands, 2);
    ASSERT_EQ(r.value().windows.size(), 2u);
    EXPECT_EQ(r.value().windows[0].startCycle, 0);
    EXPECT_EQ(r.value().windows[1].startCycle, kMaxWindowCycles);
    EXPECT_EQ(r.value().windows[0].stats.count[0], 1.0); // the ACT
    EXPECT_EQ(r.value().windows[1].stats.count[1], 1.0); // the PRE
}

TEST(TraceStreamTest, MergeRejectsOverlappingSlices)
{
    TraceSliceCounts a;
    a.firstCycle = 0;
    a.lastCycle = 10;
    a.commands = 2;
    a.total.add(Op::Act);
    a.total.add(Op::Pre);
    TraceSliceCounts b = a;
    b.firstCycle = 10; // overlaps a.lastCycle
    b.lastCycle = 20;
    Result<TraceStreamResult> merged = mergeTraceSlices({a, b}, 0);
    ASSERT_FALSE(merged.ok());
    EXPECT_EQ(merged.error().code, "E-TRACE-ORDER");

    // Empty slices (comment-only byte ranges) are skipped, not errors.
    TraceSliceCounts empty;
    Result<TraceStreamResult> with_empty =
        mergeTraceSlices({a, empty}, 0);
    ASSERT_TRUE(with_empty.ok()) << with_empty.error().toString();
    EXPECT_EQ(with_empty.value().commands, 2);
}

TEST(TraceStreamTest, RejectsAbsurdWindowCounts)
{
    std::istringstream in("2000000 NOP\n");
    TraceStreamOptions options;
    options.windowCycles = 1; // 2M one-cycle windows
    Result<TraceStreamResult> r = evaluateTraceStream(in, options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, "E-TRACE-WINDOW");
}

} // namespace
} // namespace vdram
