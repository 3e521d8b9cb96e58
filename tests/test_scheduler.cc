/**
 * @file
 * FR-FCFS scheduler and address-mapping property tests: every workload
 * × mapping × policy × window combination must schedule into a
 * protocol-clean stream (zero StreamChecker violations, including the
 * rank-wide tWTR rule), the emitted command-trace text must replay
 * bit-identically through the dense and streaming paths, FR-FCFS must
 * never lose row hits to in-order scheduling, and the checkpointed
 * matrix campaign must evaluate every cell.
 */
#include <gtest/gtest.h>

#include <sstream>
#include <set>

#include "core/model.h"
#include "presets/presets.h"
#include "protocol/command_trace.h"
#include "protocol/controller.h"
#include "protocol/trace_stream.h"
#include "runner/sched_campaign.h"

namespace vdram {
namespace {

DramDescription
testDevice()
{
    return preset1GbDdr3(55e-9, 16, 1333);
}

/** Violations of the linear stream checker over a scheduled loop. */
long long
streamViolations(const DramDescription& desc, const Pattern& pattern)
{
    StreamChecker checker(desc.timing, desc.spec.banks(), 8);
    for (size_t i = 0; i < pattern.loop.size(); ++i) {
        if (pattern.loop[i] != Op::Nop)
            checker.apply(static_cast<long long>(i), pattern.loop[i]);
    }
    return checker.violationCount();
}

TEST(AddressMapTest, EncodeDecodeRoundTripsEverySchemeExactly)
{
    DramDescription desc = testDevice();
    for (MapScheme scheme : allMapSchemes()) {
        AddressMap map(desc.spec, scheme);
        ASSERT_GT(map.capacity(), 0);
        // A coprime stride samples the space without favoring any
        // bank/row/column alignment.
        const long long stride = 1'000'003 % map.capacity() + 1;
        long long address = 0;
        for (int i = 0; i < 2'000; ++i) {
            MemoryAccess access = map.decode(address, i % 3 == 0);
            EXPECT_GE(access.bank, 0);
            EXPECT_LT(access.bank, map.banks());
            EXPECT_GE(access.row, 0);
            EXPECT_LT(access.row, map.rows());
            EXPECT_GE(access.column, 0);
            EXPECT_LT(access.column, map.columnGroups());
            EXPECT_EQ(map.encode(access), address)
                << mapSchemeName(scheme) << " address " << address;
            address = (address + stride) % map.capacity();
        }
    }
}

TEST(AddressMapTest, XorSchemePermutesBanksPerRow)
{
    DramDescription desc = testDevice();
    AddressMap canonical(desc.spec, MapScheme::RowBankCol);
    AddressMap hashed(desc.spec, MapScheme::XorBankRowCol);
    // For any row, the XOR hash must assign consecutive canonical
    // banks to distinct physical banks (it is a permutation, so no two
    // canonical banks collide on one row).
    for (long long row : {0LL, 1LL, 7LL, 1000LL}) {
        std::set<int> banks;
        for (int bank = 0; bank < canonical.banks(); ++bank) {
            MemoryAccess access{false, bank, row, 0};
            long long address = canonical.encode(access);
            banks.insert(hashed.decode(address, false).bank);
        }
        EXPECT_EQ(static_cast<int>(banks.size()), canonical.banks())
            << "row " << row;
    }
}

TEST(AddressMapTest, RemapThroughAnySchemeIsLossless)
{
    DramDescription desc = testDevice();
    WorkloadParams params;
    params.count = 300;
    std::vector<MemoryAccess> canonical =
        makeRandomWorkload(desc.spec, params);
    for (MapScheme scheme : allMapSchemes()) {
        std::vector<MemoryAccess> remapped =
            remapAccesses(canonical, desc.spec, scheme);
        ASSERT_EQ(remapped.size(), canonical.size());
        // Remapping permutes addresses bijectively: mapping back
        // through the scheme's encode and the canonical decode must
        // restore the original access exactly.
        AddressMap from(desc.spec, scheme);
        AddressMap to(desc.spec, MapScheme::RowBankCol);
        for (size_t i = 0; i < canonical.size(); ++i) {
            MemoryAccess back =
                to.decode(from.encode(remapped[i]), remapped[i].write);
            EXPECT_EQ(back.bank, canonical[i].bank);
            EXPECT_EQ(back.row, canonical[i].row);
            EXPECT_EQ(back.column, canonical[i].column);
            EXPECT_EQ(back.write, canonical[i].write);
        }
    }
}

TEST(SchedulerPropertyTest, EveryCombinationReplaysCleanThroughChecker)
{
    DramDescription desc = testDevice();
    WorkloadParams params;
    params.count = 120;
    params.seed = 7;
    for (WorkloadKind kind : allWorkloadKinds()) {
        for (MapScheme scheme : allMapSchemes()) {
            AddressMap map(desc.spec, scheme);
            std::vector<MemoryAccess> accesses =
                makeWorkload(desc.spec, map, kind, params);
            for (PagePolicy page :
                 {PagePolicy::OpenPage, PagePolicy::ClosedPage}) {
                for (int window : {1, 4, 32}) {
                    SchedulerOptions options;
                    options.pagePolicy = page;
                    options.policy = window == 1 ? SchedPolicy::InOrder
                                                 : SchedPolicy::FrFcfs;
                    options.windowSize = window;
                    CommandScheduler scheduler(desc.spec, desc.timing,
                                               options);
                    Result<ScheduledStream> stream =
                        scheduler.schedule(accesses);
                    ASSERT_TRUE(stream.ok())
                        << stream.error().toString();
                    EXPECT_EQ(streamViolations(
                                  desc, stream.value().pattern),
                              0)
                        << workloadKindName(kind) << "/"
                        << mapSchemeName(scheme) << "/"
                        << pagePolicyName(page) << "/window " << window;
                    EXPECT_EQ(stream.value().stats.accesses,
                              params.count);
                }
            }
        }
    }
}

TEST(SchedulerPropertyTest, EmittedTraceReplaysBitIdenticallyBothPaths)
{
    DramDescription desc = testDevice();
    DramPowerModel model(desc);
    WorkloadParams params;
    params.count = 200;
    params.seed = 3;
    AddressMap map(desc.spec, MapScheme::XorBankRowCol);
    SchedulerOptions options;
    options.policy = SchedPolicy::FrFcfs;
    CommandScheduler scheduler(desc.spec, desc.timing, options);
    Result<ScheduledStream> stream = scheduler.schedule(
        makeWorkload(desc.spec, map, WorkloadKind::Zipf, params));
    ASSERT_TRUE(stream.ok()) << stream.error().toString();
    const Pattern& pattern = stream.value().pattern;

    // Dense: the emitted text parses back to the exact same loop.
    const std::string text = writeCommandTrace(pattern);
    Result<Pattern> dense = parseCommandTrace(text);
    ASSERT_TRUE(dense.ok()) << dense.error().toString();
    ASSERT_EQ(dense.value().loop.size(), pattern.loop.size());
    EXPECT_TRUE(dense.value().loop == pattern.loop);

    // Streaming: identical bits out of the stats-driven evaluation,
    // and the protocol check stays clean end to end.
    PatternPower reference = model.evaluate(pattern);
    std::istringstream in(text);
    TraceStreamOptions trace_options;
    trace_options.check = true;
    trace_options.banks = desc.spec.banks();
    trace_options.timing = desc.timing;
    Result<TraceStreamResult> streamed =
        evaluateTraceStream(in, trace_options);
    ASSERT_TRUE(streamed.ok()) << streamed.error().toString();
    EXPECT_EQ(streamed.value().violationCount, 0);
    PatternPower via_stats = computePatternPowerFromStats(
        streamed.value().stats, model.operations(), desc.elec,
        desc.timing.tCkSeconds, desc.spec);
    EXPECT_EQ(via_stats.power, reference.power);
    EXPECT_EQ(via_stats.energyPerBit, reference.energyPerBit);
    EXPECT_EQ(via_stats.externalCurrent, reference.externalCurrent);
}

TEST(SchedulerPropertyTest, FrFcfsNeverLosesRowHitsToInOrder)
{
    DramDescription desc = testDevice();
    AddressMap map(desc.spec, MapScheme::RowBankCol);
    WorkloadParams params;
    params.count = 400;
    for (WorkloadKind kind :
         {WorkloadKind::Local, WorkloadKind::Zipf, WorkloadKind::Mixed,
          WorkloadKind::Stream}) {
        params.zipfExponent = 1.2;
        std::vector<MemoryAccess> accesses =
            makeWorkload(desc.spec, map, kind, params);
        CommandScheduler in_order(desc.spec, desc.timing,
                                  PagePolicy::OpenPage);
        SchedulerOptions frfcfs_options;
        frfcfs_options.policy = SchedPolicy::FrFcfs;
        CommandScheduler frfcfs(desc.spec, desc.timing, frfcfs_options);
        Result<ScheduledStream> serial = in_order.schedule(accesses);
        Result<ScheduledStream> reordered = frfcfs.schedule(accesses);
        ASSERT_TRUE(serial.ok());
        ASSERT_TRUE(reordered.ok());
        // Row hits are the guaranteed invariant; schedule length is
        // merely correlated (greedy issue order can shift conflicts
        // around by a few cycles either way).
        EXPECT_GE(reordered.value().stats.rowHits,
                  serial.value().stats.rowHits)
            << workloadKindName(kind);
    }
}

TEST(SchedulerPropertyTest, WindowOfOneDegeneratesToInOrder)
{
    DramDescription desc = testDevice();
    AddressMap map(desc.spec, MapScheme::RowBankCol);
    WorkloadParams params;
    params.count = 250;
    std::vector<MemoryAccess> accesses =
        makeWorkload(desc.spec, map, WorkloadKind::Zipf, params);
    CommandScheduler in_order(desc.spec, desc.timing,
                              PagePolicy::OpenPage);
    SchedulerOptions narrow;
    narrow.policy = SchedPolicy::FrFcfs;
    narrow.windowSize = 1;
    CommandScheduler frfcfs(desc.spec, desc.timing, narrow);
    Result<ScheduledStream> a = in_order.schedule(accesses);
    Result<ScheduledStream> b = frfcfs.schedule(accesses);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(a.value().pattern.loop == b.value().pattern.loop);
    EXPECT_EQ(b.value().stats.reordered, 0);
}

TEST(SchedCampaignTest, CellPayloadRoundTrips)
{
    SchedMatrixCell cell;
    cell.stats.accesses = 500;
    cell.stats.rowHits = 321;
    cell.stats.rowMisses = 8;
    cell.stats.rowConflicts = 171;
    cell.stats.reordered = 42;
    cell.stats.cycles = 6123;
    cell.violations = 0;
    cell.power = 0.123456789012345;
    cell.energyPerBit = 2.5e-11;
    Result<SchedMatrixCell> decoded =
        decodeSchedCell(encodeSchedCell(cell));
    ASSERT_TRUE(decoded.ok()) << decoded.error().toString();
    EXPECT_EQ(decoded.value().stats.rowHits, cell.stats.rowHits);
    EXPECT_EQ(decoded.value().stats.cycles, cell.stats.cycles);
    EXPECT_EQ(decoded.value().power, cell.power);
    EXPECT_EQ(decoded.value().energyPerBit, cell.energyPerBit);

    EXPECT_FALSE(decodeSchedCell({1, 2, 3}).ok());
}

TEST(SchedCampaignTest, MatrixEvaluatesEveryCellClean)
{
    DramDescription desc = testDevice();
    SchedMatrixOptions options;
    options.workloads = {WorkloadKind::Local, WorkloadKind::Zipf};
    options.schemes = {MapScheme::RowBankCol, MapScheme::XorBankRowCol};
    options.policies = {SchedPolicy::InOrder, SchedPolicy::FrFcfs};
    options.pagePolicies = {PagePolicy::OpenPage};
    options.params.count = 150;
    RunnerOptions runner;
    runner.jobs = 2;
    Result<SchedMatrixCampaign> campaign =
        runSchedMatrixCampaign(desc, options, runner, nullptr);
    ASSERT_TRUE(campaign.ok()) << campaign.error().toString();
    EXPECT_TRUE(campaign.value().report.complete());
    ASSERT_EQ(campaign.value().cells.size(), 8u);
    for (const SchedMatrixCell& cell : campaign.value().cells) {
        EXPECT_TRUE(cell.ok);
        EXPECT_EQ(cell.violations, 0);
        EXPECT_EQ(cell.stats.accesses, 150);
        EXPECT_GT(cell.power, 0);
    }
}

TEST(SchedCampaignTest, EmptyAxisIsRejected)
{
    DramDescription desc = testDevice();
    SchedMatrixOptions options;
    options.schemes = {MapScheme::RowBankCol};
    options.policies = {SchedPolicy::InOrder};
    options.pagePolicies = {PagePolicy::OpenPage};
    Result<SchedMatrixCampaign> campaign =
        runSchedMatrixCampaign(desc, options, RunnerOptions{}, nullptr);
    ASSERT_FALSE(campaign.ok());
    EXPECT_EQ(campaign.error().code, "E-SCHED-MATRIX");
}

} // namespace
} // namespace vdram
