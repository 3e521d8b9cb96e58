/**
 * @file
 * Memory controller tests: hit/miss/conflict classification, policy
 * behaviour, protocol legality of the scheduled streams, and the
 * workload generators.
 */
#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <set>

#include "core/builder.h"
#include "core/model.h"
#include "presets/presets.h"
#include "protocol/bank_fsm.h"
#include "protocol/controller.h"
#include "util/logging.h"

namespace vdram {
namespace {

class ControllerTest : public ::testing::Test {
  protected:
    ControllerTest()
        : desc_(preset1GbDdr3(55e-9, 16, 1333)),
          spec_(desc_.spec),
          timing_(desc_.timing)
    {
    }

    DramDescription desc_;
    Specification spec_;
    TimingParams timing_;

    static ScheduledStream mustSchedule(
        CommandScheduler& scheduler,
        const std::vector<MemoryAccess>& accesses)
    {
        Result<ScheduledStream> result = scheduler.schedule(accesses);
        if (!result.ok()) {
            ADD_FAILURE() << result.error().toString();
            return ScheduledStream{};
        }
        return std::move(result).value();
    }
};

TEST_F(ControllerTest, ClassifiesHitsMissesConflicts)
{
    CommandScheduler scheduler(spec_, timing_, PagePolicy::OpenPage);
    std::vector<MemoryAccess> accesses = {
        {false, 0, 10, 0}, // miss (bank idle)
        {false, 0, 10, 1}, // hit (same row)
        {false, 0, 10, 2}, // hit
        {false, 0, 11, 0}, // conflict (other row open)
        {false, 1, 5, 0},  // miss (other bank idle)
    };
    ScheduledStream stream = mustSchedule(scheduler, accesses);
    EXPECT_EQ(stream.stats.accesses, 5);
    EXPECT_EQ(stream.stats.rowHits, 2);
    EXPECT_EQ(stream.stats.rowMisses, 2);
    EXPECT_EQ(stream.stats.rowConflicts, 1);
}

TEST_F(ControllerTest, ClosedPageNeverHits)
{
    CommandScheduler scheduler(spec_, timing_, PagePolicy::ClosedPage);
    std::vector<MemoryAccess> accesses = {
        {false, 0, 10, 0}, {false, 0, 10, 1}, {false, 0, 10, 2}};
    ScheduledStream stream = mustSchedule(scheduler, accesses);
    EXPECT_EQ(stream.stats.rowHits, 0);
    EXPECT_EQ(stream.stats.rowMisses, 3);
    // One ACT and one PRE per access.
    EXPECT_EQ(stream.pattern.count(Op::Act), 3);
    EXPECT_EQ(stream.pattern.count(Op::Pre), 3);
}

TEST_F(ControllerTest, OpenPageKeepsRowOpen)
{
    CommandScheduler scheduler(spec_, timing_, PagePolicy::OpenPage);
    std::vector<MemoryAccess> accesses = {
        {false, 0, 10, 0}, {false, 0, 10, 1}, {false, 0, 10, 2}};
    ScheduledStream stream = mustSchedule(scheduler, accesses);
    // One ACT; the drain adds the single PRE.
    EXPECT_EQ(stream.pattern.count(Op::Act), 1);
    EXPECT_EQ(stream.pattern.count(Op::Pre), 1);
    EXPECT_EQ(stream.pattern.count(Op::Rd), 3);
}

TEST_F(ControllerTest, CommandCountsMatchAccesses)
{
    CommandScheduler scheduler(spec_, timing_, PagePolicy::OpenPage);
    WorkloadParams params;
    params.count = 500;
    params.writeFraction = 0.4;
    auto accesses = makeRandomWorkload(spec_, params);
    ScheduledStream stream = mustSchedule(scheduler, accesses);
    EXPECT_EQ(stream.pattern.count(Op::Rd) + stream.pattern.count(Op::Wr),
              500);
    EXPECT_EQ(stream.pattern.count(Op::Act),
              stream.stats.rowMisses + stream.stats.rowConflicts);
    // Every activate is eventually precharged (conflicts + drain).
    EXPECT_EQ(stream.pattern.count(Op::Act),
              stream.pattern.count(Op::Pre));
}

TEST_F(ControllerTest, ScheduledStreamsAreProtocolClean)
{
    for (PagePolicy policy :
         {PagePolicy::OpenPage, PagePolicy::ClosedPage}) {
        CommandScheduler scheduler(spec_, timing_, policy);
        WorkloadParams params;
        params.count = 300;
        params.seed = 7;
        auto accesses = makeLocalityWorkload(spec_, params, 0.5);
        ScheduledStream stream = mustSchedule(scheduler, accesses);
        PatternCheckResult result =
            checkPattern(stream.pattern, timing_, spec_.banks());
        EXPECT_TRUE(result.ok())
            << (policy == PagePolicy::OpenPage ? "open" : "closed")
            << " page: " << result.summary();
    }
}

TEST_F(ControllerTest, LocalityRaisesHitRate)
{
    CommandScheduler scheduler(spec_, timing_, PagePolicy::OpenPage);
    WorkloadParams params;
    params.count = 2000;
    double prev_hit_rate = -1;
    for (double locality : {0.0, 0.5, 0.9}) {
        auto accesses = makeLocalityWorkload(spec_, params, locality);
        ScheduledStream stream = mustSchedule(scheduler, accesses);
        EXPECT_GT(stream.stats.rowHitRate(), prev_hit_rate);
        prev_hit_rate = stream.stats.rowHitRate();
    }
    EXPECT_GT(prev_hit_rate, 0.6); // 90 % locality -> mostly hits
}

TEST_F(ControllerTest, StreamingWorkloadIsNearlyAllHits)
{
    CommandScheduler scheduler(spec_, timing_, PagePolicy::OpenPage);
    WorkloadParams params;
    params.count = 2000;
    auto accesses = makeStreamingWorkload(spec_, params);
    ScheduledStream stream = mustSchedule(scheduler, accesses);
    EXPECT_GT(stream.stats.rowHitRate(), 0.9);
}

TEST_F(ControllerTest, HigherLocalityLowersOpenPagePower)
{
    DramPowerModel model(desc_);
    CommandScheduler scheduler(spec_, timing_, PagePolicy::OpenPage);
    WorkloadParams params;
    params.count = 1000;
    auto low = mustSchedule(scheduler,
                            makeLocalityWorkload(spec_, params, 0.0));
    auto high = mustSchedule(scheduler,
                             makeLocalityWorkload(spec_, params, 0.9));
    double e_low = model.evaluate(low.pattern).energyPerBit;
    double e_high = model.evaluate(high.pattern).energyPerBit;
    EXPECT_LT(e_high, e_low);
}

TEST_F(ControllerTest, WorkloadsAreDeterministicAndInRange)
{
    WorkloadParams params;
    params.count = 300;
    params.seed = 42;
    auto a = makeRandomWorkload(spec_, params);
    auto b = makeRandomWorkload(spec_, params);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].bank, b[i].bank);
        EXPECT_EQ(a[i].row, b[i].row);
        EXPECT_GE(a[i].bank, 0);
        EXPECT_LT(a[i].bank, spec_.banks());
        EXPECT_GE(a[i].row, 0);
        EXPECT_LT(a[i].row, spec_.rowsPerBank());
    }
}

TEST_F(ControllerTest, WriteFractionHonored)
{
    WorkloadParams params;
    params.count = 4000;
    params.writeFraction = 0.25;
    auto accesses = makeRandomWorkload(spec_, params);
    long long writes = 0;
    for (const MemoryAccess& a : accesses)
        writes += a.write;
    double fraction = static_cast<double>(writes) / params.count;
    EXPECT_NEAR(fraction, 0.25, 0.05);
}

TEST_F(ControllerTest, PowerDownPolicyGatesLongGapsOnly)
{
    Pattern p;
    p.loop = {Op::Act, Op::Nop, Op::Nop, Op::Nop, Op::Rd,
              Op::Nop, Op::Nop, Op::Nop, Op::Nop, Op::Nop,
              Op::Nop, Op::Nop, Op::Pre};
    // timeout 2 + exit 2: only the 7-NOP gap (cycles 5..11) qualifies;
    // cycles 7..9 gate.
    long long converted = applyPowerDownPolicy(p, 2, 2);
    EXPECT_EQ(converted, 3);
    EXPECT_EQ(p.count(Op::Pdn), 3);
    // The 3-NOP gap after ACT is untouched.
    EXPECT_EQ(p.loop[1], Op::Nop);
    EXPECT_EQ(p.loop[2], Op::Nop);
    EXPECT_EQ(p.loop[3], Op::Nop);
    // Leading timeout and trailing exit cycles of the gated gap stay
    // NOPs.
    EXPECT_EQ(p.loop[5], Op::Nop);
    EXPECT_EQ(p.loop[6], Op::Nop);
    EXPECT_EQ(p.loop[7], Op::Pdn);
    EXPECT_EQ(p.loop[9], Op::Pdn);
    EXPECT_EQ(p.loop[10], Op::Nop);
    EXPECT_EQ(p.loop[11], Op::Nop);
    // Commands are untouched.
    EXPECT_EQ(p.count(Op::Act), 1);
    EXPECT_EQ(p.count(Op::Rd), 1);
    EXPECT_EQ(p.count(Op::Pre), 1);
}

TEST_F(ControllerTest, PowerDownPolicyCutsIdleWorkloadPower)
{
    DramPowerModel model(desc_);
    // A sparse workload: long idle gaps between accesses.
    CommandScheduler scheduler(spec_, timing_, PagePolicy::ClosedPage);
    WorkloadParams params;
    params.count = 50;
    ScheduledStream stream =
        mustSchedule(scheduler, makeRandomWorkload(spec_, params));
    // Pad heavy idleness at the end.
    stream.pattern.loop.insert(stream.pattern.loop.end(), 4000, Op::Nop);

    double without = model.evaluate(stream.pattern).power;
    Pattern gated = stream.pattern;
    long long converted = applyPowerDownPolicy(gated, 10, 5);
    EXPECT_GT(converted, 3000);
    double with_pd = model.evaluate(gated).power;
    EXPECT_LT(with_pd, 0.7 * without);
}

TEST_F(ControllerTest, OutOfRangeAccessFailsSchedule)
{
    CommandScheduler scheduler(spec_, timing_, PagePolicy::OpenPage);

    std::vector<MemoryAccess> bad_bank = {{false, spec_.banks(), 0, 0},
                                          {false, 0, 0, 0}};
    Result<ScheduledStream> r = scheduler.schedule(bad_bank);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, "E-TRACE-BANK");

    std::vector<MemoryAccess> bad_row = {
        {false, 0, spec_.rowsPerBank(), 0}};
    r = scheduler.schedule(bad_row);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, "E-TRACE-RANGE");

    // A failed schedule does not poison the scheduler.
    std::vector<MemoryAccess> good = {{false, 0, 0, 0}};
    r = scheduler.schedule(good);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().stats.accesses, 1);

    Status status = validateAccesses(bad_bank, spec_);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code, "E-TRACE-BANK");
}

TEST_F(ControllerTest, PowerDownPolicyMergesWrapSpanningIdleRun)
{
    // The pattern repeats: 3 trailing + 3 leading NOPs form one 6-cycle
    // idle stretch across the loop boundary. With timeout 2 + exit 2
    // neither run qualifies alone, merged it gates 2 cycles.
    Pattern p;
    p.loop = {Op::Nop, Op::Nop, Op::Nop, Op::Act, Op::Rd,
              Op::Pre, Op::Nop, Op::Nop, Op::Nop};
    long long converted = applyPowerDownPolicy(p, 2, 2);
    EXPECT_EQ(converted, 2);
    // timeout cycles 8, 0 stay NOP; gated 1, 2... the run starts at
    // index 6, so indices 8 and 0 gate and 1, 2 are the exit tail.
    EXPECT_EQ(p.loop[6], Op::Nop);
    EXPECT_EQ(p.loop[7], Op::Nop);
    EXPECT_EQ(p.loop[8], Op::Pdn);
    EXPECT_EQ(p.loop[0], Op::Pdn);
    EXPECT_EQ(p.loop[1], Op::Nop);
    EXPECT_EQ(p.loop[2], Op::Nop);
}

TEST_F(ControllerTest, PowerDownPolicyGatesAllIdleLoop)
{
    Pattern p;
    p.loop.assign(10, Op::Nop);
    EXPECT_EQ(applyPowerDownPolicy(p, 2, 3), 5);
    EXPECT_EQ(p.count(Op::Pdn), 5);
    EXPECT_EQ(p.loop[0], Op::Nop);
    EXPECT_EQ(p.loop[1], Op::Nop);
    EXPECT_EQ(p.loop[2], Op::Pdn);
    EXPECT_EQ(p.loop[6], Op::Pdn);
    EXPECT_EQ(p.loop[7], Op::Nop);
}

TEST_F(ControllerTest, SchedulerEnforcesWriteToReadTurnaround)
{
    CommandScheduler scheduler(spec_, timing_, PagePolicy::OpenPage);
    std::vector<MemoryAccess> accesses = {{true, 0, 10, 0},
                                          {false, 0, 10, 1}};
    ScheduledStream stream = mustSchedule(scheduler, accesses);
    long long wr_at = -1, rd_at = -1;
    for (size_t i = 0; i < stream.pattern.loop.size(); ++i) {
        if (stream.pattern.loop[i] == Op::Wr)
            wr_at = static_cast<long long>(i);
        if (stream.pattern.loop[i] == Op::Rd)
            rd_at = static_cast<long long>(i);
    }
    ASSERT_GE(wr_at, 0);
    ASSERT_GE(rd_at, 0);
    EXPECT_GE(rd_at - wr_at, timing_.burstCycles + timing_.tWtr);
}

TEST_F(ControllerTest, CycleCountDoesNotWrapPast2To31)
{
    // The conversion ScheduleStats::cycles goes through; an int count
    // wraps at 2^31 cycles, which a 2 GB one-byte-Op stream reaches.
    EXPECT_EQ(cycleCount(0), 0);
    EXPECT_EQ(cycleCount(size_t{1} << 31), 2147483648LL);
    EXPECT_EQ(cycleCount(size_t{5'000'000'000}), 5'000'000'000LL);
    EXPECT_EQ(cycleCount(SIZE_MAX), LLONG_MAX);

    CommandScheduler scheduler(spec_, timing_, PagePolicy::OpenPage);
    ScheduledStream stream = mustSchedule(scheduler, {{false, 0, 10, 0}});
    EXPECT_EQ(stream.stats.cycles,
              static_cast<long long>(stream.pattern.loop.size()));
}

TEST_F(ControllerTest, FourActivateWindowBindsOnTheFourthNewest)
{
    // With the device's timing, tRCD spaces in-order activates so far
    // apart that tFAW never binds. Shrink tRCD and tRRD and widen tFAW
    // until it does: the fifth activate must wait exactly tFAW after
    // the first, i.e. behind the fourth newest, not the third.
    TimingParams timing = timing_;
    timing.tRcd = 1;
    timing.tRrd = 2;
    timing.tFaw = 40;
    CommandScheduler scheduler(spec_, timing, PagePolicy::OpenPage);
    std::vector<MemoryAccess> accesses;
    for (int bank = 0; bank < spec_.banks(); ++bank)
        accesses.push_back({false, bank, 3, 0});
    ScheduledStream stream = mustSchedule(scheduler, accesses);
    std::vector<long long> acts;
    for (size_t i = 0; i < stream.pattern.loop.size(); ++i) {
        if (stream.pattern.loop[i] == Op::Act)
            acts.push_back(static_cast<long long>(i));
    }
    ASSERT_EQ(acts.size(), accesses.size());
    ASSERT_GE(acts.size(), 5u);
    EXPECT_EQ(acts[4] - acts[0], timing.tFaw);
    for (size_t k = 1; k < acts.size(); ++k)
        EXPECT_GE(acts[k] - acts[k - 1], timing.tRrd) << "act " << k;
    for (size_t k = 4; k < acts.size(); ++k)
        EXPECT_GE(acts[k] - acts[k - 4], timing.tFaw) << "act " << k;
}

} // namespace
} // namespace vdram
