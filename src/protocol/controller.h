/**
 * @file
 * Memory-controller command scheduling: converts a stream of memory
 * accesses into a protocol-legal command pattern under an open-page or
 * closed-page row policy, issued either strictly in order or via
 * FR-FCFS (first-ready, first-come-first-served) reordering within a
 * bounded window. This is the system-side substrate for the paper's
 * co-design argument (Section V: "a growing need to co-design the DRAM
 * itself and the memory system using it") — it turns workload locality
 * into command mixes the power model can evaluate.
 */
#ifndef VDRAM_PROTOCOL_CONTROLLER_H
#define VDRAM_PROTOCOL_CONTROLLER_H

#include <array>
#include <vector>

#include "core/spec.h"
#include "protocol/address_map.h"
#include "protocol/timing.h"
#include "protocol/workload.h"
#include "util/result.h"

namespace vdram {

/** Row-buffer management policy. */
enum class PagePolicy {
    OpenPage,   ///< keep rows open, precharge only on conflicts
    ClosedPage, ///< precharge as soon as the access completes
};

/** Policy name ("open" / "closed"). */
std::string pagePolicyName(PagePolicy policy);

/** Parse a page-policy name; E-SCHED-PAGE on an unknown name. */
Result<PagePolicy> parsePagePolicy(const std::string& name);

/** Request-ordering policy. */
enum class SchedPolicy {
    InOrder, ///< issue strictly in arrival order
    FrFcfs,  ///< row-hit-first within a bounded reorder window
};

/** Policy name ("inorder" / "frfcfs"). */
std::string schedPolicyName(SchedPolicy policy);

/** Parse a policy name; E-SCHED-POLICY on an unknown name. */
Result<SchedPolicy> parseSchedPolicy(const std::string& name);

/** Scheduler configuration. */
struct SchedulerOptions {
    PagePolicy pagePolicy = PagePolicy::OpenPage;
    SchedPolicy policy = SchedPolicy::InOrder;
    /**
     * FR-FCFS reorder window: how many pending requests the scheduler
     * considers at once. 1 degenerates to in-order; larger windows
     * find more row hits but delay old misses longer. The window
     * refills after every issue, so it does not bound how often an old
     * miss is passed: steady hits to an open row pass it every time.
     */
    int windowSize = 16;
};

/** Scheduling statistics. */
struct ScheduleStats {
    long long accesses = 0;
    long long rowHits = 0;      ///< open-page hits (no row command)
    long long rowMisses = 0;    ///< bank idle, activate needed
    long long rowConflicts = 0; ///< other row open, precharge needed
    long long reordered = 0;    ///< issued ahead of an older request
    long long cycles = 0;       ///< total schedule length

    double rowHitRate() const
    {
        return accesses > 0
            ? static_cast<double>(rowHits) / accesses
            : 0.0;
    }
};

/** A scheduled command stream plus its statistics. */
struct ScheduledStream {
    Pattern pattern;
    ScheduleStats stats;
};

/**
 * Check an access stream against the device's address ranges. Returns
 * the first offending access as an E-TRACE-BANK / E-TRACE-RANGE error.
 * CommandScheduler::schedule() runs this itself and fails with the
 * same diagnostics, so a stream that schedules is always in range.
 */
Status validateAccesses(const std::vector<MemoryAccess>& accesses,
                        const Specification& spec);

/**
 * Greedy cycle-accurate scheduler: every command is issued at the
 * earliest cycle that satisfies
 * tRC/tRAS/tRP/tRCD/tCCD/tRRD/tFAW/tRTP/tWR/tWTR; idle cycles are
 * filled with NOPs. Under FR-FCFS the next request is chosen
 * row-hit-first from a bounded arrival window (per-bank queues, oldest
 * hit wins, FCFS fallback to the globally oldest request); requests to
 * the same bank and row always issue in arrival order, so same-address
 * dependencies are preserved. The stream is drained at the end (all
 * banks precharged, one full row cycle of padding) so the resulting
 * pattern is legal even when evaluated as a repeating loop.
 *
 * Accesses outside the device's address ranges fail the whole schedule
 * with E-TRACE-BANK / E-TRACE-RANGE (see validateAccesses()).
 */
class CommandScheduler {
  public:
    CommandScheduler(const Specification& spec, const TimingParams& timing,
                     PagePolicy policy);
    CommandScheduler(const Specification& spec, const TimingParams& timing,
                     const SchedulerOptions& options);

    /** Schedule a full access stream. */
    Result<ScheduledStream> schedule(
        const std::vector<MemoryAccess>& accesses);

  private:
    struct BankState {
        bool open = false;
        long long row = -1;
        long long lastActivate = -1000000;
        long long lastPrecharge = -1000000;
        long long lastRead = -1000000;
        long long lastWrite = -1000000;
    };

    /** Emit @p op at @p cycle, growing the stream with NOPs as needed. */
    void emit(long long cycle, Op op);

    /** Issue one access at/after @p now; returns the next free cycle. */
    long long issue(const MemoryAccess& access, long long now,
                    ScheduleStats& stats);

    long long earliestActivate(const BankState& bank) const;
    long long earliestPrecharge(const BankState& bank) const;
    long long earliestColumn(const BankState& bank, bool is_write) const;

    Specification spec_;
    TimingParams timing_;
    SchedulerOptions options_;

    std::vector<Op> stream_;
    std::vector<BankState> banks_;
    long long lastColumn_ = -1000000;
    long long lastWriteBurst_ = -1000000; ///< rank-wide, for tWTR
    /** The last four activates, a ring: tRRD needs the newest, tFAW
     *  the fourth newest. recentNext_ is the slot the next one takes
     *  (the oldest once the ring is full). */
    std::array<long long, 4> recentActivates_{};
    size_t recentCount_ = 0;
    size_t recentNext_ = 0;
    /** Reorder-window capacity: 1 in order, windowSize under FR-FCFS. */
    size_t windowSize_ = 1;
    /** A pending window entry: its row, and its index into the access
     *  stream (which is arrival order). */
    struct Pending {
        long long row;
        size_t index;
    };
    /** The reorder window as per-bank FIFOs, flat: bank b's entries
     *  occupy bankQueues_[b * windowSize_ ...], oldest first, and number
     *  bankQueueSize_[b]. Sized once; together they hold at most
     *  windowSize_. */
    std::vector<Pending> bankQueues_;
    std::vector<size_t> bankQueueSize_;
};

/**
 * CKE power-down policy: rewrite idle (NOP) stretches of a scheduled
 * pattern into power-down cycles. A stretch is only gated when it is
 * longer than @p timeout_cycles (the controller waits that long before
 * dropping CKE) plus @p exit_latency_cycles (tXP: the wake-up must
 * complete before the next command). The leading timeout and trailing
 * exit-latency cycles of each gated stretch stay NOPs.
 *
 * The pattern is a repeating loop, so a trailing NOP run and a leading
 * one form a single wrap-spanning idle stretch and are gated as one.
 *
 * Returns the number of cycles converted to power-down.
 */
long long applyPowerDownPolicy(Pattern& pattern, int timeout_cycles,
                               int exit_latency_cycles);

} // namespace vdram

#endif // VDRAM_PROTOCOL_CONTROLLER_H
