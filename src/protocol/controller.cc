#include "protocol/controller.h"

#include <algorithm>

#include "util/logging.h"
#include "util/strings.h"

namespace vdram {

std::string
pagePolicyName(PagePolicy policy)
{
    switch (policy) {
    case PagePolicy::OpenPage:
        return "open";
    case PagePolicy::ClosedPage:
        return "closed";
    }
    panic("unknown page policy");
}

Result<PagePolicy>
parsePagePolicy(const std::string& name)
{
    if (name == "open")
        return PagePolicy::OpenPage;
    if (name == "closed")
        return PagePolicy::ClosedPage;
    Error e;
    e.code = "E-SCHED-PAGE";
    e.message = strformat(
        "unknown page policy '%s' (expected open or closed)",
        name.c_str());
    return e;
}

std::string
schedPolicyName(SchedPolicy policy)
{
    switch (policy) {
    case SchedPolicy::InOrder:
        return "inorder";
    case SchedPolicy::FrFcfs:
        return "frfcfs";
    }
    panic("unknown scheduling policy");
}

Result<SchedPolicy>
parseSchedPolicy(const std::string& name)
{
    if (name == "inorder" || name == "fcfs")
        return SchedPolicy::InOrder;
    if (name == "frfcfs" || name == "fr-fcfs")
        return SchedPolicy::FrFcfs;
    Error e;
    e.code = "E-SCHED-POLICY";
    e.message = strformat(
        "unknown scheduling policy '%s' (expected inorder or frfcfs)",
        name.c_str());
    return e;
}

Status
validateAccesses(const std::vector<MemoryAccess>& accesses,
                 const Specification& spec)
{
    const int banks = spec.banks();
    const long long rows = spec.rowsPerBank();
    const long long columns = std::max<long long>(
        1, (1LL << spec.columnAddressBits) / spec.burstLength);
    for (size_t i = 0; i < accesses.size(); ++i) {
        const MemoryAccess& a = accesses[i];
        if (a.bank < 0 || a.bank >= banks) {
            Error e;
            e.code = "E-TRACE-BANK";
            e.message = strformat(
                "access %zu addresses bank %d outside the device "
                "(%d banks)", i, a.bank, banks);
            return Status(e);
        }
        if (a.row < 0 || a.row >= rows) {
            Error e;
            e.code = "E-TRACE-RANGE";
            e.message = strformat(
                "access %zu addresses row %lld outside the bank "
                "(%lld rows)", i, a.row, rows);
            return Status(e);
        }
        if (a.column < 0 || a.column >= columns) {
            Error e;
            e.code = "E-TRACE-RANGE";
            e.message = strformat(
                "access %zu addresses column group %lld outside the "
                "row (%lld groups)", i, a.column, columns);
            return Status(e);
        }
    }
    return Status::okStatus();
}

CommandScheduler::CommandScheduler(const Specification& spec,
                                   const TimingParams& timing,
                                   PagePolicy policy)
    : CommandScheduler(spec, timing,
                       SchedulerOptions{policy, SchedPolicy::InOrder, 1})
{
}

CommandScheduler::CommandScheduler(const Specification& spec,
                                   const TimingParams& timing,
                                   const SchedulerOptions& options)
    : spec_(spec), timing_(timing), options_(options)
{
    if (options_.windowSize < 1) {
        warn("scheduler window below 1; clamping to 1");
        options_.windowSize = 1;
    }
    banks_.resize(static_cast<size_t>(spec.banks()));
    windowSize_ = options_.policy == SchedPolicy::InOrder
        ? 1
        : static_cast<size_t>(options_.windowSize);
    bankQueues_.resize(banks_.size() * windowSize_);
    bankQueueSize_.resize(banks_.size());
}

void
CommandScheduler::emit(long long cycle, Op op)
{
    if (cycle < static_cast<long long>(stream_.size()))
        panic("CommandScheduler: emitting into the past");
    stream_.resize(static_cast<size_t>(cycle), Op::Nop);
    stream_.push_back(op);
}

long long
CommandScheduler::earliestActivate(const BankState& bank) const
{
    long long cycle = std::max(bank.lastActivate + timing_.tRc,
                               bank.lastPrecharge + timing_.tRp);
    // tRRD against the most recent activate, tFAW against the fourth
    // most recent (the ring's oldest slot once it is full).
    if (recentCount_ > 0) {
        cycle = std::max(cycle, recentActivates_[(recentNext_ + 3) % 4] +
                                    timing_.tRrd);
        if (recentCount_ == 4) {
            cycle = std::max(cycle, recentActivates_[recentNext_] +
                                        timing_.tFaw);
        }
    }
    return cycle;
}

long long
CommandScheduler::earliestPrecharge(const BankState& bank) const
{
    return std::max({bank.lastActivate + timing_.tRas,
                     bank.lastRead + timing_.tRtp,
                     bank.lastWrite + timing_.burstCycles + timing_.tWr});
}

long long
CommandScheduler::earliestColumn(const BankState& bank,
                                 bool is_write) const
{
    long long cycle = std::max(bank.lastActivate + timing_.tRcd,
                               lastColumn_ + timing_.tCcd);
    // Write-to-read turnaround is rank-wide: the write burst must clear
    // the data bus plus tWTR before any read command.
    if (!is_write) {
        cycle = std::max(cycle, lastWriteBurst_ + timing_.burstCycles +
                                    timing_.tWtr);
    }
    return cycle;
}

long long
CommandScheduler::issue(const MemoryAccess& access, long long now,
                        ScheduleStats& stats)
{
    BankState& bank = banks_[static_cast<size_t>(access.bank)];
    ++stats.accesses;

    bool need_activate = false;
    if (bank.open && bank.row == access.row) {
        ++stats.rowHits;
    } else if (bank.open) {
        ++stats.rowConflicts;
        long long pre_at = std::max(now, earliestPrecharge(bank));
        emit(pre_at, Op::Pre);
        bank.open = false;
        bank.lastPrecharge = pre_at;
        now = pre_at + 1;
        need_activate = true;
    } else {
        ++stats.rowMisses;
        need_activate = true;
    }

    if (need_activate) {
        long long act_at = std::max(now, earliestActivate(bank));
        emit(act_at, Op::Act);
        bank.open = true;
        bank.row = access.row;
        bank.lastActivate = act_at;
        recentActivates_[recentNext_] = act_at;
        recentNext_ = (recentNext_ + 1) % 4;
        recentCount_ = std::min<size_t>(recentCount_ + 1, 4);
        now = act_at + 1;
    }

    long long col_at =
        std::max(now, earliestColumn(bank, access.write));
    emit(col_at, access.write ? Op::Wr : Op::Rd);
    lastColumn_ = col_at;
    if (access.write) {
        bank.lastWrite = col_at;
        lastWriteBurst_ = col_at;
    } else {
        bank.lastRead = col_at;
    }
    now = col_at + 1;

    if (options_.pagePolicy == PagePolicy::ClosedPage) {
        long long pre_at = std::max(now, earliestPrecharge(bank));
        emit(pre_at, Op::Pre);
        bank.open = false;
        bank.lastPrecharge = pre_at;
        now = pre_at + 1;
    }
    return now;
}

Result<ScheduledStream>
CommandScheduler::schedule(const std::vector<MemoryAccess>& accesses)
{
    Status valid = validateAccesses(accesses, spec_);
    if (!valid.ok())
        return valid.error();

    stream_.clear();
    for (BankState& bank : banks_)
        bank = BankState{};
    lastColumn_ = -1000000;
    lastWriteBurst_ = -1000000;
    recentCount_ = 0;
    recentNext_ = 0;
    std::fill(bankQueueSize_.begin(), bankQueueSize_.end(), 0);

    ScheduleStats stats;
    long long now = 0;
    size_t next = 0;
    size_t pending = 0;

    while (next < accesses.size() || pending > 0) {
        for (; pending < windowSize_ && next < accesses.size(); ++next) {
            const size_t b = static_cast<size_t>(accesses[next].bank);
            bankQueues_[b * windowSize_ + bankQueueSize_[b]++] =
                Pending{accesses[next].row, next};
            ++pending;
        }

        // FR-FCFS: the oldest pending row hit wins; with no hit in the
        // window, fall back to the globally oldest request (FCFS), the
        // oldest of the queue heads. Scanning each bank queue in
        // arrival order keeps same-row requests of one bank in arrival
        // order, so same-address dependencies are never reordered.
        size_t oldest = SIZE_MAX;
        size_t best = SIZE_MAX;
        for (size_t b = 0; b < banks_.size(); ++b) {
            const size_t size = bankQueueSize_[b];
            if (size == 0)
                continue;
            const Pending* queue = &bankQueues_[b * windowSize_];
            oldest = std::min(oldest, queue[0].index);
            const BankState& bank = banks_[b];
            if (options_.policy != SchedPolicy::FrFcfs || !bank.open)
                continue;
            for (size_t k = 0; k < size; ++k) {
                if (queue[k].row == bank.row) {
                    best = std::min(best, queue[k].index);
                    break;
                }
            }
        }
        const size_t chosen = best != SIZE_MAX ? best : oldest;
        if (chosen != oldest)
            ++stats.reordered;

        now = issue(accesses[chosen], now, stats);

        const size_t b = static_cast<size_t>(accesses[chosen].bank);
        Pending* queue = &bankQueues_[b * windowSize_];
        Pending* queue_end = queue + bankQueueSize_[b]--;
        Pending* slot = queue;
        while (slot->index != chosen)
            ++slot;
        std::copy(slot + 1, queue_end, slot);
        --pending;
    }

    // Drain: close every open bank and pad one row cycle so the stream
    // is legal as a repeating loop.
    for (BankState& bank : banks_) {
        if (!bank.open)
            continue;
        long long pre_at = std::max(now, earliestPrecharge(bank));
        emit(pre_at, Op::Pre);
        bank.open = false;
        bank.lastPrecharge = pre_at;
        now = pre_at + 1;
    }
    stream_.resize(stream_.size() + static_cast<size_t>(timing_.tRc),
                   Op::Nop);

    ScheduledStream result;
    result.pattern.loop = std::move(stream_);
    stats.cycles = cycleCount(result.pattern.loop.size());
    result.stats = stats;
    stream_.clear();
    return result;
}

long long
applyPowerDownPolicy(Pattern& pattern, int timeout_cycles,
                     int exit_latency_cycles)
{
    if (timeout_cycles < 0) {
        warn("power-down timeout is negative; clamping to 0");
        timeout_cycles = 0;
    }
    if (exit_latency_cycles < 0) {
        warn("power-down exit latency is negative; clamping to 0");
        exit_latency_cycles = 0;
    }
    const size_t n = pattern.loop.size();
    if (n == 0)
        return 0;
    const size_t overhead = static_cast<size_t>(timeout_cycles) +
                            static_cast<size_t>(exit_latency_cycles);

    long long converted = 0;
    auto gate_run = [&](size_t start, size_t run) {
        // Convert the middle of one idle run; start/length may wrap
        // past the end of the loop.
        if (run <= overhead)
            return;
        for (size_t k = static_cast<size_t>(timeout_cycles);
             k < run - static_cast<size_t>(exit_latency_cycles); ++k) {
            pattern.loop[(start + k) % n] = Op::Pdn;
            ++converted;
        }
    };

    // The pattern repeats, so idle runs are circular: a trailing NOP
    // run continues into a leading one. Anchor the scan at the first
    // command; the run that wraps past the loop boundary is collected
    // in one piece.
    size_t anchor = 0;
    while (anchor < n && pattern.loop[anchor] == Op::Nop)
        ++anchor;
    if (anchor == n) {
        // All-idle loop: one run covering the whole pattern.
        gate_run(0, n);
        return converted;
    }

    size_t run_start = 0;
    size_t run = 0;
    for (size_t j = 1; j <= n; ++j) {
        const size_t idx = (anchor + j) % n;
        if (pattern.loop[idx] == Op::Nop) {
            if (run == 0)
                run_start = idx;
            ++run;
        } else {
            gate_run(run_start, run);
            run = 0;
        }
    }
    gate_run(run_start, run);
    return converted;
}

} // namespace vdram
