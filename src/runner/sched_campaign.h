/**
 * @file
 * Checkpointed workload × policy × mapping scheduler campaigns.
 *
 * One `vdram sched --matrix` run evaluates every combination of
 * synthetic workload, scheduling policy, page policy and address-map
 * scheme on one device: each cell generates the workload, schedules it,
 * replays the emitted command stream through the linear StreamChecker
 * (the cell records its violation count — a scheduler bug shows up as
 * a non-zero cell, never as a crashed campaign) and evaluates the
 * pattern's power. Cells run through the BatchRunner, so matrices
 * inherit fault isolation, --jobs parallelism, JSONL checkpointing
 * with --resume and SIGINT draining.
 */
#ifndef VDRAM_RUNNER_SCHED_CAMPAIGN_H
#define VDRAM_RUNNER_SCHED_CAMPAIGN_H

#include <string>
#include <vector>

#include "core/builder.h"
#include "protocol/address_map.h"
#include "protocol/controller.h"
#include "protocol/workload.h"
#include "runner/runner.h"
#include "util/diag.h"
#include "util/result.h"

namespace vdram {

/** The axes of one scheduler matrix. */
struct SchedMatrixOptions {
    std::vector<WorkloadKind> workloads;
    std::vector<MapScheme> schemes;
    std::vector<SchedPolicy> policies;
    std::vector<PagePolicy> pagePolicies;
    /** Shared generator knobs (count, seed, fractions). */
    WorkloadParams params;
    /** FR-FCFS reorder window. */
    int windowSize = 16;
};

/** One evaluated cell of the matrix. */
struct SchedMatrixCell {
    WorkloadKind workload = WorkloadKind::Random;
    MapScheme scheme = MapScheme::RowBankCol;
    SchedPolicy policy = SchedPolicy::InOrder;
    PagePolicy pagePolicy = PagePolicy::OpenPage;
    ScheduleStats stats;
    /** StreamChecker violations over the scheduled stream (must be 0
     *  for a correct scheduler). */
    long long violations = 0;
    double power = 0;
    double energyPerBit = 0;
    /** False when the cell's task failed (error recorded by runner). */
    bool ok = false;
};

/** Campaign result: cells in manifest order plus the runner report. */
struct SchedMatrixCampaign {
    std::vector<SchedMatrixCell> cells;
    RunReport report;
};

/** A cell as the runner payload: its nine numbers, in the order the
 *  checkpoint text has carried them (exposed for tests). */
std::vector<double> encodeSchedCell(const SchedMatrixCell& cell);
/** Inverse of encodeSchedCell(); any other width is E-CKPT-PAYLOAD. */
Result<SchedMatrixCell> decodeSchedCell(const std::vector<double>& values);

/**
 * Run the matrix. An empty axis is an E-SCHED-MATRIX error;
 * infrastructure failures (unreadable checkpoint) are errors; cell
 * failures are contained by the runner and surface as !cell.ok plus
 * diagnostics on @p diags.
 */
Result<SchedMatrixCampaign> runSchedMatrixCampaign(
    const DramDescription& desc, const SchedMatrixOptions& options,
    const RunnerOptions& runnerOptions, DiagnosticEngine* diags);

} // namespace vdram

#endif // VDRAM_RUNNER_SCHED_CAMPAIGN_H
