/**
 * @file
 * Parallel windowed trace evaluation.
 *
 * A command-trace file is embarrassingly parallel once the per-op
 * counting is separated from the power math (protocol/trace_stream.h):
 * the file is split into byte slices aligned to line boundaries, every
 * slice is counted concurrently through the BatchRunner worker pool
 * (fault isolation, retries, graceful stop), and the integer counts are
 * merged deterministically in manifest order. Integer merging is exact,
 * so the parallel result is bit-for-bit identical to the serial
 * streaming result — which in turn matches the dense Pattern path.
 *
 * The linear protocol check is inherently sequential (bank-FSM state
 * threads through the whole trace), so checking is only offered by the
 * serial path; callers wanting --check use evaluateTraceStreamFile().
 */
#ifndef VDRAM_RUNNER_TRACE_CAMPAIGN_H
#define VDRAM_RUNNER_TRACE_CAMPAIGN_H

#include <atomic>
#include <string>

#include "protocol/trace_stream.h"
#include "runner/runner.h"
#include "util/diag.h"
#include "util/result.h"

namespace vdram {

/** Parallel trace evaluation configuration. */
struct TraceCampaignOptions {
    /** Timeline window length in cycles; 0 disables the timeline. */
    long long windowCycles = 0;
    /** Worker threads; 0 selects the hardware concurrency. */
    int jobs = 0;
    /** Reader chunk size per slice task (test hook). */
    size_t chunkBytes = 256 * 1024;
    /**
     * Target slice length in bytes; 0 derives one from the file size
     * and worker count. Slices are aligned to line boundaries, so the
     * actual lengths vary. Test hook for exercising many boundaries.
     */
    long long sliceBytes = 0;
    /** Graceful-stop flag (forwarded to the runner). */
    const std::atomic<bool>* stopFlag = nullptr;
};

/** Result of a parallel trace evaluation. */
struct TraceCampaignResult {
    /** Merged evaluation, identical to the serial streaming result. */
    TraceStreamResult trace;
    /** Runner report of the slice campaign. */
    RunReport report;
    /** Number of byte slices evaluated. */
    int slices = 0;
};

/**
 * Evaluate a command-trace file by counting line-aligned byte slices
 * concurrently and merging the counts. Any slice failure (parse error,
 * non-monotonic cycles) fails the evaluation with that slice's
 * diagnostic; an operator stop reports an interrupted error.
 */
Result<TraceCampaignResult> evaluateTraceFileParallel(
    const std::string& path, const TraceCampaignOptions& options,
    DiagnosticEngine* diags = nullptr);

} // namespace vdram

#endif // VDRAM_RUNNER_TRACE_CAMPAIGN_H
