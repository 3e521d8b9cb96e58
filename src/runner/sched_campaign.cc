#include "runner/sched_campaign.h"

#include <cmath>

#include "core/model.h"
#include "protocol/trace_stream.h"
#include "util/numerics.h"
#include "util/strings.h"

namespace vdram {

namespace {

/** Manifest/result order: workload-major, page policy innermost. */
struct CellAxes {
    WorkloadKind workload;
    MapScheme scheme;
    SchedPolicy policy;
    PagePolicy pagePolicy;
};

std::vector<CellAxes>
crossProduct(const SchedMatrixOptions& options)
{
    std::vector<CellAxes> axes;
    for (WorkloadKind workload : options.workloads)
        for (MapScheme scheme : options.schemes)
            for (SchedPolicy policy : options.policies)
                for (PagePolicy page : options.pagePolicies)
                    axes.push_back({workload, scheme, policy, page});
    return axes;
}

std::string
cellName(const CellAxes& axes)
{
    return workloadKindName(axes.workload) + "/" +
           mapSchemeName(axes.scheme) + "/" +
           schedPolicyName(axes.policy) + "/" +
           pagePolicyName(axes.pagePolicy);
}

/**
 * Evaluate one cell: generate, schedule, replay the scheduled pattern
 * through the linear StreamChecker, evaluate power. Scheduling errors
 * (E-TRACE-*) fail the task and are quarantined by the runner.
 */
Result<SchedMatrixCell>
evaluateCell(const DramPowerModel& model, const DramDescription& desc,
             const CellAxes& axes, const WorkloadParams& params,
             int window_size)
{
    SchedMatrixCell cell;
    cell.workload = axes.workload;
    cell.scheme = axes.scheme;
    cell.policy = axes.policy;
    cell.pagePolicy = axes.pagePolicy;

    AddressMap map(desc.spec, axes.scheme);
    std::vector<MemoryAccess> accesses =
        makeWorkload(desc.spec, map, axes.workload, params);

    SchedulerOptions sched;
    sched.pagePolicy = axes.pagePolicy;
    sched.policy = axes.policy;
    sched.windowSize = window_size;
    CommandScheduler scheduler(desc.spec, desc.timing, sched);
    Result<ScheduledStream> scheduled = scheduler.schedule(accesses);
    if (!scheduled.ok())
        return scheduled.error();
    ScheduledStream stream = std::move(scheduled).value();
    cell.stats = stream.stats;

    StreamChecker checker(desc.timing, desc.spec.banks(), 8);
    for (size_t i = 0; i < stream.pattern.loop.size(); ++i) {
        Op op = stream.pattern.loop[i];
        if (op != Op::Nop)
            checker.apply(static_cast<long long>(i), op);
    }
    cell.violations = checker.violationCount();

    PatternPower power = model.evaluate(stream.pattern);
    cell.power = power.power;
    cell.energyPerBit = power.energyPerBit;
    cell.ok = true;
    return cell;
}

} // namespace

std::vector<double>
encodeSchedCell(const SchedMatrixCell& cell)
{
    return {static_cast<double>(cell.stats.accesses),
            static_cast<double>(cell.stats.rowHits),
            static_cast<double>(cell.stats.rowMisses),
            static_cast<double>(cell.stats.rowConflicts),
            static_cast<double>(cell.stats.reordered),
            static_cast<double>(cell.stats.cycles),
            static_cast<double>(cell.violations), cell.power,
            cell.energyPerBit};
}

Result<SchedMatrixCell>
decodeSchedCell(const std::vector<double>& v)
{
    if (v.size() != 9) {
        return Error{strformat("scheduler cell payload has %zu fields "
                               "(expected 9)",
                               v.size()),
                     0, 0, "", "E-CKPT-PAYLOAD"};
    }
    SchedMatrixCell cell;
    cell.stats.accesses = static_cast<long long>(v[0]);
    cell.stats.rowHits = static_cast<long long>(v[1]);
    cell.stats.rowMisses = static_cast<long long>(v[2]);
    cell.stats.rowConflicts = static_cast<long long>(v[3]);
    cell.stats.reordered = static_cast<long long>(v[4]);
    cell.stats.cycles = static_cast<long long>(v[5]);
    cell.violations = static_cast<long long>(v[6]);
    cell.power = v[7];
    cell.energyPerBit = v[8];
    cell.ok = true;
    return cell;
}

Result<SchedMatrixCampaign>
runSchedMatrixCampaign(const DramDescription& desc,
                       const SchedMatrixOptions& options,
                       const RunnerOptions& runnerOptions,
                       DiagnosticEngine* diags)
{
    if (options.workloads.empty() || options.schemes.empty() ||
        options.policies.empty() || options.pagePolicies.empty()) {
        return Error{"scheduler matrix needs at least one workload, "
                     "mapping scheme, scheduling policy and page policy",
                     0, 0, "", "E-SCHED-MATRIX"};
    }
    Result<DramPowerModel> model = DramPowerModel::create(desc);
    if (!model.ok()) {
        Error error = model.error();
        error.message = "scheduler matrix device description is "
                        "invalid: " +
                        error.message;
        return error;
    }

    const std::vector<CellAxes> axes = crossProduct(options);
    std::vector<TaskSpec> manifest;
    manifest.reserve(axes.size());
    for (size_t i = 0; i < axes.size(); ++i) {
        manifest.push_back(TaskSpec{cellName(axes[i]),
                                    deriveStreamSeed(0x5C4ED, i)});
    }

    BatchRunner<std::vector<double>> runner(
        std::move(manifest),
        [&](const TaskContext& context) -> Result<std::vector<double>> {
            const CellAxes& cell_axes =
                axes[static_cast<size_t>(context.index)];
            Result<SchedMatrixCell> cell =
                evaluateCell(model.value(), desc, cell_axes,
                             options.params, options.windowSize);
            if (!cell.ok())
                return cell.error();
            return encodeSchedCell(cell.value());
        },
        runnerOptions);

    Result<RunReport> report = runner.run(diags);
    if (!report.ok())
        return report.error();

    SchedMatrixCampaign campaign;
    campaign.report = report.value();
    campaign.cells.reserve(axes.size());
    for (size_t i = 0; i < axes.size(); ++i) {
        SchedMatrixCell cell;
        cell.workload = axes[i].workload;
        cell.scheme = axes[i].scheme;
        cell.policy = axes[i].policy;
        cell.pagePolicy = axes[i].pagePolicy;
        const TaskResult& task = runner.results()[i];
        if (task.ok()) {
            Result<SchedMatrixCell> decoded =
                decodeSchedCell(runner.payloads()[i]);
            if (!decoded.ok())
                return decoded.error();
            cell.stats = decoded.value().stats;
            cell.violations = decoded.value().violations;
            cell.power = decoded.value().power;
            cell.energyPerBit = decoded.value().energyPerBit;
            cell.ok = true;
        }
        campaign.cells.push_back(cell);
    }
    return campaign;
}

} // namespace vdram
