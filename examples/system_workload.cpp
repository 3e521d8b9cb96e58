/**
 * @file
 * System-level walkthrough: the full trace -> controller -> power
 * pipeline. Generates workloads with different row locality, schedules
 * them under open- and closed-page policies, evaluates power, and
 * prints the trace text. This is the co-design loop the paper's
 * Section V calls for, in ~70 lines of user code.
 */
#include <cstdio>

#include "core/model.h"
#include "core/report.h"
#include "presets/presets.h"
#include "protocol/controller.h"
#include "protocol/trace.h"
#include "util/strings.h"
#include "util/table.h"

using namespace vdram;

int
main()
{
    DramDescription desc = preset2GbDdr3_55();
    DramPowerModel model(desc);
    std::printf("device: %s\n", renderSummary(model).c_str());

    // --- workloads through the controller -------------------------------
    WorkloadParams params;
    params.count = 2000;
    params.writeFraction = 0.3;

    Table table({"workload", "policy", "hit rate", "power", "pJ/bit",
                 "bus util"});
    struct Case {
        const char* name;
        std::vector<MemoryAccess> accesses;
    };
    std::vector<Case> cases = {
        {"random", makeRandomWorkload(desc.spec, params)},
        {"70% locality", makeLocalityWorkload(desc.spec, params, 0.7)},
        {"streaming", makeStreamingWorkload(desc.spec, params)},
    };
    for (const Case& c : cases) {
        for (PagePolicy policy :
             {PagePolicy::OpenPage, PagePolicy::ClosedPage}) {
            CommandScheduler scheduler(desc.spec, desc.timing, policy);
            ScheduledStream stream =
                scheduler.schedule(c.accesses).value();
            PatternPower power = model.evaluate(stream.pattern);
            table.addRow({c.name,
                          policy == PagePolicy::OpenPage ? "open"
                                                         : "closed",
                          strformat("%.0f%%",
                                    stream.stats.rowHitRate() * 100),
                          strformat("%.0f mW", power.power * 1e3),
                          strformat("%.1f",
                                    power.energyPerBit * 1e12),
                          strformat("%.0f%%",
                                    power.busUtilization * 100)});
        }
    }
    std::printf("%s\n", table.render().c_str());

    // --- traces are plain text ------------------------------------------
    std::string trace_text = writeTrace(
        {cases[0].accesses.begin(), cases[0].accesses.begin() + 3});
    std::printf("traces serialize as text (first lines):\n%s",
                trace_text.c_str());
    return 0;
}
