#include "runner/trace_campaign.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include <fstream>

#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/simd.h"
#include "util/strings.h"
#include "util/trace.h"

namespace vdram {

namespace {

/**
 * First line-start at or after @p offset. Boundaries are computed the
 * same way for a slice's end and the next slice's start, so the slices
 * partition the file exactly: seek to offset - 1 and return the
 * position just past the next '\n' (offset 0 is already a line start;
 * starting at offset - 1 keeps a line that begins exactly at the
 * requested offset, preceded by a newline, in this slice).
 */
Result<long long>
lineBoundary(std::ifstream& in, long long offset, long long file_size)
{
    if (offset <= 0)
        return static_cast<long long>(0);
    if (offset >= file_size)
        return file_size;
    in.clear();
    in.seekg(offset - 1);
    if (!in)
        return Error{"cannot seek in command trace", 0, 0, "",
                     "E-IO-READ"};
    char buffer[4096];
    long long pos = offset - 1;
    while (in.good()) {
        in.read(buffer, sizeof buffer);
        const std::streamsize got = in.gcount();
        if (got <= 0)
            break;
        if (const void* nl =
                std::memchr(buffer, '\n', static_cast<size_t>(got))) {
            return pos + (static_cast<const char*>(nl) - buffer) + 1;
        }
        pos += got;
    }
    return file_size; // no further newline: the slice owns the tail
}

/** Count the records of one [begin, end) byte range of the file. */
Result<TraceSliceCounts>
countSlice(const std::string& path, long long begin, long long end,
           long long windowCycles, size_t chunkBytes,
           const std::function<bool()>& cancelled)
{
    std::ifstream file(path, std::ios::binary);
    if (!file) {
        return Error{"cannot open command trace '" + path + "'", 0, 0,
                     path, "E-IO-OPEN"};
    }
    TraceCounter counter(windowCycles);
    if (begin >= end)
        return counter.takeCounts();
    file.seekg(begin);

    const size_t chunk_bytes = chunkBytes > 0 ? chunkBytes : 1;
    std::vector<char> buffer(chunk_bytes);
    std::vector<std::uint32_t> newlines(chunk_bytes); // worst case
    std::string carry;
    long long remaining = end - begin;
    Status failure = Status::okStatus();

    auto process_line = [&](const char* b, const char* e) -> Status {
        long long cycle = 0;
        Op op = Op::Nop;
        Result<bool> record = parseTraceLineDispatch(b, e, cycle, op);
        if (!record.ok())
            return record.error();
        if (!record.value())
            return Status::okStatus();
        return counter.feed(cycle, op);
    };

    const bool fast = simdEnabled();
    while (failure.ok() && remaining > 0 && file.good()) {
        if (cancelled && cancelled())
            return Error{"trace slice cancelled", 0, 0, "", "E-RUNNER-STOP"};
        // Failpoint `trace.slice`: PartialWrite simulates a short read
        // (the truncation check after the loop must report it).
        FailpointHit hit = failpointHit("trace.slice");
        if (hit.action == FailpointAction::Error) {
            failure = Error{"injected read failure at failpoint "
                            "'trace.slice'",
                            0, 0, path, "E-IO-READ"};
            break;
        }
        if (hit.action == FailpointAction::Crash) {
            throw std::runtime_error(
                "injected crash at failpoint 'trace.slice'");
        }
        if (hit.action == FailpointAction::Abort)
            std::abort();
        if (hit.action == FailpointAction::PartialWrite)
            break; // injected short read
        const std::streamsize want = static_cast<std::streamsize>(
            std::min<long long>(remaining,
                                static_cast<long long>(buffer.size())));
        file.read(buffer.data(), want);
        const std::streamsize got = file.gcount();
        if (got <= 0)
            break;
        remaining -= got;
        const char* data = buffer.data();
        const size_t len = static_cast<size_t>(got);
        // Batched newline scan, same shape as evaluateTraceStream():
        // all line breaks of the chunk first, then the parse walk.
        const size_t n_newlines = findNewlines(data, len,
                                               newlines.data());
        size_t pos = 0;
        size_t next = 0;
        if (!carry.empty()) {
            if (n_newlines == 0) {
                carry.append(data, len);
                continue;
            }
            const size_t n = newlines[0];
            carry.append(data, n);
            failure =
                process_line(carry.data(), carry.data() + carry.size());
            carry.clear();
            pos = n + 1;
            next = 1;
        }
        while (failure.ok() && next < n_newlines) {
            const size_t nl = newlines[next++];
            const char* b = data + pos;
            const char* e = data + nl;
            pos = nl + 1;
            // Hot path: the fused parser feeds the counter directly;
            // rejected lines go through process_line unchanged.
            if (fast) {
                long long cycle = 0;
                Op op = Op::Nop;
                const int kind = parseTraceLineFast(b, e, cycle, op);
                if (kind >= 0) {
                    if (kind > 0 &&
                        !counter.tryFeed(cycle, op)) [[unlikely]] {
                        failure = counter.feed(cycle, op);
                        break;
                    }
                    continue;
                }
            }
            failure = process_line(b, e);
        }
        if (failure.ok() && pos < len)
            carry.assign(data + pos, len - pos);
    }
    // The slice bounds came from the file's own size, so exhausting the
    // stream with bytes still owed means a mid-read I/O failure or a
    // concurrently truncated file. Reporting a partial count as a
    // complete slice would silently corrupt the campaign aggregate.
    if (failure.ok() && remaining > 0) {
        failure = Error{
            "short read of command trace '" + path + "' (" +
                std::to_string(end - begin - remaining) + " of " +
                std::to_string(end - begin) + " bytes of slice)",
            0, 0, path, "E-IO-READ"};
    }
    if (failure.ok() && !carry.empty())
        failure = process_line(carry.data(), carry.data() + carry.size());
    if (!failure.ok())
        return failure.error();
    return counter.takeCounts();
}

} // namespace

Result<TraceCampaignResult>
evaluateTraceFileParallel(const std::string& path,
                          const TraceCampaignOptions& options,
                          DiagnosticEngine* diags)
{
    TraceSpan span("trace.campaign.evaluate", "trace");

    std::ifstream probe(path, std::ios::binary | std::ios::ate);
    if (!probe) {
        return Error{"cannot open command trace '" + path + "'", 0, 0,
                     path, "E-IO-OPEN"};
    }
    const long long file_size = static_cast<long long>(probe.tellg());

    const int jobs = effectiveJobCount(options.jobs);
    long long slice_bytes = options.sliceBytes;
    if (slice_bytes <= 0) {
        // Aim for a few slices per worker so a straggling slice does
        // not serialize the tail of the run, with a floor that keeps
        // tiny files in one slice.
        slice_bytes = std::max<long long>(
            64 * 1024, file_size / (static_cast<long long>(jobs) * 4));
    }
    const long long slice_count = std::max<long long>(
        1, (file_size + slice_bytes - 1) / slice_bytes);

    // Line-aligned slice boundaries, computed once up front so every
    // task reads an exact partition of the file.
    std::vector<long long> bounds(static_cast<size_t>(slice_count) + 1);
    bounds.front() = 0;
    bounds.back() = file_size;
    for (long long i = 1; i < slice_count; ++i) {
        Result<long long> boundary =
            lineBoundary(probe, i * slice_bytes, file_size);
        if (!boundary.ok())
            return boundary.error();
        bounds[static_cast<size_t>(i)] = boundary.value();
    }

    std::vector<TaskSpec> manifest;
    manifest.reserve(static_cast<size_t>(slice_count));
    for (long long i = 0; i < slice_count; ++i) {
        manifest.push_back(TaskSpec{
            strformat("slice-%lld", i), static_cast<std::uint64_t>(i)});
    }

    RunnerOptions runner_options;
    runner_options.jobs = options.jobs;
    runner_options.maxRetries = 0; // parse errors are never transient
    runner_options.stopFlag = options.stopFlag;

    const long long window_cycles = options.windowCycles;
    const size_t chunk_bytes = options.chunkBytes;
    TaskFn<TraceSliceCounts> task = [&path, &bounds, window_cycles,
                                     chunk_bytes](const TaskContext& context)
        -> Result<TraceSliceCounts> {
        const size_t i = static_cast<size_t>(context.index);
        Result<TraceSliceCounts> counts =
            countSlice(path, bounds[i], bounds[i + 1], window_cycles,
                       chunk_bytes, context.cancelled);
        if (!counts.ok()) {
            Error error = counts.error();
            if (error.file.empty())
                error.file = path;
            return error;
        }
        return counts;
    };

    BatchRunner<TraceSliceCounts> runner(std::move(manifest), task,
                                         runner_options);
    Result<RunReport> report = runner.run(diags);
    if (!report.ok())
        return report.error();
    if (report.value().interrupted || report.value().notRun > 0) {
        return Error{"trace evaluation interrupted before completion",
                     0, 0, path, "E-RUNNER-STOP"};
    }

    for (const TaskResult& result : runner.results()) {
        if (!result.ok()) {
            return Error{strformat("trace %s: %s",
                                   result.spec.name.c_str(),
                                   result.error.c_str()),
                         0, 0, path, "E-TRACE-PARSE"};
        }
    }

    Result<TraceStreamResult> merged =
        mergeTraceSlices(runner.payloads(), options.windowCycles);
    if (!merged.ok()) {
        Error error = merged.error();
        if (error.file.empty())
            error.file = path;
        return error;
    }

    if (metricsEnabled()) {
        globalMetrics().counter("trace.campaign.evaluations").add();
        globalMetrics()
            .counter("trace.campaign.slices")
            .add(static_cast<std::uint64_t>(slice_count));
    }

    TraceCampaignResult result;
    result.trace = std::move(merged).value();
    result.report = report.value();
    result.slices = static_cast<int>(slice_count);
    return result;
}

} // namespace vdram
