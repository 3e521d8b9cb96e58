/**
 * @file
 * Command-trace replay: evaluate a raw timed command stream, the format
 * controller simulators (gem5, DRAMSim, DRAMPower-style frontends)
 * naturally emit:
 *
 *     <cycle> <command>
 *
 * with commands `ACT PRE RD WR REF NOP PDN SRF` (case-insensitive),
 * cycles non-decreasing, '#' comments. Gaps between commands become
 * NOPs; the result is a Pattern the power model evaluates directly.
 */
#ifndef VDRAM_PROTOCOL_COMMAND_TRACE_H
#define VDRAM_PROTOCOL_COMMAND_TRACE_H

#include <string>

#include "core/spec.h"
#include "util/result.h"

namespace vdram {

/**
 * Default cap on the dense expansion, in cycles. Replay materializes
 * one Op per cycle, so the allocation is bounded by this cap (64 Mi
 * cycles = 64 MiB of one-byte ops); longer traces belong on the
 * streaming path (`vdram trace`, protocol/trace_stream.h), which never
 * materializes the loop.
 */
constexpr long long kDefaultTraceCycleCap = 64LL * 1024 * 1024;

/** Parse a timed command trace into a pattern. Errors carry line
 *  numbers. The pattern length is the last cycle + 1 (plus any
 *  trailing NOPs given as a final "<cycle> NOP" marker). Traces whose
 *  dense expansion exceeds @p maxCycles are rejected with
 *  E-TRACE-TOO-LONG. */
Result<Pattern> parseCommandTrace(
    const std::string& text, long long maxCycles = kDefaultTraceCycleCap);

/** Load a command trace from a file. */
Result<Pattern> loadCommandTraceFile(
    const std::string& path, long long maxCycles = kDefaultTraceCycleCap);

/** Emit a pattern as a command trace (NOP gaps compressed; a trailing
 *  NOP marker preserves the loop length). */
std::string writeCommandTrace(const Pattern& pattern);

} // namespace vdram

#endif // VDRAM_PROTOCOL_COMMAND_TRACE_H
