/**
 * @file
 * Reference twin of writeCommandTrace(): the original renderer, one
 * strformat() and one opName() string per emitted line. The fast
 * renderer in src/protocol/command_trace.cc must produce exactly these
 * bytes (test_command_trace.cc compares them over generated patterns).
 */
#ifndef VDRAM_TESTS_COMMAND_TRACE_REFERENCE_H
#define VDRAM_TESTS_COMMAND_TRACE_REFERENCE_H

#include <string>

#include "core/spec.h"
#include "util/strings.h"

namespace vdram {

inline std::string
writeCommandTraceReference(const Pattern& pattern)
{
    std::string out = "# vdram command trace: <cycle> <command>\n";
    for (size_t i = 0; i < pattern.loop.size(); ++i) {
        Op op = pattern.loop[i];
        if (op == Op::Nop && i + 1 != pattern.loop.size())
            continue;
        out += strformat("%zu %s\n", i, opName(op).c_str());
    }
    return out;
}

} // namespace vdram

#endif // VDRAM_TESTS_COMMAND_TRACE_REFERENCE_H
