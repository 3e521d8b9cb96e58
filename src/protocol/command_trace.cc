#include "protocol/command_trace.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>

#include "util/strings.h"
#include "util/units.h"

namespace vdram {

namespace {

Result<Op>
opOf(const std::string& token, int line)
{
    std::string t = toLower(token);
    if (t == "act" || t == "activate") return Op::Act;
    if (t == "pre" || t == "precharge") return Op::Pre;
    if (t == "rd" || t == "read") return Op::Rd;
    if (t == "wr" || t == "wrt" || t == "write") return Op::Wr;
    if (t == "ref" || t == "refresh") return Op::Ref;
    if (t == "nop") return Op::Nop;
    if (t == "pdn" || t == "powerdown") return Op::Pdn;
    if (t == "srf" || t == "selfrefresh") return Op::Srf;
    return Error{"unknown command '" + token + "'", line};
}

} // namespace

Result<Pattern>
parseCommandTrace(const std::string& text, long long maxCycles)
{
    Pattern pattern;
    std::istringstream stream(text);
    std::string raw;
    int line_no = 0;
    long long last_cycle = -1;
    while (std::getline(stream, raw)) {
        ++line_no;
        size_t hash = raw.find('#');
        if (hash != std::string::npos)
            raw.resize(hash);
        std::vector<std::string> tokens = splitWhitespace(raw);
        if (tokens.empty())
            continue;
        if (tokens.size() != 2)
            return Error{"expected '<cycle> <command>'", line_no};
        Result<long long> cycle = parseInteger(tokens[0]);
        if (!cycle.ok())
            return Error{cycle.error().message, line_no};
        if (cycle.value() < 0)
            return Error{"cycles must be non-negative", line_no};
        if (cycle.value() <= last_cycle) {
            return Error{strformat("cycle %lld not after the previous "
                                   "command at %lld",
                                   cycle.value(), last_cycle),
                         line_no};
        }
        Result<Op> op = opOf(tokens[1], line_no);
        if (!op.ok())
            return op.error();
        // The dense expansion allocates one Op per cycle up to the last
        // record — a single large cycle number would allocate gigabytes
        // before any evaluation happens.
        if (maxCycles > 0 && cycle.value() >= maxCycles) {
            return Error{strformat("trace expands to %lld cycles, over "
                                   "the dense replay cap of %lld; use "
                                   "the streaming path (vdram trace) "
                                   "for long traces",
                                   cycle.value() + 1, maxCycles),
                         line_no, 0, "", "E-TRACE-TOO-LONG"};
        }
        pattern.loop.resize(static_cast<size_t>(cycle.value()), Op::Nop);
        pattern.loop.push_back(op.value());
        last_cycle = cycle.value();
    }
    if (pattern.loop.empty())
        return Error{"empty command trace"};
    return pattern;
}

Result<Pattern>
loadCommandTraceFile(const std::string& path, long long maxCycles)
{
    std::ifstream file(path);
    if (!file)
        return Error{"cannot open command trace '" + path + "'"};
    std::ostringstream buffer;
    buffer << file.rdbuf();
    return parseCommandTrace(buffer.str(), maxCycles);
}

std::string
writeCommandTrace(const Pattern& pattern)
{
    // One line per command plus the trailing-NOP marker that keeps the
    // loop length. The buffer is sized once for the widest possible
    // lines (every cycle number as wide as the last one) and trimmed.
    static constexpr std::string_view kHeader =
        "# vdram command trace: <cycle> <command>\n";
    // Mnemonic plus newline, indexed by Op; the same words as opName().
    struct Mnemonic {
        char text[4];
        unsigned char size;
    };
    static constexpr Mnemonic kMnemonics[kOpCount] = {
        {{'a', 'c', 't', '\n'}, 4}, {{'p', 'r', 'e', '\n'}, 4},
        {{'r', 'd', '\n', 0}, 3},    {{'w', 'r', 't', '\n'}, 4},
        {{'n', 'o', 'p', '\n'}, 4}, {{'r', 'e', 'f', '\n'}, 4},
        {{'p', 'd', 'n', '\n'}, 4}, {{'s', 'r', 'f', '\n'}, 4},
    };

    const std::vector<Op>& loop = pattern.loop;
    const size_t n = loop.size();
    const bool trailing_nop = n > 0 && loop.back() == Op::Nop;
    const size_t lines =
        n - static_cast<size_t>(std::count(loop.begin(), loop.end(),
                                           Op::Nop)) +
        (trailing_nop ? 1 : 0);
    char widest[24];
    const size_t digits = n > 0
        ? static_cast<size_t>(
              std::to_chars(widest, widest + sizeof widest, n - 1).ptr -
              widest)
        : 0;

    std::string out;
    out.resize(kHeader.size() + lines * (digits + 1 + 4));
    char* p = out.data();
    std::memcpy(p, kHeader.data(), kHeader.size());
    p += kHeader.size();
    char* const end = out.data() + out.size();
    auto put = [&](size_t cycle, Op op) {
        p = std::to_chars(p, end, cycle).ptr;
        *p++ = ' ';
        const Mnemonic& m = kMnemonics[static_cast<size_t>(op)];
        std::memcpy(p, m.text, 4);
        p += m.size;
    };
    for (size_t i = 0; i < n; ++i) {
        if (loop[i] != Op::Nop)
            put(i, loop[i]);
    }
    if (trailing_nop)
        put(n - 1, Op::Nop);
    out.resize(static_cast<size_t>(p - out.data()));
    return out;
}

} // namespace vdram
