#include "protocol/trace.h"

#include <fstream>
#include <sstream>

#include "util/strings.h"
#include "util/units.h"

namespace vdram {

Result<std::vector<MemoryAccess>>
parseTrace(const std::string& text)
{
    std::vector<MemoryAccess> accesses;
    std::istringstream stream(text);
    std::string raw;
    int line_no = 0;
    while (std::getline(stream, raw)) {
        ++line_no;
        size_t hash = raw.find('#');
        if (hash != std::string::npos)
            raw.resize(hash);
        std::vector<std::string> tokens = splitWhitespace(raw);
        if (tokens.empty())
            continue;
        if (tokens.size() != 4) {
            return Error{"expected 'R|W bank row column'", line_no};
        }
        MemoryAccess access;
        std::string kind = toLower(tokens[0]);
        if (kind == "r" || kind == "rd" || kind == "read") {
            access.write = false;
        } else if (kind == "w" || kind == "wr" || kind == "write") {
            access.write = true;
        } else {
            return Error{"access type must be R or W, got '" + tokens[0] +
                             "'",
                         line_no};
        }
        Result<long long> bank = parseInteger(tokens[1]);
        Result<long long> row = parseInteger(tokens[2]);
        Result<long long> column = parseInteger(tokens[3]);
        if (!bank.ok())
            return Error{bank.error().message, line_no};
        if (!row.ok())
            return Error{row.error().message, line_no};
        if (!column.ok())
            return Error{column.error().message, line_no};
        if (bank.value() < 0 || row.value() < 0 || column.value() < 0)
            return Error{"addresses must be non-negative", line_no};
        access.bank = static_cast<int>(bank.value());
        access.row = row.value();
        access.column = column.value();
        accesses.push_back(access);
    }
    return accesses;
}

Result<std::vector<MemoryAccess>>
loadTraceFile(const std::string& path)
{
    std::ifstream file(path);
    if (!file)
        return Error{"cannot open trace file '" + path + "'", 0, 0, path,
                     "E-IO-OPEN"};
    std::ostringstream buffer;
    buffer << file.rdbuf();
    return parseTrace(buffer.str());
}

std::string
writeTrace(const std::vector<MemoryAccess>& accesses)
{
    std::string out = "# vdram access trace: R|W bank row column\n";
    for (const MemoryAccess& a : accesses) {
        out += strformat("%c %d %lld %lld\n", a.write ? 'W' : 'R', a.bank,
                         a.row, a.column);
    }
    return out;
}

} // namespace vdram
