#include "util/units.h"

#include <charconv>
#include <clocale>
#include <cmath>
#include <cstdlib>
#include <map>

#include "util/strings.h"

namespace vdram {

namespace {

/**
 * Parse a double at [begin, end) independent of LC_NUMERIC: strtod
 * honors the locale's decimal separator, so under a comma-decimal
 * locale (de_DE et al.) it stops at the '.' in "1.5ns" and every
 * description value silently loses its fraction. std::from_chars is
 * locale-independent by specification. Returns the end of the number,
 * or nullptr when no number was parsed.
 */
const char*
parseLocaleIndependentDouble(const char* begin, const char* end,
                             double& value)
{
    const char* p = begin;
    if (p != end && *p == '+')
        ++p; // from_chars rejects the leading '+' strtod accepted
#if defined(__cpp_lib_to_chars)
    auto [ptr, ec] = std::from_chars(p, end, value);
    if ((ec != std::errc{} && ec != std::errc::result_out_of_range) ||
        ptr == p)
        return nullptr;
    return ptr;
#else
    // Toolchains without floating-point from_chars fall back to strtod,
    // which is only correct under a '.'-decimal locale — refuse to
    // misparse rather than guess under anything else.
    const char* dp = std::localeconv()->decimal_point;
    if (dp == nullptr || dp[0] != '.' || dp[1] != '\0')
        return nullptr;
    char* num_end = nullptr;
    value = std::strtod(p, &num_end);
    if (num_end == p)
        return nullptr;
    return num_end;
#endif
}

struct UnitInfo {
    double scale;
    Dimension dim;
};

/**
 * Case-sensitive suffix table. Case matters for SI prefixes ("mV" vs "MV"),
 * so lookups try the exact form first and a handful of case-insensitive
 * aliases afterwards.
 */
const std::map<std::string, UnitInfo>&
unitTable()
{
    static const std::map<std::string, UnitInfo> table = {
        // length
        {"nm", {1e-9, Dimension::Length}},
        {"um", {1e-6, Dimension::Length}},
        {"mm", {1e-3, Dimension::Length}},
        {"cm", {1e-2, Dimension::Length}},
        {"m", {1.0, Dimension::Length}},
        // capacitance
        {"aF", {1e-18, Dimension::Capacitance}},
        {"fF", {1e-15, Dimension::Capacitance}},
        {"pF", {1e-12, Dimension::Capacitance}},
        {"nF", {1e-9, Dimension::Capacitance}},
        {"uF", {1e-6, Dimension::Capacitance}},
        {"F", {1.0, Dimension::Capacitance}},
        // specific capacitance
        {"aF/um", {1e-12, Dimension::CapacitancePerLength}},
        {"fF/um", {1e-9, Dimension::CapacitancePerLength}},
        {"fF/mm", {1e-12, Dimension::CapacitancePerLength}},
        {"pF/mm", {1e-9, Dimension::CapacitancePerLength}},
        {"pF/m", {1e-12, Dimension::CapacitancePerLength}},
        {"F/m", {1.0, Dimension::CapacitancePerLength}},
        // voltage
        {"uV", {1e-6, Dimension::Voltage}},
        {"mV", {1e-3, Dimension::Voltage}},
        {"V", {1.0, Dimension::Voltage}},
        // current
        {"uA", {1e-6, Dimension::Current}},
        {"mA", {1e-3, Dimension::Current}},
        {"A", {1.0, Dimension::Current}},
        // frequency
        {"Hz", {1.0, Dimension::Frequency}},
        {"kHz", {1e3, Dimension::Frequency}},
        {"MHz", {1e6, Dimension::Frequency}},
        {"GHz", {1e9, Dimension::Frequency}},
        // data rate
        {"bps", {1.0, Dimension::DataRate}},
        {"kbps", {1e3, Dimension::DataRate}},
        {"Mbps", {1e6, Dimension::DataRate}},
        {"Gbps", {1e9, Dimension::DataRate}},
        {"Mbit/s", {1e6, Dimension::DataRate}},
        {"Gbit/s", {1e9, Dimension::DataRate}},
        // time
        {"ps", {1e-12, Dimension::Time}},
        {"ns", {1e-9, Dimension::Time}},
        {"us", {1e-6, Dimension::Time}},
        {"ms", {1e-3, Dimension::Time}},
        {"s", {1.0, Dimension::Time}},
        // energy
        {"aJ", {1e-18, Dimension::Energy}},
        {"fJ", {1e-15, Dimension::Energy}},
        {"pJ", {1e-12, Dimension::Energy}},
        {"nJ", {1e-9, Dimension::Energy}},
        {"uJ", {1e-6, Dimension::Energy}},
        {"J", {1.0, Dimension::Energy}},
        // power
        {"uW", {1e-6, Dimension::Power}},
        {"mW", {1e-3, Dimension::Power}},
        {"W", {1.0, Dimension::Power}},
        // fraction
        {"%", {0.01, Dimension::Fraction}},
    };
    return table;
}

bool
lookupUnit(const std::string& suffix, UnitInfo& out)
{
    const auto& table = unitTable();
    auto it = table.find(suffix);
    if (it != table.end()) {
        out = it->second;
        return true;
    }
    // Tolerate common case variations that are unambiguous in a DRAM
    // description context (no mega-volts or femto-hertz here).
    for (const auto& [name, info] : table) {
        if (equalsIgnoreCase(name, suffix)) {
            out = info;
            return true;
        }
    }
    return false;
}

} // namespace

std::string_view
dimensionName(Dimension dim)
{
    switch (dim) {
    case Dimension::Dimensionless: return "dimensionless";
    case Dimension::Fraction: return "fraction";
    case Dimension::Length: return "length";
    case Dimension::Capacitance: return "capacitance";
    case Dimension::CapacitancePerLength: return "capacitance per length";
    case Dimension::Voltage: return "voltage";
    case Dimension::Current: return "current";
    case Dimension::Frequency: return "frequency";
    case Dimension::DataRate: return "data rate";
    case Dimension::Time: return "time";
    case Dimension::Energy: return "energy";
    case Dimension::Power: return "power";
    }
    return "unknown";
}

Result<Quantity>
parseQuantity(std::string_view text)
{
    std::string s = trim(text);
    if (s.empty())
        return Error{"empty quantity"};

    const char* begin = s.c_str();
    const char* s_end = begin + s.size();
    double value = 0;
    const char* end = parseLocaleIndependentDouble(begin, s_end, value);
    if (end == nullptr)
        return Error{"expected a number in '" + s + "'"};

    std::string suffix = trim(
        std::string_view(end, static_cast<size_t>(s_end - end)));
    if (suffix.empty())
        return Quantity{value, Dimension::Dimensionless};

    UnitInfo info;
    if (!lookupUnit(suffix, info))
        return Error{"unknown unit suffix '" + suffix + "' in '" + s + "'"};
    return Quantity{value * info.scale, info.dim};
}

Result<double>
parseQuantityAs(std::string_view text, Dimension expected, bool allow_bare)
{
    Result<Quantity> q = parseQuantity(text);
    if (!q.ok())
        return q.error();
    if (q.value().dim == expected)
        return q.value().value;
    if (q.value().dim == Dimension::Dimensionless &&
        (allow_bare || expected == Dimension::Fraction)) {
        // Bare numbers are accepted as fractions ("0.25") and, when the
        // caller opts in, for any dimension (legacy value tables).
        return q.value().value;
    }
    return Error{"expected " + std::string(dimensionName(expected)) +
                 ", got " + std::string(dimensionName(q.value().dim)) +
                 " in '" + std::string(trim(text)) + "'"};
}

Result<long long>
parseInteger(std::string_view text)
{
    std::string s = trim(text);
    if (s.empty())
        return Error{"empty integer"};
    const char* begin = s.c_str();
    char* end = nullptr;
    long long value = std::strtoll(begin, &end, 10);
    if (end == begin || *end != '\0')
        return Error{"expected an integer in '" + s + "'"};
    return value;
}

Result<double>
parseRatio(std::string_view text)
{
    std::string s = trim(text);
    auto parts = splitChar(s, ':');
    if (parts.size() != 2)
        return Error{"expected ratio of the form 'a:b' in '" + s + "'"};
    Result<long long> a = parseInteger(parts[0]);
    Result<long long> b = parseInteger(parts[1]);
    if (!a.ok())
        return a.error();
    if (!b.ok())
        return b.error();
    if (a.value() <= 0 || b.value() <= 0)
        return Error{"ratio terms must be positive in '" + s + "'"};
    return static_cast<double>(b.value()) / static_cast<double>(a.value());
}

std::string
formatEng(double value, std::string_view unit, int precision)
{
    static const struct {
        double scale;
        const char* prefix;
    } kPrefixes[] = {
        {1e12, "T"}, {1e9, "G"}, {1e6, "M"}, {1e3, "k"},
        {1.0, ""}, {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"},
        {1e-12, "p"}, {1e-15, "f"}, {1e-18, "a"},
    };
    double mag = std::fabs(value);
    if (mag == 0.0 || !std::isfinite(value)) {
        return strformat("%.*f %s", precision, value,
                         std::string(unit).c_str());
    }
    for (const auto& p : kPrefixes) {
        if (mag >= p.scale) {
            return strformat("%.*f %s%s", precision, value / p.scale,
                             p.prefix, std::string(unit).c_str());
        }
    }
    return strformat("%.3g %s", value, std::string(unit).c_str());
}

} // namespace vdram
