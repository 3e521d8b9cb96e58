/**
 * @file
 * Parsing and formatting of physical quantities with SI unit suffixes.
 *
 * The DRAM description language of the paper attaches unit suffixes to
 * values ("WLpitch=165nm", "datarate=1.6Gbps", "fraction=25%"). This module
 * converts such strings into SI base values tagged with a dimension, and
 * formats SI values back into engineering notation for reports.
 */
#ifndef VDRAM_UTIL_UNITS_H
#define VDRAM_UTIL_UNITS_H

#include <string>
#include <string_view>

#include "util/result.h"

namespace vdram {

/** Physical dimension of a parsed quantity. */
enum class Dimension {
    Dimensionless,        ///< plain number, counts, ratios
    Fraction,             ///< percentage, stored as 0..1
    Length,               ///< metres
    Capacitance,          ///< farads
    CapacitancePerLength, ///< farads per metre (specific wire capacitance)
    Voltage,              ///< volts
    Current,              ///< amperes
    Frequency,            ///< hertz
    DataRate,             ///< bits per second
    Time,                 ///< seconds
    Energy,               ///< joules
    Power,                ///< watts
};

/** Human-readable name of a dimension ("length", "capacitance", ...). */
std::string_view dimensionName(Dimension dim);

/** A value in SI base units together with its dimension. */
struct Quantity {
    double value = 0.0;
    Dimension dim = Dimension::Dimensionless;
};

/**
 * Parse a quantity string such as "165nm", "1.6Gbps", "25%", "19.2",
 * "0.08fF/um". Whitespace between number and suffix is permitted.
 *
 * @return the quantity in SI base units, or an error describing the
 *         malformed token.
 */
Result<Quantity> parseQuantity(std::string_view text);

/**
 * Parse a quantity and require a specific dimension. Dimensionless input
 * is accepted for any expected dimension only when @p allow_bare is true
 * (used for legacy inputs that omit units).
 */
Result<double> parseQuantityAs(std::string_view text, Dimension expected,
                               bool allow_bare = false);

/** Parse a plain integer ("512", "16"). */
Result<long long> parseInteger(std::string_view text);

/** Parse a ratio of the form "1:8"; returns the denominator over numerator
 *  factor (8.0 for "1:8"). */
Result<double> parseRatio(std::string_view text);

/**
 * Format an SI value in engineering notation with the given base-unit
 * symbol, e.g. formatEng(85e-15, "F") == "85.00 fF".
 */
std::string formatEng(double value, std::string_view unit, int precision = 2);

} // namespace vdram

#endif // VDRAM_UTIL_UNITS_H
