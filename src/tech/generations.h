/**
 * @file
 * The commodity DRAM generation ladder used for the paper's trend analysis
 * (Figs. 11-13): one entry per technology node from 170 nm SDR (year 2000)
 * to 16 nm DDR5 (year 2018), carrying the interface standard, density,
 * voltages, per-pin data rate, prefetch and row timings assumed in
 * Section IV.C of the paper.
 *
 * Assumptions encoded here, following the paper:
 *  - per-pin data rate doubles at each interface transition;
 *  - the maximum core (column) frequency stays at 200 MHz, so higher pin
 *    rates are reached by doubling the prefetch;
 *  - voltages follow the ITRS roadmap (Fig. 11);
 *  - density is chosen to keep the die area between ~40 and ~60 mm^2.
 */
#ifndef VDRAM_TECH_GENERATIONS_H
#define VDRAM_TECH_GENERATIONS_H

#include <string>
#include <vector>

namespace vdram {

/** Commodity DRAM interface standards covered by the ladder. */
enum class Interface { SDR, DDR, DDR2, DDR3, DDR4, DDR5 };

/** Name of an interface standard ("DDR3"). */
std::string interfaceName(Interface iface);

/** One rung of the generation ladder. */
struct GenerationInfo {
    double featureSize;   ///< technology node in metres
    int year;             ///< approximate year of peak usage
    Interface interface;  ///< mainstream interface at that time
    double densityBits;   ///< device density in bits (e.g. 1 Gb = 2^30)
    double vdd;           ///< external supply voltage
    double vint;          ///< general logic voltage
    double vpp;           ///< boosted wordline voltage
    double vbl;           ///< bitline (cell) voltage
    double dataRatePerPin;///< bit/s per DQ pin at the high end
    int prefetch;         ///< interface prefetch (1n ... 32n)
    int banks;            ///< bank count
    double tRcSeconds;    ///< row cycle time
    double tRcdSeconds;   ///< activate-to-column delay
    double tRpSeconds;    ///< precharge time
    int burstLength;      ///< interface burst length

    /** Core (column) clock frequency: data rate / prefetch. */
    double coreFrequency() const { return dataRatePerPin / prefetch; }

    /** Human readable label such as "DDR3-1333 2Gb 55nm". */
    std::string label() const;
};

/** The full ladder, ordered from the oldest (170 nm) to the newest node. */
const std::vector<GenerationInfo>& generationLadder();

/** The ladder entry for the given node; panics when the node is unknown
 *  (internal use — user feature sizes go through generationNear()). */
const GenerationInfo& generationAt(double feature_size);

/** The closest ladder entry at or below the given node size. */
const GenerationInfo& generationNear(double feature_size);

} // namespace vdram

#endif // VDRAM_TECH_GENERATIONS_H
