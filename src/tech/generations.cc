#include "tech/generations.h"

#include <cmath>

#include "util/logging.h"
#include "util/strings.h"

namespace vdram {

std::string
interfaceName(Interface iface)
{
    switch (iface) {
    case Interface::SDR: return "SDR";
    case Interface::DDR: return "DDR";
    case Interface::DDR2: return "DDR2";
    case Interface::DDR3: return "DDR3";
    case Interface::DDR4: return "DDR4";
    case Interface::DDR5: return "DDR5";
    }
    return "?";
}

std::string
GenerationInfo::label() const
{
    double mbps = dataRatePerPin / 1e6;
    double gbit = densityBits / (1024.0 * 1024.0 * 1024.0);
    std::string density = gbit >= 1.0
        ? strformat("%.0fGb", gbit)
        : strformat("%.0fMb", densityBits / (1024.0 * 1024.0));
    return strformat("%s-%.0f %s %.0fnm", interfaceName(interface).c_str(),
                     mbps, density.c_str(), featureSize * 1e9);
}

namespace {

constexpr double kMb = 1024.0 * 1024.0;
constexpr double kGb = 1024.0 * kMb;

GenerationInfo
gen(double node_nm, int year, Interface iface, double density, double vdd,
    double vint, double vpp, double vbl, double rate_mbps, int prefetch,
    int banks, double trc_ns, double trcd_ns, double trp_ns, int burst)
{
    GenerationInfo g;
    g.featureSize = node_nm * 1e-9;
    g.year = year;
    g.interface = iface;
    g.densityBits = density;
    g.vdd = vdd;
    g.vint = vint;
    g.vpp = vpp;
    g.vbl = vbl;
    g.dataRatePerPin = rate_mbps * 1e6;
    g.prefetch = prefetch;
    g.banks = banks;
    g.tRcSeconds = trc_ns * 1e-9;
    g.tRcdSeconds = trcd_ns * 1e-9;
    g.tRpSeconds = trp_ns * 1e-9;
    g.burstLength = burst;
    return g;
}

} // namespace

const std::vector<GenerationInfo>&
generationLadder()
{
    using I = Interface;
    // Voltages follow the paper's Fig. 11 (ITRS); data rates and row
    // timings follow Fig. 12; density keeps the die in the 40-60 mm^2
    // band of Fig. 13. DDR4/DDR5 entries are the paper's forward
    // projection (data rate doubles per interface, core frequency capped
    // at 200 MHz, prefetch doubles).
    static const std::vector<GenerationInfo> ladder = {
        gen(170, 2000, I::SDR, 128 * kMb, 3.3, 2.9, 4.3, 2.2, 133, 1, 4,
            65, 20, 20, 1),
        gen(140, 2002, I::DDR, 256 * kMb, 2.5, 2.3, 3.8, 1.8, 333, 2, 4,
            60, 18, 18, 2),
        gen(110, 2004, I::DDR, 512 * kMb, 2.5, 2.2, 3.6, 1.6, 400, 2, 4,
            58, 17, 17, 2),
        gen(90, 2005, I::DDR2, 512 * kMb, 1.8, 1.7, 3.2, 1.4, 667, 4, 8,
            55, 15, 15, 4),
        gen(75, 2007, I::DDR2, 1 * kGb, 1.8, 1.65, 3.0, 1.3, 800, 4, 8,
            54, 15, 15, 4),
        gen(65, 2008, I::DDR3, 1 * kGb, 1.5, 1.40, 2.9, 1.25, 1066, 8, 8,
            52, 14, 14, 8),
        gen(55, 2010, I::DDR3, 2 * kGb, 1.5, 1.35, 2.8, 1.20, 1333, 8, 8,
            50, 14, 14, 8),
        gen(44, 2011, I::DDR3, 2 * kGb, 1.35, 1.25, 2.7, 1.10, 1600, 8, 8,
            49, 13, 13, 8),
        gen(36, 2013, I::DDR4, 4 * kGb, 1.2, 1.15, 2.5, 1.05, 2133, 16, 16,
            48, 13, 13, 16),
        gen(31, 2014, I::DDR4, 4 * kGb, 1.2, 1.10, 2.5, 1.00, 2667, 16, 16,
            47, 13, 13, 16),
        gen(26, 2015, I::DDR4, 8 * kGb, 1.2, 1.05, 2.5, 0.95, 3200, 16, 16,
            47, 13, 13, 16),
        gen(22, 2016, I::DDR5, 8 * kGb, 1.1, 1.00, 2.4, 0.90, 4266, 32, 32,
            46, 13, 13, 32),
        gen(18, 2017, I::DDR5, 16 * kGb, 1.1, 0.95, 2.4, 0.90, 5333, 32, 32,
            46, 13, 13, 32),
        gen(16, 2018, I::DDR5, 16 * kGb, 1.0, 0.90, 2.3, 0.85, 6400, 32, 32,
            45, 13, 13, 32),
    };
    return ladder;
}

const GenerationInfo&
generationAt(double feature_size)
{
    for (const GenerationInfo& g : generationLadder()) {
        if (std::fabs(g.featureSize - feature_size) < 0.5e-9)
            return g;
    }
    // Internal invariant: only called with ladder nodes (presets, trend
    // sweeps). User-supplied feature sizes go through generationNear().
    panic(strformat("no DRAM generation defined at %.0f nm",
                    feature_size * 1e9));
}

const GenerationInfo&
generationNear(double feature_size)
{
    const auto& ladder = generationLadder();
    const GenerationInfo* best = &ladder.front();
    double best_dist = 1e9;
    for (const GenerationInfo& g : ladder) {
        double dist = std::fabs(std::log(g.featureSize / feature_size));
        if (dist < best_dist) {
            best_dist = dist;
            best = &g;
        }
    }
    return *best;
}

} // namespace vdram
