/**
 * @file
 * Interface specification, logic-block description and command pattern —
 * the "Specification", "Logic block description" and "Pattern" groups of
 * Table I. These are plain value types shared by all subsystems.
 */
#ifndef VDRAM_CORE_SPEC_H
#define VDRAM_CORE_SPEC_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace vdram {

/**
 * Interface specification of the device (Table I, "Specification").
 * The device density is derived from the address widths so the
 * description can never be internally inconsistent:
 * density = 2^(bank+row+column) * ioWidth.
 */
struct Specification {
    /** Number of DQ pins. */
    int ioWidth = 16;
    /** Data rate per DQ pin in bit/s. */
    double dataRate = 1.333e9;
    /** Number of clock wires distributed on the die. */
    int clockWires = 2;
    /** Data clock frequency in Hz. */
    double dataClockFrequency = 666.5e6;
    /** Control (command/address) clock frequency in Hz. */
    double controlClockFrequency = 666.5e6;
    /** Bank address bits. */
    int bankAddressBits = 3;
    /** Row address bits. */
    int rowAddressBits = 13;
    /** Column address bits. */
    int columnAddressBits = 10;
    /** Miscellaneous control signals (CS, RAS, CAS, WE, ODT, CKE, ...). */
    int miscControlSignals = 7;
    /** Interface prefetch (bits fetched per column access per DQ). */
    int prefetch = 8;
    /** Interface burst length in data beats. */
    int burstLength = 8;

    /** Number of banks. */
    int banks() const { return 1 << bankAddressBits; }
    /** Rows per bank. */
    long long rowsPerBank() const { return 1LL << rowAddressBits; }
    /** Page size in bits (sense amplifiers latched per activate). */
    long long pageBits() const
    {
        return (1LL << columnAddressBits) * ioWidth;
    }
    /** Device density in bits. */
    long long densityBits() const
    {
        return pageBits() * rowsPerBank() * banks();
    }
    /** Bits transferred per read or write command (one full burst). */
    long long bitsPerBurst() const
    {
        return static_cast<long long>(ioWidth) * burstLength;
    }
    /** Aggregate interface bandwidth in bit/s. */
    double bandwidth() const { return dataRate * ioWidth; }
    /** Core (column path) frequency: data rate / prefetch. */
    double coreFrequency() const { return dataRate / prefetch; }
};

/** When a miscellaneous logic block consumes energy. */
enum class Activity {
    Always,        ///< every control clock cycle (clock tree, DLL, input buffers)
    RowCommand,    ///< once per activate and once per precharge
    ActivateOnly,  ///< once per activate
    PrechargeOnly, ///< once per precharge
    ColumnCommand, ///< once per read and once per write
    ReadOnly,      ///< once per read
    WriteOnly,     ///< once per write
    PerDataBit,    ///< once per transferred data bit (serializer, FIFO)
};

/** Name of an activity class ("always", "row", ...). */
std::string activityName(Activity activity);

/**
 * A miscellaneous peripheral logic block (Table I, "Logic block
 * description"): command/address decode, clock synchronization, test
 * logic. Gate counts here are the model's declared fit parameters
 * (paper Section III.B.5).
 */
struct LogicBlock {
    std::string name;
    /** Number of (logic) gates in the block. */
    double gateCount = 1000;
    /** Average NMOS gate width. */
    double avgWidthN = 0.4e-6;
    /** Average PMOS gate width. */
    double avgWidthP = 0.6e-6;
    /** Average transistors per gate. */
    double transistorsPerGate = 4;
    /** Coverage of block area with transistor gates. */
    double layoutDensity = 0.30;
    /** Coverage of block area with local wiring. */
    double wiringDensity = 0.50;
    /** Toggles per gate per clock (Always) or per event (other modes). */
    double toggleRate = 0.15;
    /** When the block is active. */
    Activity activity = Activity::Always;
};

/**
 * Basic DRAM operations of the model (paper Fig. 4), extended with
 * low-power states: Pdn is one control cycle spent in (precharge)
 * power-down with CKE low, Srf one cycle in self refresh. Both gate the
 * clocked background; self refresh additionally pays the internally
 * generated refresh charge.
 */
enum class Op : std::uint8_t { Act, Pre, Rd, Wr, Nop, Ref, Pdn, Srf };

/** Number of Op values (for flat enum-indexed arrays). */
constexpr int kOpCount = 8;

/** Lower-case mnemonic used by the DSL ("act", "pre", "rd", ...). */
std::string opName(Op op);

/** A repeating command loop ("Pattern loop=act nop wrt nop ..."). */
struct Pattern {
    std::vector<Op> loop;

    /** Number of occurrences of @p op in one loop iteration. */
    int count(Op op) const;
    /** Loop length in control clock cycles. */
    int cycles() const { return static_cast<int>(loop.size()); }
};

/**
 * A loop length of @p loopSize cycles as a 64-bit count. Pattern::cycles()
 * is an int and wraps past 2^31 cycles, which one-byte Ops put within
 * reach (about 2 GB of loop); sizes beyond the long long range saturate.
 */
constexpr long long
cycleCount(std::size_t loopSize)
{
    constexpr auto kMax = static_cast<unsigned long long>(
        std::numeric_limits<long long>::max());
    return loopSize > kMax ? std::numeric_limits<long long>::max()
                           : static_cast<long long>(loopSize);
}

} // namespace vdram

#endif // VDRAM_CORE_SPEC_H
