/**
 * @file
 * The paper-artifact registry: one entry per reproduced figure, table
 * and extension study (E1-E13 and X1-X8 in DESIGN.md, plus the
 * Monte-Carlo vendor-spread campaign).
 *
 * An entry computes one data document (an ArtifactRecord: ordered keys,
 * scalar values and flat row arrays) and judges it with verdicts that
 * carry their tolerance as data. Everything else is generic and comes
 * from that one document: the golden JSON under tests/data/golden, the
 * markdown tables and verdict lines in EXPERIMENTS.md, the tier-1 ctest
 * per artifact (label `paper`) and the output of tools/vdram_golden.
 *
 * Every number is rendered with %.17g unless its entry says otherwise,
 * so a golden file is byte-identical across runs of the same binary.
 */
#ifndef VDRAM_CORE_PAPER_REGISTRY_H
#define VDRAM_CORE_PAPER_REGISTRY_H

#include <string>
#include <utility>
#include <vector>

namespace vdram {

struct ArtifactRecord;

/** A value of a record: a number, a string or an array of flat rows. */
struct ArtifactValue {
    enum class Kind { Number, Text, Rows };
    Kind kind = Kind::Number;
    double number = 0;
    /** The string, or the number's JSON spelling. */
    std::string text;
    std::vector<ArtifactRecord> rows;
};

/**
 * Ordered key/value pairs. A document is a record whose row arrays hold
 * flat records (rows carry scalars only).
 */
struct ArtifactRecord {
    std::vector<std::pair<std::string, ArtifactValue>> fields;

    /** Append a number rendered with @p digits significant digits. */
    ArtifactRecord& num(const std::string& key, double value,
                        int digits = 17);
    /** Append a string. */
    ArtifactRecord& str(const std::string& key, const std::string& value);
    /** Append an empty row array and return it for filling. The
     *  reference is valid until the next append to this record. */
    std::vector<ArtifactRecord>& rows(const std::string& key);

    /** The value under @p key, or nullptr. */
    const ArtifactValue* find(const std::string& key) const;
    /** The number under @p key; NaN when absent (a NaN fails every
     *  verdict that reads it). */
    double number(const std::string& key) const;
    /** The string under @p key; empty when absent. */
    std::string text(const std::string& key) const;
    /** The row array under @p key; empty when absent. */
    const std::vector<ArtifactRecord>& table(const std::string& key) const;

    /** Canonical JSON (no trailing newline). */
    std::string json() const;
};

/** One shape criterion: passes when lo <= value <= hi. */
struct Verdict {
    std::string label;
    double value = 0;
    double lo = 0;
    double hi = 0;

    bool pass() const { return value >= lo && value <= hi; }
};

/** One reproduced artifact. */
struct PaperArtifact {
    const char* name;  ///< golden file stem, e.g. "fig8_ddr2_verification"
    const char* id;    ///< DESIGN.md index, e.g. "E1"
    const char* title; ///< the paper artifact, e.g. "Fig. 8"
    ArtifactRecord (*compute)();
    std::vector<Verdict> (*verdicts)(const ArtifactRecord& doc);
};

/** Every artifact, in golden generation order. */
const std::vector<PaperArtifact>& paperArtifacts();

/** The verdicts on @p doc. A document that carries an "error" (its
 *  campaign failed) gets one failing verdict instead. */
std::vector<Verdict> judgeArtifact(const PaperArtifact& artifact,
                                   const ArtifactRecord& doc);

/** The document's tables and the verdict lines as markdown, ending in a
 *  newline: the generated block of EXPERIMENTS.md. */
std::string renderArtifactMarkdown(const ArtifactRecord& doc,
                                   const std::vector<Verdict>& verdicts);

} // namespace vdram

#endif // VDRAM_CORE_PAPER_REGISTRY_H
