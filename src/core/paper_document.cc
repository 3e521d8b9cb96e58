/**
 * @file
 * The generic half of the paper-artifact registry: artifact records,
 * their JSON and markdown renderings, and the verdict evaluation. No
 * entry-specific code lives here.
 */
#include "core/paper_registry.h"

#include <cmath>
#include <limits>

#include "util/json.h"
#include "util/strings.h"

namespace vdram {

ArtifactRecord&
ArtifactRecord::num(const std::string& key, double value, int digits)
{
    ArtifactValue v;
    v.number = value;
    v.text = strformat("%.*g", digits, value);
    fields.emplace_back(key, std::move(v));
    return *this;
}

ArtifactRecord&
ArtifactRecord::str(const std::string& key, const std::string& value)
{
    ArtifactValue v;
    v.kind = ArtifactValue::Kind::Text;
    v.text = value;
    fields.emplace_back(key, std::move(v));
    return *this;
}

std::vector<ArtifactRecord>&
ArtifactRecord::rows(const std::string& key)
{
    ArtifactValue v;
    v.kind = ArtifactValue::Kind::Rows;
    fields.emplace_back(key, std::move(v));
    return fields.back().second.rows;
}

const ArtifactValue*
ArtifactRecord::find(const std::string& key) const
{
    for (const auto& [name, value] : fields) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

double
ArtifactRecord::number(const std::string& key) const
{
    const ArtifactValue* v = find(key);
    return v && v->kind == ArtifactValue::Kind::Number
               ? v->number
               : std::numeric_limits<double>::quiet_NaN();
}

std::string
ArtifactRecord::text(const std::string& key) const
{
    const ArtifactValue* v = find(key);
    return v && v->kind == ArtifactValue::Kind::Text ? v->text : "";
}

const std::vector<ArtifactRecord>&
ArtifactRecord::table(const std::string& key) const
{
    static const std::vector<ArtifactRecord> kEmpty;
    const ArtifactValue* v = find(key);
    return v && v->kind == ArtifactValue::Kind::Rows ? v->rows : kEmpty;
}

namespace {

void
writeRecord(JsonWriter& json, const ArtifactRecord& record)
{
    json.beginObject();
    for (const auto& [key, value] : record.fields) {
        json.key(key);
        switch (value.kind) {
        case ArtifactValue::Kind::Number: json.rawValue(value.text); break;
        case ArtifactValue::Kind::Text: json.value(value.text); break;
        case ArtifactValue::Kind::Rows:
            json.beginArray();
            for (const ArtifactRecord& row : value.rows)
                writeRecord(json, row);
            json.endArray();
            break;
        }
    }
    json.endObject();
}

/** Human-facing spelling: integers in full, everything else to four
 *  significant digits. */
std::string
displayNumber(double value)
{
    if (value == std::floor(value) && std::fabs(value) < 1e9)
        return strformat("%.0f", value);
    return strformat("%.4g", value);
}

std::string
displayCell(const ArtifactValue& value)
{
    return value.kind == ArtifactValue::Kind::Text
               ? value.text
               : displayNumber(value.number);
}

} // namespace

std::string
ArtifactRecord::json() const
{
    JsonWriter json;
    writeRecord(json, *this);
    return json.str();
}

std::vector<Verdict>
judgeArtifact(const PaperArtifact& artifact, const ArtifactRecord& doc)
{
    if (doc.find("error"))
        return {{"campaign completed (" + doc.text("error") + ")", 0, 1, 1}};
    return artifact.verdicts(doc);
}

std::string
renderArtifactMarkdown(const ArtifactRecord& doc,
                       const std::vector<Verdict>& verdicts)
{
    std::string scalars;
    std::string tables;
    for (const auto& [key, value] : doc.fields) {
        if (value.kind != ArtifactValue::Kind::Rows) {
            scalars += (scalars.empty() ? "" : ", ") + key + " = " +
                       displayCell(value);
            continue;
        }
        if (value.rows.empty())
            continue;
        std::string header = "|";
        std::string rule = "|";
        for (const auto& cell : value.rows.front().fields) {
            header += " " + cell.first + " |";
            rule += "---|";
        }
        tables += key + ":\n\n" + header + "\n" + rule + "\n";
        for (const ArtifactRecord& row : value.rows) {
            tables += "|";
            for (const auto& cell : row.fields)
                tables += " " + displayCell(cell.second) + " |";
            tables += "\n";
        }
        tables += "\n";
    }
    std::string out = scalars.empty() ? "" : scalars + "\n\n";
    out += tables;
    for (const Verdict& v : verdicts) {
        out += strformat("- %s: %s: %s in [%s, %s]\n",
                         v.pass() ? "PASS" : "FAIL", v.label.c_str(),
                         displayNumber(v.value).c_str(),
                         displayNumber(v.lo).c_str(),
                         displayNumber(v.hi).c_str());
    }
    return out;
}

} // namespace vdram
