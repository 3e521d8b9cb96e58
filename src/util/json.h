/**
 * @file
 * Minimal JSON support used for machine-readable result export and the
 * serve protocol: a streaming writer (no external dependencies, correct
 * string escaping, stable number formatting) and a defensive value
 * parser for untrusted request documents (depth-capped, UTF-8 passed
 * through, every malformed input an Error rather than UB).
 */
#ifndef VDRAM_UTIL_JSON_H
#define VDRAM_UTIL_JSON_H

#include <string>
#include <utility>
#include <vector>

#include "util/result.h"

namespace vdram {

/**
 * Streaming JSON writer with a context stack; commas and quoting are
 * handled automatically.
 *
 * @code
 *   JsonWriter json;
 *   json.beginObject();
 *   json.key("idd0").value(0.067);
 *   json.key("parts").beginArray().value("a").value(2).endArray();
 *   json.endObject();
 *   std::string text = json.str();
 * @endcode
 */
class JsonWriter {
  public:
    JsonWriter& beginObject();
    JsonWriter& endObject();
    JsonWriter& beginArray();
    JsonWriter& endArray();

    /** Write an object key (must be inside an object). */
    JsonWriter& key(const std::string& name);

    JsonWriter& value(const std::string& text);
    JsonWriter& value(const char* text);
    JsonWriter& value(double number);
    JsonWriter& value(long long number);
    JsonWriter& value(int number);
    JsonWriter& value(bool flag);

    /** Splice a pre-rendered JSON value (e.g. a nested document from
     *  another writer) verbatim. The caller guarantees validity. */
    JsonWriter& rawValue(const std::string& json);

    /** The finished document. Precondition: all containers closed. */
    const std::string& str() const;

    /** Escape a string for inclusion in JSON (without quotes). */
    static std::string escape(const std::string& text);

  private:
    void prepareValue();

    enum class Context { Object, Array };
    struct Frame {
        Context context;
        bool hasEntries = false;
        bool expectValue = false; // object: key already written
    };

    std::string out_;
    std::vector<Frame> stack_;
};

/**
 * One parsed JSON value. A plain tagged struct rather than a class
 * hierarchy: the serve protocol only ever walks small request
 * documents, so simplicity and bounded behavior beat generality.
 */
struct JsonValue {
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string text;
    std::vector<JsonValue> items;
    /** Object members in document order (later duplicates win in
     *  member()). */
    std::vector<std::pair<std::string, JsonValue>> members;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Member of an object by key; nullptr when absent or not an
     *  object. */
    const JsonValue* member(const std::string& key) const;

    /** String content of a string member ("" when absent/not a
     *  string). */
    std::string memberString(const std::string& key) const;

    /** Numeric content of a number member (@p fallback otherwise). */
    double memberNumber(const std::string& key, double fallback) const;
};

/** Nesting depth cap for parseJson (hostile inputs must not overflow
 *  the stack). */
constexpr int kJsonMaxDepth = 48;

/**
 * Parse one complete JSON document. Trailing non-whitespace content,
 * exceeded depth, bad escapes and malformed numbers are all errors
 * (code E-JSON-PARSE, column set to the failing offset + 1).
 */
Result<JsonValue> parseJson(const std::string& text);

} // namespace vdram

#endif // VDRAM_UTIL_JSON_H
