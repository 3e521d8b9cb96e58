#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstring>

#include "util/logging.h"
#include "util/strings.h"

namespace vdram {

std::string
JsonWriter::escape(const std::string& text)
{
    std::string out;
    out.reserve(text.size());
    for (unsigned char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (c < 0x20)
                out += strformat("\\u%04x", c);
            else
                out += static_cast<char>(c);
        }
    }
    return out;
}

void
JsonWriter::prepareValue()
{
    if (stack_.empty())
        return;
    Frame& top = stack_.back();
    if (top.context == Context::Object) {
        if (!top.expectValue)
            panic("JsonWriter: value in object without key()");
        top.expectValue = false;
        return;
    }
    if (top.hasEntries)
        out_ += ",";
    top.hasEntries = true;
}

JsonWriter&
JsonWriter::beginObject()
{
    prepareValue();
    out_ += "{";
    stack_.push_back(Frame{Context::Object});
    return *this;
}

JsonWriter&
JsonWriter::endObject()
{
    if (stack_.empty() || stack_.back().context != Context::Object ||
        stack_.back().expectValue) {
        panic("JsonWriter: unbalanced endObject()");
    }
    stack_.pop_back();
    out_ += "}";
    return *this;
}

JsonWriter&
JsonWriter::beginArray()
{
    prepareValue();
    out_ += "[";
    stack_.push_back(Frame{Context::Array});
    return *this;
}

JsonWriter&
JsonWriter::endArray()
{
    if (stack_.empty() || stack_.back().context != Context::Array)
        panic("JsonWriter: unbalanced endArray()");
    stack_.pop_back();
    out_ += "]";
    return *this;
}

JsonWriter&
JsonWriter::key(const std::string& name)
{
    if (stack_.empty() || stack_.back().context != Context::Object ||
        stack_.back().expectValue) {
        panic("JsonWriter: key() outside object");
    }
    Frame& top = stack_.back();
    if (top.hasEntries)
        out_ += ",";
    top.hasEntries = true;
    top.expectValue = true;
    out_ += "\"" + escape(name) + "\":";
    return *this;
}

JsonWriter&
JsonWriter::value(const std::string& text)
{
    prepareValue();
    out_ += "\"" + escape(text) + "\"";
    return *this;
}

JsonWriter&
JsonWriter::value(const char* text)
{
    return value(std::string(text));
}

JsonWriter&
JsonWriter::value(double number)
{
    prepareValue();
    if (!std::isfinite(number))
        out_ += "null";
    else
        out_ += strformat("%.9g", number);
    return *this;
}

JsonWriter&
JsonWriter::value(long long number)
{
    prepareValue();
    out_ += strformat("%lld", number);
    return *this;
}

JsonWriter&
JsonWriter::value(int number)
{
    return value(static_cast<long long>(number));
}

JsonWriter&
JsonWriter::value(bool flag)
{
    prepareValue();
    out_ += flag ? "true" : "false";
    return *this;
}

JsonWriter&
JsonWriter::rawValue(const std::string& json)
{
    prepareValue();
    out_ += json;
    return *this;
}

const std::string&
JsonWriter::str() const
{
    if (!stack_.empty())
        panic("JsonWriter: document not closed");
    return out_;
}

const JsonValue*
JsonValue::member(const std::string& key) const
{
    if (kind != Kind::Object)
        return nullptr;
    const JsonValue* found = nullptr;
    for (const auto& [name, value] : members) {
        if (name == key)
            found = &value; // later duplicates win, like most parsers
    }
    return found;
}

std::string
JsonValue::memberString(const std::string& key) const
{
    const JsonValue* value = member(key);
    return value && value->isString() ? value->text : std::string();
}

double
JsonValue::memberNumber(const std::string& key, double fallback) const
{
    const JsonValue* value = member(key);
    return value && value->isNumber() ? value->number : fallback;
}

namespace {

/**
 * Recursive-descent parser over untrusted bytes. Depth is capped, every
 * failure is a located Error, and strings pass UTF-8 bytes through
 * unvalidated (the consumers treat them as opaque).
 */
class JsonParser {
  public:
    explicit JsonParser(const std::string& text) : text_(text) {}

    Result<JsonValue> parse()
    {
        skipSpace();
        JsonValue value;
        Status status = parseValue(value, 0);
        if (!status.ok())
            return status.error();
        skipSpace();
        if (pos_ != text_.size())
            return fail("trailing content after JSON document");
        return value;
    }

  private:
    Error fail(const std::string& what) const
    {
        return Error{what, 0, static_cast<int>(pos_) + 1, "",
                     "E-JSON-PARSE"};
    }

    char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

    bool consume(char c)
    {
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }

    void skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool consumeLiteral(const char* literal)
    {
        size_t n = std::strlen(literal);
        if (text_.compare(pos_, n, literal) != 0)
            return false;
        pos_ += n;
        return true;
    }

    Status parseValue(JsonValue& out, int depth)
    {
        if (depth > kJsonMaxDepth)
            return fail("JSON nesting deeper than the supported limit");
        switch (peek()) {
        case '{': return parseObject(out, depth);
        case '[': return parseArray(out, depth);
        case '"':
            out.kind = JsonValue::Kind::String;
            return parseString(out.text);
        case 't':
            if (!consumeLiteral("true"))
                return fail("bad literal (expected 'true')");
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return Status::okStatus();
        case 'f':
            if (!consumeLiteral("false"))
                return fail("bad literal (expected 'false')");
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return Status::okStatus();
        case 'n':
            if (!consumeLiteral("null"))
                return fail("bad literal (expected 'null')");
            out.kind = JsonValue::Kind::Null;
            return Status::okStatus();
        default: return parseNumber(out);
        }
    }

    Status parseObject(JsonValue& out, int depth)
    {
        out.kind = JsonValue::Kind::Object;
        consume('{');
        skipSpace();
        if (consume('}'))
            return Status::okStatus();
        while (true) {
            skipSpace();
            if (peek() != '"')
                return fail("expected object key string");
            std::string key;
            Status key_status = parseString(key);
            if (!key_status.ok())
                return key_status;
            skipSpace();
            if (!consume(':'))
                return fail("expected ':' after object key");
            skipSpace();
            JsonValue value;
            Status status = parseValue(value, depth + 1);
            if (!status.ok())
                return status;
            out.members.emplace_back(std::move(key), std::move(value));
            skipSpace();
            if (consume(','))
                continue;
            if (consume('}'))
                return Status::okStatus();
            return fail("expected ',' or '}' in object");
        }
    }

    Status parseArray(JsonValue& out, int depth)
    {
        out.kind = JsonValue::Kind::Array;
        consume('[');
        skipSpace();
        if (consume(']'))
            return Status::okStatus();
        while (true) {
            skipSpace();
            JsonValue value;
            Status status = parseValue(value, depth + 1);
            if (!status.ok())
                return status;
            out.items.push_back(std::move(value));
            skipSpace();
            if (consume(','))
                continue;
            if (consume(']'))
                return Status::okStatus();
            return fail("expected ',' or ']' in array");
        }
    }

    Status parseString(std::string& out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        out.clear();
        while (pos_ < text_.size()) {
            unsigned char c = static_cast<unsigned char>(text_[pos_++]);
            if (c == '"')
                return Status::okStatus();
            if (c < 0x20)
                return fail("unescaped control character in string");
            if (c != '\\') {
                out += static_cast<char>(c);
                continue;
            }
            if (pos_ >= text_.size())
                return fail("unterminated escape sequence");
            char esc = text_[pos_++];
            switch (esc) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9') code |= h - '0';
                    else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
                    else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
                    else return fail("bad hex digit in \\u escape");
                }
                appendUtf8(out, code);
                break;
            }
            default: return fail("unknown escape sequence");
            }
        }
        return fail("unterminated string");
    }

    static void appendUtf8(std::string& out, unsigned code)
    {
        // Basic-plane only (the writer never emits surrogate pairs and
        // request fields are identifiers/DSL text); unpaired surrogates
        // encode as-is rather than erroring, keeping the parser total.
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        }
    }

    Status parseNumber(JsonValue& out)
    {
        size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return fail("expected a JSON value");
        // from_chars is locale-independent (the strtod lesson of PR 5).
        double value = 0;
        auto [ptr, ec] = std::from_chars(text_.data() + start,
                                         text_.data() + pos_, value);
        if (ec != std::errc() || ptr != text_.data() + pos_)
            return fail("malformed number");
        out.kind = JsonValue::Kind::Number;
        out.number = value;
        return Status::okStatus();
    }

    const std::string& text_;
    size_t pos_ = 0;
};

} // namespace

Result<JsonValue>
parseJson(const std::string& text)
{
    return JsonParser(text).parse();
}

} // namespace vdram
