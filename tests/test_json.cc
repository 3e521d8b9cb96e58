/**
 * @file
 * JSON writer and export tests: structural correctness, escaping, and
 * the exported model document.
 */
#include <gtest/gtest.h>

#include "core/json_export.h"
#include "presets/presets.h"
#include "util/json.h"

namespace vdram {
namespace {

TEST(JsonWriterTest, ObjectsArraysAndCommas)
{
    JsonWriter json;
    json.beginObject();
    json.key("a").value(1);
    json.key("b").beginArray().value(1).value(2).value(3).endArray();
    json.key("c").beginObject().key("x").value(true).endObject();
    json.endObject();
    EXPECT_EQ(json.str(), "{\"a\":1,\"b\":[1,2,3],\"c\":{\"x\":true}}");
}

TEST(JsonWriterTest, EscapesStrings)
{
    JsonWriter json;
    json.beginObject();
    json.key("quote\"backslash\\").value("line\nbreak\ttab");
    json.endObject();
    EXPECT_EQ(json.str(),
              "{\"quote\\\"backslash\\\\\":\"line\\nbreak\\ttab\"}");
}

TEST(JsonWriterTest, NumbersStableAndFiniteOnly)
{
    JsonWriter json;
    json.beginArray();
    json.value(0.0671);
    json.value(1e-12);
    json.value(std::numeric_limits<double>::infinity());
    json.endArray();
    EXPECT_EQ(json.str(), "[0.0671,1e-12,null]");
}

TEST(JsonWriterTest, EscapeHelper)
{
    EXPECT_EQ(JsonWriter::escape("plain"), "plain");
    EXPECT_EQ(JsonWriter::escape("\x01"), "\\u0001");
}

namespace {

/** Tiny structural check: quotes balanced, braces/brackets nested. */
bool
structurallyValid(const std::string& text)
{
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    for (char c : text) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']') {
            if (--depth < 0)
                return false;
        }
    }
    return depth == 0 && !in_string;
}

} // namespace

TEST(JsonExportTest, ModelDocumentIsStructurallyValid)
{
    DramPowerModel model(preset1GbDdr3(55e-9, 16, 1333));
    std::string doc = modelToJson(model);
    EXPECT_TRUE(structurallyValid(doc));
    // Key fields present.
    for (const char* fragment :
         {"\"name\":", "\"idd_a\":", "\"IDD0\":", "\"IDD4R\":",
          "\"die\":", "\"array_efficiency\":", "\"default_pattern\":",
          "\"components\":", "\"domains\":", "\"Vpp\":"}) {
        EXPECT_NE(doc.find(fragment), std::string::npos) << fragment;
    }
}

} // namespace
} // namespace vdram
