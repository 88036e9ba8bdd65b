/// Tests of util/json: the minimal reader used by `mysawh_cli report` must
/// round-trip everything the pipeline's own writers emit (run manifests,
/// telemetry lines, benchmark JSON) and reject malformed input cleanly;
/// the writer's escaper, number rule and comma placement are the one
/// emitter every artifact goes through.

#include "util/json.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <limits>
#include <string>

namespace mysawh {
namespace {

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(ParseJson("null").value().is_null());
  EXPECT_TRUE(ParseJson("true").value().bool_value());
  EXPECT_FALSE(ParseJson("false").value().bool_value());
  EXPECT_DOUBLE_EQ(ParseJson("42").value().number_value(), 42.0);
  EXPECT_DOUBLE_EQ(ParseJson("-3.25e2").value().number_value(), -325.0);
  EXPECT_EQ(ParseJson("\"hi\"").value().string_value(), "hi");
}

TEST(JsonTest, ParsesNestedStructures) {
  const auto doc =
      ParseJson(R"({"cells":{"QoL-DD-fi0":{"wall_ms":12.5,"resumed":false}},)"
                R"("list":[1,2,3],"empty":[],"none":{}})");
  ASSERT_TRUE(doc.ok());
  const JsonValue* cells = doc->Find("cells");
  ASSERT_NE(cells, nullptr);
  const JsonValue* cell = cells->Find("QoL-DD-fi0");
  ASSERT_NE(cell, nullptr);
  EXPECT_DOUBLE_EQ(cell->NumberOr("wall_ms", 0.0), 12.5);
  ASSERT_NE(cell->Find("resumed"), nullptr);
  EXPECT_FALSE(cell->Find("resumed")->bool_value());
  EXPECT_EQ(doc->Find("list")->array_items().size(), 3u);
  EXPECT_TRUE(doc->Find("empty")->array_items().empty());
  EXPECT_TRUE(doc->Find("none")->object_members().empty());
}

TEST(JsonTest, PreservesObjectMemberOrder) {
  const auto doc = ParseJson(R"({"z":1,"a":2,"m":3})");
  ASSERT_TRUE(doc.ok());
  const auto& members = doc->object_members();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(JsonTest, DecodesStringEscapes) {
  const auto doc = ParseJson(R"("a\"b\\c\n\t\u0041\u00e9")");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->string_value(), "a\"b\\c\n\tA\xc3\xa9");
}

TEST(JsonTest, DecodesSurrogatePairs) {
  const auto doc = ParseJson(R"("\ud83d\ude00")");  // 😀 U+1F600
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->string_value(), "\xf0\x9f\x98\x80");
}

TEST(JsonTest, ParsesTelemetryLineShape) {
  const auto doc = ParseJson(
      R"({"stream":"QoL-DD-fi0/cv0/train","type":"round","round":7,)"
      R"("train":0.21387,"valid":null})");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->StringOr("stream", ""), "QoL-DD-fi0/cv0/train");
  EXPECT_DOUBLE_EQ(doc->NumberOr("round", -1.0), 7.0);
  ASSERT_NE(doc->Find("valid"), nullptr);
  EXPECT_TRUE(doc->Find("valid")->is_null());
  // NumberOr falls back on null (kind mismatch), which is how the report
  // command treats NaN metric points.
  EXPECT_DOUBLE_EQ(doc->NumberOr("valid", -1.0), -1.0);
}

TEST(JsonTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "01x", "\"unterm",
        "{\"a\":1} trailing", "[1 2]", "{'a':1}", "\"bad\\q\"", "nan",
        "\"\\u12\"", "+1"}) {
    const auto doc = ParseJson(bad);
    EXPECT_FALSE(doc.ok()) << "input: " << bad;
    EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(JsonTest, RejectsPathologicalNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(JsonTest, AccessorsFallBackOnKindMismatch) {
  const auto doc = ParseJson(R"({"s":"x","n":5})");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->NumberOr("s", -1.0), -1.0);
  EXPECT_EQ(doc->StringOr("n", "fallback"), "fallback");
  EXPECT_EQ(doc->NumberOr("missing", 9.0), 9.0);
  EXPECT_EQ(doc->Find("missing"), nullptr);
  EXPECT_EQ(ParseJson("[1]").value().Find("x"), nullptr);
}

TEST(JsonWriterTest, EscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("\n\t\r"), "\\n\\t\\r");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(JsonEscape(std::string(1, '\x1f')), "\\u001f");
  EXPECT_EQ(JsonEscape(std::string("a\0b", 3)), "a\\u0000b");
  EXPECT_EQ(JsonEscape("\x7f \xc3\xa9"), "\x7f \xc3\xa9");  // Not control bytes.
  // Every escaped byte decodes back through the reader.
  std::string all;
  for (int c = 1; c < 0x80; ++c) all += static_cast<char>(c);
  all += std::string(1, '\0');
  std::string literal = "\"";
  literal.append(JsonEscape(all)).append("\"");
  EXPECT_EQ(ParseJson(literal).value().string_value(), all);
}

TEST(JsonWriterTest, NumbersAreShortestRoundTrip) {
  EXPECT_EQ(JsonNumber(0.1), "0.1");
  EXPECT_EQ(JsonNumber(1.0 / 3.0), "0.3333333333333333");
  const double denormal = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(JsonNumber(denormal), "5e-324");
  EXPECT_EQ(JsonNumber(DBL_MAX), "1.7976931348623157e+308");
  EXPECT_EQ(JsonNumber(0.5), "0.5");
  EXPECT_EQ(JsonNumber(2.0), "2");
  // %g notation: plain digits below 1e15, exponent form at and above it.
  EXPECT_EQ(JsonNumber(100.0), "100");
  EXPECT_EQ(JsonNumber(1e14), "100000000000000");
  EXPECT_EQ(JsonNumber(1e15), "1e+15");
  EXPECT_EQ(JsonNumber(1e-5), "1e-05");
  for (double value : {0.1, 1.0 / 3.0, denormal, DBL_MAX, -DBL_MAX, DBL_MIN,
                       123456.789, 1e-300, 1e300, -0.0, 42.0}) {
    const std::string text = JsonNumber(value);
    const double parsed = ParseJson(text).value().number_value();
    EXPECT_EQ(parsed, value) << text;
    EXPECT_EQ(std::signbit(parsed), std::signbit(value)) << text;
  }
}

TEST(JsonWriterTest, NonFiniteNumbersParseBack) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(JsonNumber(inf), "1e999");
  EXPECT_EQ(JsonNumber(-inf), "-1e999");
  EXPECT_TRUE(ParseJson(JsonNumber(std::nan(""))).value().is_null());
  EXPECT_EQ(ParseJson(JsonNumber(inf)).value().number_value(), inf);
  EXPECT_EQ(ParseJson(JsonNumber(-inf)).value().number_value(), -inf);
}

TEST(JsonWriterTest, PlacesCommasInNestedContainers) {
  JsonWriter w;
  w.BeginObject()
      .Key("a").Int(1)
      .Key("b").BeginArray().Int(2).BeginObject().EndObject()
      .BeginArray().EndArray().String("x").EndArray()
      .Key("c").BeginObject().Key("d").Bool(true).Key("e").Number(0.25)
      .EndObject()
      .Key("f").Raw("[7,8]")
      .EndObject();
  EXPECT_EQ(w.str(),
            R"({"a":1,"b":[2,{},[],"x"],"c":{"d":true,"e":0.25},"f":[7,8]})");
  EXPECT_TRUE(ParseJson(w.str()).ok());
}

TEST(JsonWriterTest, TopLevelBuildsAMemberFragment) {
  JsonWriter fields;
  fields.Key("round").Int(3).Key("loss").Number(std::nan(""));
  EXPECT_EQ(fields.str(), R"("round":3,"loss":null)");
  // Raw splices the fragment in as members; an empty fragment adds nothing.
  JsonWriter line;
  line.BeginObject().Key("type").String("round").Raw(fields.str()).Raw("")
      .Key("k").String("a\"b").EndObject();
  EXPECT_EQ(line.str(),
            R"({"type":"round","round":3,"loss":null,"k":"a\"b"})");
}

}  // namespace
}  // namespace mysawh
