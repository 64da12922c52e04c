#include "util/json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "util/string_util.h"

namespace tecore {
namespace util {
namespace {

TEST(Json, BuildAndDumpDeterministic) {
  Json obj = Json::Object();
  obj.Set("version", Json::Int(3))
      .Set("ok", Json::Bool(true))
      .Set("name", Json::Str("coach \"Ranieri\"\n"))
      .Set("score", Json::Number(0.25))
      .Set("nothing", Json::Null());
  Json arr = Json::Array();
  arr.Append(Json::Int(1));
  arr.Append(Json::Int(2));
  obj.Set("ids", std::move(arr));
  EXPECT_EQ(obj.Dump(),
            "{\"version\":3,\"ok\":true,"
            "\"name\":\"coach \\\"Ranieri\\\"\\n\",\"score\":0.25,"
            "\"nothing\":null,\"ids\":[1,2]}");
}

TEST(Json, ParseRoundTrip) {
  const std::string text =
      "{\"a\":[1,2.5,-3],\"b\":{\"c\":\"x\\ty\"},\"d\":false,\"e\":null}";
  auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Dump(), text);
  const Json* a = parsed->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_EQ(a->items()[0].int_value(), 1);
  EXPECT_EQ(a->items()[1].number_value(), 2.5);
  EXPECT_EQ(a->items()[2].int_value(), -3);
  EXPECT_EQ(parsed->Find("b")->GetString("c", ""), "x\ty");
  EXPECT_FALSE(parsed->GetBool("d", true));
  EXPECT_TRUE(parsed->Find("e")->is_null());
}

TEST(Json, DoubleRoundTripIsBitExact) {
  for (double v : {0.1, 1.0 / 3.0, 1e-17, 12345.6789, 2.2250738585072014e-308}) {
    Json j = Json::Number(v);
    auto back = Json::Parse(j.Dump());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->number_value(), v) << FormatDoubleExact(v);
  }
}

TEST(Json, TypedAccessorsWithDefaults) {
  auto parsed = Json::Parse("{\"threads\":4,\"solver\":\"psl\"}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetInt("threads", 0), 4);
  EXPECT_EQ(parsed->GetInt("missing", 7), 7);
  EXPECT_EQ(parsed->GetString("solver", "mln"), "psl");
  EXPECT_EQ(parsed->GetString("missing", "mln"), "mln");
  EXPECT_EQ(parsed->GetNumber("threads", 0.0), 4.0);
  // Integers saturate instead of overflowing the double -> int64 cast.
  auto huge = Json::Parse("{\"big\":1e300,\"small\":-1e300}");
  ASSERT_TRUE(huge.ok());
  EXPECT_EQ(huge->GetInt("big", 0), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(huge->GetInt("small", 0), std::numeric_limits<int64_t>::min());
}

TEST(Json, UnicodeEscapes) {
  auto parsed = Json::Parse("\"a\\u0041\\u00e9\"");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->string_value(), "aA\xc3\xa9");
  // Control characters are re-escaped on output.
  EXPECT_EQ(Json::Str(std::string("\x01", 1)).Dump(), "\"\\u0001\"");
}

TEST(Json, ParseErrors) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":}").ok());
  EXPECT_FALSE(Json::Parse("[1,2").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("{} trailing").ok());
  EXPECT_FALSE(Json::Parse("nul").ok());
  // Deep nesting is bounded, not a stack overflow.
  std::string deep(100, '[');
  EXPECT_FALSE(Json::Parse(deep).ok());
}

TEST(Json, SetOverwrites) {
  Json obj = Json::Object();
  obj.Set("k", Json::Int(1));
  obj.Set("k", Json::Int(2));
  EXPECT_EQ(obj.Dump(), "{\"k\":2}");
}

}  // namespace
}  // namespace util
}  // namespace tecore
