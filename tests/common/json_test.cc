#include "common/json.h"

#include <gtest/gtest.h>

#include <string>

namespace dio {
namespace {

TEST(JsonTest, ScalarTypes) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(true).is_bool());
  EXPECT_TRUE(Json(5).is_int());
  EXPECT_TRUE(Json(2.5).is_double());
  EXPECT_TRUE(Json("hi").is_string());
  EXPECT_TRUE(Json::MakeArray().is_array());
  EXPECT_TRUE(Json::MakeObject().is_object());
}

TEST(JsonTest, NumberCoercion) {
  EXPECT_EQ(Json(2.0).as_int(), 2);
  EXPECT_DOUBLE_EQ(Json(7).as_double(), 7.0);
  EXPECT_TRUE(Json(1).is_number());
  EXPECT_TRUE(Json(1.5).is_number());
  EXPECT_FALSE(Json("1").is_number());
}

TEST(JsonTest, ObjectSetReplacesAndPreservesOrder) {
  Json obj = Json::MakeObject();
  obj.Set("b", 1);
  obj.Set("a", 2);
  obj.Set("b", 3);  // replace, keep position
  ASSERT_EQ(obj.as_object().size(), 2u);
  EXPECT_EQ(obj.as_object()[0].first, "b");
  EXPECT_EQ(obj.as_object()[0].second.as_int(), 3);
  EXPECT_EQ(obj.as_object()[1].first, "a");
}

TEST(JsonTest, FindAndTypedGetters) {
  Json obj = Json::MakeObject();
  obj.Set("n", 42);
  obj.Set("s", "text");
  obj.Set("b", true);
  obj.Set("d", 1.5);
  EXPECT_EQ(obj.GetInt("n"), 42);
  EXPECT_EQ(obj.GetString("s"), "text");
  EXPECT_TRUE(obj.GetBool("b"));
  EXPECT_DOUBLE_EQ(obj.GetDouble("d"), 1.5);
  EXPECT_EQ(obj.GetInt("missing", -1), -1);
  EXPECT_EQ(obj.GetString("missing", "x"), "x");
  EXPECT_EQ(obj.GetInt("s", -1), -1);  // wrong type -> fallback
  EXPECT_EQ(obj.Find("nope"), nullptr);
  EXPECT_TRUE(obj.Has("n"));
}

TEST(JsonTest, DumpCompact) {
  Json obj = Json::MakeObject();
  obj.Set("a", 1);
  obj.Set("b", "x");
  obj.Set("c", Json(JsonArray{Json(1), Json(2)}));
  EXPECT_EQ(obj.Dump(), R"({"a":1,"b":"x","c":[1,2]})");
}

TEST(JsonTest, DumpEscapes) {
  Json v("line\n\"quoted\"\\tab\t");
  EXPECT_EQ(v.Dump(), R"("line\n\"quoted\"\\tab\t")");
}

TEST(JsonTest, ParseScalars) {
  EXPECT_TRUE(Json::Parse("null")->is_null());
  EXPECT_EQ(Json::Parse("true")->as_bool(), true);
  EXPECT_EQ(Json::Parse("false")->as_bool(), false);
  EXPECT_EQ(Json::Parse("123")->as_int(), 123);
  EXPECT_EQ(Json::Parse("-45")->as_int(), -45);
  EXPECT_DOUBLE_EQ(Json::Parse("2.5e2")->as_double(), 250.0);
  EXPECT_EQ(Json::Parse("\"str\"")->as_string(), "str");
}

TEST(JsonTest, ParseNested) {
  auto parsed = Json::Parse(R"({"a":[1,{"b":null}],"c":"d"})");
  ASSERT_TRUE(parsed.ok());
  const Json& a = *parsed->Find("a");
  ASSERT_TRUE(a.is_array());
  EXPECT_EQ(a.as_array()[0].as_int(), 1);
  EXPECT_TRUE(a.as_array()[1].Find("b")->is_null());
  EXPECT_EQ(parsed->GetString("c"), "d");
}

TEST(JsonTest, ParseUnicodeEscape) {
  auto parsed = Json::Parse(R"("Aé")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->as_string(), "A\xc3\xa9");
}

TEST(JsonTest, ParseErrors) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":}").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
}

TEST(JsonTest, RoundTripPreservesStructure) {
  Json obj = Json::MakeObject();
  obj.Set("int", 9223372036854775807LL);
  obj.Set("neg", -1);
  obj.Set("str", "with \"escapes\" and \t tabs");
  obj.Set("arr", Json(JsonArray{Json(1), Json("two"), Json(nullptr)}));
  Json inner = Json::MakeObject();
  inner.Set("k", 0.125);
  obj.Set("obj", inner);

  auto reparsed = Json::Parse(obj.Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(*reparsed, obj);
}

TEST(JsonTest, EqualityAcrossNumericTypes) {
  EXPECT_EQ(Json(2), Json(2.0));
  EXPECT_FALSE(Json(2) == Json(2.5));
  EXPECT_FALSE(Json(2) == Json("2"));
}

TEST(JsonTest, PrettyDumpIndents) {
  Json obj = Json::MakeObject();
  obj.Set("a", 1);
  const std::string pretty = obj.Dump(2);
  EXPECT_NE(pretty.find("\n  \"a\": 1"), std::string::npos);
}

TEST(JsonTest, AppendBuildsArray) {
  Json arr;
  arr.Append(1);
  arr.Append("x");
  ASSERT_TRUE(arr.is_array());
  EXPECT_EQ(arr.as_array().size(), 2u);
}

TEST(JsonTest, LargeIntRoundTrip) {
  const std::int64_t big = 1'679'308'382'363'981'568LL;  // paper-size ns stamp
  auto parsed = Json::Parse(Json(big).Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->as_int(), big);
}

// Parse's nesting limit (common/json.cc); not configurable.
constexpr std::size_t kNestingLimit = 512;

std::string NestedArrays(std::size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

std::string NestedObjects(std::size_t depth) {
  std::string text;
  for (std::size_t i = 0; i < depth; ++i) text += "{\"k\":";
  text += "0";
  text += std::string(depth, '}');
  return text;
}

TEST(JsonTest, HostileNestingFailsWithPositionedError) {
  // 100k levels overflowed the recursive parser's stack before the limit.
  for (const std::string& text :
       {NestedArrays(100'000), NestedObjects(100'000),
        std::string(100'000, '[')}) {
    auto parsed = Json::Parse(text);
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.status().message().find("json parse error at offset"),
              std::string::npos)
        << parsed.status().message();
  }
  // The error points at the first bracket past the limit.
  auto parsed = Json::Parse(NestedArrays(kNestingLimit + 1));
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find(
                "offset " + std::to_string(kNestingLimit) + ":"),
            std::string::npos)
      << parsed.status().message();
  EXPECT_FALSE(Json::Parse(NestedObjects(kNestingLimit + 1)).ok());
}

TEST(JsonTest, NestingAtTheLimitParses) {
  auto arrays = Json::Parse(NestedArrays(kNestingLimit));
  ASSERT_TRUE(arrays.ok()) << arrays.status().message();
  EXPECT_EQ(arrays->Dump(), NestedArrays(kNestingLimit));

  auto objects = Json::Parse(NestedObjects(kNestingLimit));
  ASSERT_TRUE(objects.ok()) << objects.status().message();
  const Json* inner = &objects.value();
  for (std::size_t i = 0; i < kNestingLimit; ++i) {
    ASSERT_TRUE(inner->is_object());
    inner = &inner->as_object().front().second;
  }
  EXPECT_EQ(inner->as_int(), 0);
}

}  // namespace
}  // namespace dio
