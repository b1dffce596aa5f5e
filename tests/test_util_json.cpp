#include "util/json.hpp"

#include <gtest/gtest.h>

namespace a4nn::util {
namespace {

TEST(Json, DefaultIsNull) {
  Json j;
  EXPECT_TRUE(j.is_null());
}

TEST(Json, ScalarConstruction) {
  EXPECT_TRUE(Json(true).is_bool());
  EXPECT_TRUE(Json(3.5).is_number());
  EXPECT_TRUE(Json("hi").is_string());
  EXPECT_EQ(Json(42).as_int(), 42);
  EXPECT_DOUBLE_EQ(Json(2.25).as_number(), 2.25);
}

TEST(Json, VectorConstruction) {
  std::vector<double> v{1.0, 2.0, 3.0};
  Json j(v);
  ASSERT_TRUE(j.is_array());
  EXPECT_EQ(j.size(), 3u);
  EXPECT_EQ(j.as_double_vector(), v);
}

TEST(Json, ObjectAccess) {
  Json j = Json::object();
  j["a"] = 1;
  j["b"] = "text";
  EXPECT_TRUE(j.contains("a"));
  EXPECT_FALSE(j.contains("zzz"));
  EXPECT_EQ(j.at("a").as_int(), 1);
  EXPECT_EQ(j.at("b").as_string(), "text");
  EXPECT_THROW(j.at("zzz"), JsonError);
}

TEST(Json, TypedAccessorMismatchThrows) {
  Json j(1.0);
  EXPECT_THROW(j.as_string(), JsonError);
  EXPECT_THROW(j.as_array(), JsonError);
  EXPECT_THROW(j.as_object(), JsonError);
  EXPECT_THROW(j.as_bool(), JsonError);
}

TEST(Json, DefaultedGetters) {
  Json j = Json::object();
  j["x"] = 7.0;
  EXPECT_DOUBLE_EQ(j.number_or("x", 0.0), 7.0);
  EXPECT_DOUBLE_EQ(j.number_or("y", 3.0), 3.0);
  EXPECT_EQ(j.string_or("name", "dflt"), "dflt");
  EXPECT_TRUE(j.bool_or("flag", true));
}

TEST(Json, ArrayPushBackOnNullPromotes) {
  Json j;
  j.push_back(Json(1));
  j.push_back(Json(2));
  ASSERT_TRUE(j.is_array());
  EXPECT_EQ(j.at(std::size_t{1}).as_int(), 2);
  EXPECT_THROW(j.at(std::size_t{5}), JsonError);
}

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("-12.5e2").as_number(), -1250.0);
  EXPECT_EQ(Json::parse("\"abc\"").as_string(), "abc");
}

TEST(Json, ParseNested) {
  const Json j = Json::parse(R"({"a": [1, 2, {"b": true}], "c": null})");
  EXPECT_EQ(j.at("a").size(), 3u);
  EXPECT_TRUE(j.at("a").at(std::size_t{2}).at("b").as_bool());
  EXPECT_TRUE(j.at("c").is_null());
}

TEST(Json, ParseStringEscapes) {
  const Json j = Json::parse(R"("line\nbreak \"quoted\" tab\t uA")");
  EXPECT_EQ(j.as_string(), "line\nbreak \"quoted\" tab\t uA");
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), JsonError);
  EXPECT_THROW(Json::parse("tru"), JsonError);
  EXPECT_THROW(Json::parse("1 2"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
}

TEST(Json, NestingDepthIsCapped) {
  // A million open brackets would recurse a million frames deep; the cap
  // turns that into an ordinary parse error, arrays and objects alike.
  EXPECT_THROW(Json::parse(std::string(1000000, '[')), JsonError);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_THROW(Json::parse(objects), JsonError);

  const std::size_t limit = Json::kMaxParseDepth;
  const Json deepest = Json::parse(std::string(limit, '[') +
                                   std::string(limit, ']'));
  const Json* inner = &deepest;
  for (std::size_t d = 1; d < limit; ++d) inner = &inner->at(std::size_t{0});
  EXPECT_EQ(inner->size(), 0u);
  EXPECT_THROW(Json::parse(std::string(limit + 1, '[') +
                           std::string(limit + 1, ']')),
               JsonError);
  // Sibling containers do not add up: depth is nesting, not count.
  std::string wide = "[";
  for (std::size_t i = 0; i < 2 * limit; ++i) wide += i ? ",[]" : "[]";
  EXPECT_EQ(Json::parse(wide + "]").size(), 2 * limit);
}

TEST(Json, DumpParseRoundTrip) {
  Json j = Json::object();
  j["name"] = "model_42";
  j["acc"] = 99.125;
  j["flags"] = Json(JsonArray{Json(true), Json(false), Json(nullptr)});
  Json nested = Json::object();
  nested["k"] = -17;
  j["nested"] = nested;

  for (int indent : {-1, 0, 2}) {
    const Json back = Json::parse(j.dump(indent));
    EXPECT_EQ(back, j) << "indent=" << indent;
  }
}

TEST(Json, RoundTripPreservesDoublePrecision) {
  const double value = 0.1234567890123456789;
  const Json back = Json::parse(Json(value).dump());
  EXPECT_DOUBLE_EQ(back.as_number(), value);
}

TEST(Json, IntegersRenderWithoutExponent) {
  EXPECT_EQ(Json(1000000.0).dump(), "1000000");
  EXPECT_EQ(Json(-3).dump(), "-3");
}

TEST(Json, NonFiniteRendersAsNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(Json, StringEscapingInDump) {
  const Json j(std::string("a\"b\\c\nd"));
  EXPECT_EQ(j.dump(), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(Json::parse(j.dump()).as_string(), "a\"b\\c\nd");
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json::array().dump(), "[]");
  EXPECT_EQ(Json::object().dump(2), "{}");
}

TEST(Json, ObjectKeysAreSorted) {
  Json j = Json::object();
  j["zebra"] = 1;
  j["alpha"] = 2;
  const std::string dumped = j.dump();
  EXPECT_LT(dumped.find("alpha"), dumped.find("zebra"));
}

}  // namespace
}  // namespace a4nn::util
