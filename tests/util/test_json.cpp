// Json writer output. The bench manifests and metrics streams depend on
// exact integers (64-bit seeds) and insertion-ordered objects (stable
// diffs); scripts/bench_report.py --check parses what radio_bench writes.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "util/json.hpp"

namespace radio {
namespace {

TEST(Json, DumpsPrimitives) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(std::int64_t{-7}).dump(), "-7");
  EXPECT_EQ(Json(1.5).dump(), "1.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, DumpsUint64Exactly) {
  const std::uint64_t big = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(Json(big).dump(), "18446744073709551615");
}

TEST(Json, EscapesStrings) {
  EXPECT_EQ(Json("a\"b\\c\n\t").dump(), "\"a\\\"b\\\\c\\n\\t\"");
  EXPECT_EQ(Json(std::string(1, '\x01')).dump(), "\"\\u0001\"");
  // Non-ASCII UTF-8 passes through unescaped.
  EXPECT_EQ(Json("Erdős").dump(), "\"Erdős\"");
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
}

TEST(Json, ObjectsPreserveInsertionOrderAndOverwrite) {
  Json obj = Json::object();
  obj.set("z", 1);
  obj.set("a", 2);
  obj.set("z", 3);  // overwrite keeps position
  EXPECT_EQ(obj.dump(), "{\"z\":3,\"a\":2}");
}

TEST(Json, ArraysNest) {
  Json arr = Json::array();
  arr.push_back(1);
  Json inner = Json::object();
  inner.set("k", "v");
  arr.push_back(std::move(inner));
  EXPECT_EQ(arr.dump(), "[1,{\"k\":\"v\"}]");
}

TEST(Json, PrettyPrint) {
  Json obj = Json::object();
  obj.set("a", 1);
  Json arr = Json::array();
  arr.push_back(2);
  obj.set("b", std::move(arr));
  EXPECT_EQ(obj.dump(2), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
  EXPECT_EQ(Json::object().dump(2), "{}");
}

TEST(JsonDeathTest, ContainerMismatchesAbort) {
  Json arr = Json::array();
  arr.push_back(1);
  EXPECT_DEATH(arr.set("k", 1), "precondition");
  EXPECT_DEATH(Json(1).push_back(2), "precondition");
  EXPECT_DEATH(Json::object().push_back(2), "precondition");
}

}  // namespace
}  // namespace radio
