#include "obs/strings.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace olev::obs {
namespace {

TEST(JsonEscape, PassThroughAndSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonEscape, NonAsciiAndMalformedBytesStayParseable) {
  // UTF-8 becomes \uXXXX escapes and malformed bytes become U+FFFD, so
  // scenario labels with accents or stray bytes can never corrupt an
  // exported trace.
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\\u00e9");
  EXPECT_EQ(json_escape(std::string(1, '\x7f')), "\\u007f");
  EXPECT_EQ(json_escape(std::string(1, '\x80')), "\\ufffd");
}

TEST(JsonWriter, EmptyContainers) {
  {
    JsonWriter json;
    json.begin_object().end_object();
    EXPECT_EQ(json.str(), "{}");
  }
  {
    JsonWriter json;
    json.begin_array().end_array();
    EXPECT_EQ(json.str(), "[]");
  }
}

TEST(JsonWriter, FlatObject) {
  JsonWriter json;
  json.begin_object();
  json.key("a").value(std::int64_t{1});
  json.key("b").value(2.5);
  json.key("c").value(true);
  json.key("d").value("text");
  json.key("e").null();
  json.end_object();
  EXPECT_EQ(json.str(), R"({"a":1,"b":2.5,"c":true,"d":"text","e":null})");
}

TEST(JsonWriter, ArraysAndNesting) {
  JsonWriter json;
  json.begin_object();
  json.key("xs").value(std::vector<double>{1.0, 2.0, 3.0});
  json.key("nested").begin_object();
  json.key("inner").begin_array();
  json.value(std::int64_t{1});
  json.begin_object().key("k").value("v").end_object();
  json.end_array();
  json.end_object();
  json.end_object();
  EXPECT_EQ(json.str(),
            R"({"xs":[1,2,3],"nested":{"inner":[1,{"k":"v"}]}})");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter json;
  json.begin_array();
  json.value(std::numeric_limits<double>::quiet_NaN());
  json.value(std::numeric_limits<double>::infinity());
  json.value(1.5);
  json.end_array();
  EXPECT_EQ(json.str(), "[null,null,1.5]");
}

TEST(JsonWriter, StringEscapingInValuesAndKeys) {
  JsonWriter json;
  json.begin_object();
  json.key("quo\"te").value("va\\lue");
  json.end_object();
  EXPECT_EQ(json.str(), R"({"quo\"te":"va\\lue"})");
}

TEST(JsonWriter, TopLevelArrayOfObjects) {
  JsonWriter json;
  json.begin_array();
  for (int i = 0; i < 2; ++i) {
    json.begin_object().key("i").value(static_cast<std::int64_t>(i)).end_object();
  }
  json.end_array();
  EXPECT_EQ(json.str(), R"([{"i":0},{"i":1}])");
}

}  // namespace
}  // namespace olev::obs
