#include "util/config.h"

#include "util/rng.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace olev::util {
namespace {

TEST(Trim, StripsWhitespace) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t x \n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("nochange"), "nochange");
}

TEST(Config, ParsesKeysAndSections) {
  const Config config = Config::parse(
      "top = 1\n"
      "[scenario]\n"
      "num_olevs = 50\n"
      "velocity_mph = 60.5\n"
      "pricing = nonlinear\n"
      "[game]\n"
      "record = true\n");
  EXPECT_EQ(config.get_int("", "top", 0), 1);
  EXPECT_EQ(config.get_int("scenario", "num_olevs", 0), 50);
  EXPECT_DOUBLE_EQ(config.get_double("scenario", "velocity_mph", 0.0), 60.5);
  EXPECT_EQ(config.get_string("scenario", "pricing", ""), "nonlinear");
  EXPECT_TRUE(config.get_bool("game", "record", false));
}

TEST(Config, CommentsAndBlanksIgnored) {
  const Config config = Config::parse(
      "# full line comment\n"
      "; also a comment\n"
      "\n"
      "key = value\n");
  EXPECT_EQ(config.get_string("", "key", ""), "value");
}

TEST(Config, WhitespaceAroundTokens) {
  const Config config = Config::parse("  [ sec ]  \n   spaced key  =  spaced value  \n");
  EXPECT_EQ(config.get_string("sec", "spaced key", ""), "spaced value");
}

TEST(Config, FallbacksForMissingKeys) {
  const Config config = Config::parse("a = 1\n");
  EXPECT_EQ(config.get_string("", "missing", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(config.get_double("", "missing", 2.5), 2.5);
  EXPECT_EQ(config.get_int("nope", "missing", -3), -3);
  EXPECT_TRUE(config.get_bool("", "missing", true));
  EXPECT_FALSE(config.has("", "missing"));
  EXPECT_TRUE(config.has("", "a"));
}

TEST(Config, TypeErrorsThrow) {
  const Config config = Config::parse("x = abc\ny = 1.5z\n");
  EXPECT_THROW(config.get_double("", "x", 0.0), std::runtime_error);
  EXPECT_THROW(config.get_int("", "x", 0), std::runtime_error);
  EXPECT_THROW(config.get_double("", "y", 0.0), std::runtime_error);
  EXPECT_THROW(config.get_bool("", "x", false), std::runtime_error);
}

TEST(Config, BoolSpellings) {
  const Config config = Config::parse(
      "a = true\nb = YES\nc = 1\nd = on\ne = False\nf = no\ng = 0\nh = OFF\n");
  for (const char* key : {"a", "b", "c", "d"}) {
    EXPECT_TRUE(config.get_bool("", key, false)) << key;
  }
  for (const char* key : {"e", "f", "g", "h"}) {
    EXPECT_FALSE(config.get_bool("", key, true)) << key;
  }
}

TEST(Config, MalformedInputThrowsWithLineNumber) {
  try {
    Config::parse("ok = 1\nnot a pair\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos);
  }
  EXPECT_THROW(Config::parse("[unterminated\n"), std::runtime_error);
  EXPECT_THROW(Config::parse("= novalue\n"), std::runtime_error);
}

TEST(Config, LastAssignmentWins) {
  const Config config = Config::parse("k = 1\nk = 2\n");
  EXPECT_EQ(config.get_int("", "k", 0), 2);
  EXPECT_EQ(config.keys("").size(), 1u);
}

TEST(Config, KeysAndSectionsEnumerable) {
  const Config config = Config::parse("[b]\nx = 1\ny = 2\n[a]\nz = 3\n");
  const auto keys = config.keys("b");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "x");
  EXPECT_EQ(keys[1], "y");
  const auto sections = config.sections();
  ASSERT_EQ(sections.size(), 2u);  // map order: "a", "b"
  EXPECT_EQ(sections[0], "a");
}

TEST(Config, SetOverridesAndInserts) {
  Config config;
  config.set("s", "k", "v1");
  config.set("s", "k", "v2");
  EXPECT_EQ(config.get_string("s", "k", ""), "v2");
}

TEST(Config, FuzzRandomTextNeverCrashes) {
  util::Rng rng(0xc0f1);
  const char alphabet[] = "ab=[]#;\n \t1.5xyz";
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text;
    const auto length = static_cast<std::size_t>(rng.uniform_int(0, 80));
    for (std::size_t i = 0; i < length; ++i) {
      text += alphabet[rng.uniform_int(0, sizeof(alphabet) - 2)];
    }
    try {
      const Config config = Config::parse(text);
      // Parsed configs must answer lookups without crashing.
      (void)config.get_string("a", "b", "");
      (void)config.sections();
    } catch (const std::runtime_error&) {
      // Malformed input is allowed to throw, never to crash.
    }
  }
  SUCCEED();
}

TEST(Config, LoadFromFile) {
  const std::string path = ::testing::TempDir() + "/olev_config_test.ini";
  {
    std::ofstream out(path);
    out << "[scenario]\nnum_olevs = 7\n";
  }
  const Config config = Config::load(path);
  EXPECT_EQ(config.get_int("scenario", "num_olevs", 0), 7);
  std::remove(path.c_str());
  EXPECT_THROW(Config::load("/nonexistent_dir_xyz/x.ini"), std::runtime_error);
}

TEST(ParseNumber, AcceptsOnlyAWholeNumberInRange) {
  EXPECT_EQ(parse_double("60.5"), 60.5);
  EXPECT_EQ(parse_double("1e-7"), 1e-7);
  EXPECT_FALSE(parse_double(""));
  EXPECT_FALSE(parse_double("1.5z"));
  EXPECT_FALSE(parse_double("abc"));
  EXPECT_FALSE(parse_double("1e999"));
  EXPECT_EQ(parse_int("-3"), -3);
  EXPECT_FALSE(parse_int("12abc"));
  EXPECT_FALSE(parse_int("99999999999999999999"));
}

TEST(ParseNumber, UnsignedRejectsSignsExponentsAndValuesPastItsBound) {
  EXPECT_EQ(parse_uint("64"), 64u);
  EXPECT_FALSE(parse_uint("1e6"));  // strtoull alone stops at 'e': 1
  EXPECT_FALSE(parse_uint("abc"));  // strtoull alone gives 0
  EXPECT_FALSE(parse_uint("-1"));   // strtoull alone wraps it to 2^64 - 1
  EXPECT_FALSE(parse_uint("+5"));
  EXPECT_FALSE(parse_uint(" 5"));
  EXPECT_FALSE(parse_uint(""));
  EXPECT_FALSE(parse_uint("18446744073709551616"));  // 2^64
  EXPECT_EQ(parse_uint("65535", UINT16_MAX), 65535u);
  EXPECT_FALSE(parse_uint("70000", UINT16_MAX));  // 4464 once cast to 16 bits
}

TEST(ParseNumber, HexAcceptsAnOptionalPrefix) {
  EXPECT_EQ(parse_uint("0x1f", UINT64_MAX, 16), 0x1fu);
  EXPECT_EQ(parse_uint("1F", UINT64_MAX, 16), 0x1fu);
  EXPECT_EQ(parse_uint("0xffffffffffffffff", UINT64_MAX, 16), UINT64_MAX);
  EXPECT_FALSE(parse_uint("xyz", UINT64_MAX, 16));
  EXPECT_FALSE(parse_uint("0x", UINT64_MAX, 16));
}

}  // namespace
}  // namespace olev::util
