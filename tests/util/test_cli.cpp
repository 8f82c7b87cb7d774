// CLI parsing for radio_bench and the example binaries.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.hpp"

namespace radio {
namespace {

CliArgs parse(std::vector<const char*> argv,
              std::initializer_list<std::string_view> switches = {}) {
  argv.insert(argv.begin(), "prog");
  return CliArgs(static_cast<int>(argv.size()), argv.data(), switches);
}

TEST(Cli, EqualsSyntax) {
  const CliArgs args = parse({"--n=42", "--p=0.5"});
  EXPECT_EQ(args.get_int("n", 0), 42);
  EXPECT_DOUBLE_EQ(args.get_double("p", 0.0), 0.5);
}

TEST(Cli, SpaceSyntax) {
  const CliArgs args = parse({"--n", "7"});
  EXPECT_EQ(args.get_int("n", 0), 7);
}

TEST(Cli, BareFlagIsTrue) {
  // Only a declared switch may stand without a value.
  const CliArgs args = parse({"--verbose"}, {"verbose"});
  EXPECT_TRUE(args.get_bool("verbose", false));
}

TEST(Cli, BareNonSwitchFlagIsAnError) {
  // A value-taking flag with its value missing used to read as "true".
  try {
    (void)parse({"--out"});
    FAIL() << "a bare --out should be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("--out"), std::string::npos);
  }
  EXPECT_THROW((void)parse({"--out", "--all"}, {"all"}), std::runtime_error);
  EXPECT_THROW((void)parse({"--all", "--out"}, {"all"}), std::runtime_error);
}

TEST(Cli, SwitchesNeverSwallowTheNextToken) {
  const CliArgs args =
      parse({"E3", "--all", "E7", "--trials", "4", "e9"}, {"all"});
  EXPECT_TRUE(args.get_bool("all", false));
  EXPECT_EQ(args.get_int("trials", 0), 4);
  EXPECT_EQ(args.positionals(),
            (std::vector<std::string>{"E3", "E7", "e9"}));
  EXPECT_NO_THROW(args.validate());
}

TEST(Cli, FallbacksWhenMissing) {
  const CliArgs args = parse({});
  EXPECT_EQ(args.get_int("n", 123), 123);
  EXPECT_EQ(args.get_uint("m", 9u), 9u);
  EXPECT_DOUBLE_EQ(args.get_double("p", 0.25), 0.25);
  EXPECT_EQ(args.get_string("s", "dft"), "dft");
  EXPECT_FALSE(args.get_bool("b", false));
}

TEST(Cli, BoolValueForms) {
  const CliArgs args = parse({"--a=true", "--b=1", "--c=yes", "--d=false"});
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_TRUE(args.get_bool("b", false));
  EXPECT_TRUE(args.get_bool("c", false));
  EXPECT_FALSE(args.get_bool("d", true));
}

TEST(Cli, HasReportsPresence) {
  const CliArgs args = parse({"--x=1"});
  EXPECT_TRUE(args.has("x"));
  EXPECT_FALSE(args.has("y"));
}

TEST(Cli, NonFlagArgumentThrows) {
  // The examples read no positionals, so validate() rejects a stray one.
  const CliArgs args = parse({"--n=3", "positional"});
  (void)args.get_int("n", 0);
  EXPECT_THROW(args.validate(), std::runtime_error);
}

TEST(Cli, ValidateRejectsUnknownFlags) {
  const CliArgs args = parse({"--known=1", "--typo=2"});
  (void)args.get_int("known", 0);
  EXPECT_THROW(args.validate(), std::runtime_error);
}

TEST(Cli, ValidatePassesWhenAllConsumed) {
  const CliArgs args = parse({"--a=1", "--b=2"});
  (void)args.get_int("a", 0);
  (void)args.get_int("b", 0);
  EXPECT_NO_THROW(args.validate());
}

TEST(Cli, NegativeNumberAsSeparateValue) {
  const CliArgs args = parse({"--delta", "-5"});
  EXPECT_EQ(args.get_int("delta", 0), -5);
}

TEST(Cli, MalformedIntIsAUsageErrorNotACrash) {
  const CliArgs args = parse({"--n=abc"});
  try {
    (void)args.get_int("n", 0);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    // The diagnostic names the flag and the offending text.
    EXPECT_NE(std::string(e.what()).find("--n"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'abc'"), std::string::npos);
  }
}

TEST(Cli, MalformedUintRejectsNegativeAndPartialTokens) {
  EXPECT_THROW((void)parse({"--n=-3"}).get_uint("n", 0), std::runtime_error);
  EXPECT_THROW((void)parse({"--n=12kb"}).get_uint("n", 0),
               std::runtime_error);
  EXPECT_THROW((void)parse({"--n=99999999999999999999"}).get_uint("n", 0),
               std::runtime_error);
}

TEST(Cli, MalformedDoubleRejectsGarbageAndNonFinite) {
  EXPECT_THROW((void)parse({"--p=zero"}).get_double("p", 0.0),
               std::runtime_error);
  EXPECT_THROW((void)parse({"--p=nan"}).get_double("p", 0.0),
               std::runtime_error);
  EXPECT_THROW((void)parse({"--p=1e999"}).get_double("p", 0.0),
               std::runtime_error);
}

TEST(Cli, RangeCheckedGettersNameTheFlag) {
  EXPECT_EQ(parse({"--n=10"}).get_int("n", 0, 1, 10), 10);
  EXPECT_THROW((void)parse({"--n=11"}).get_int("n", 0, 1, 10),
               std::runtime_error);
  EXPECT_DOUBLE_EQ(parse({"--p=0.5"}).get_double("p", 0.0, 0.0, 1.0), 0.5);
  try {
    (void)parse({"--p=1.5"}).get_double("p", 0.0, 0.0, 1.0);
    FAIL() << "--p=1.5 is outside [0, 1]";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("--p"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'1.5'"), std::string::npos);
  }
  // The fallback is the caller's own value and is not range-checked.
  EXPECT_EQ(parse({}).get_int("n", 0, 1, 10), 0);
}

TEST(Cli, MalformedBoolIsAnErrorNotFalse) {
  EXPECT_THROW((void)parse({"--flag=maybe"}).get_bool("flag", false),
               std::runtime_error);
  EXPECT_TRUE(parse({"--flag=on"}).get_bool("flag", false));
  EXPECT_FALSE(parse({"--flag=off"}).get_bool("flag", true));
}

}  // namespace
}  // namespace radio
