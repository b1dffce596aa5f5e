#include "util/args.hpp"

#include <gtest/gtest.h>

namespace a4nn::util {
namespace {

ArgParser make_parser() {
  ArgParser args("prog", "test program");
  args.add_option("population", "10", "population size");
  args.add_option("rate", "0.5", "a rate");
  args.add_flag("verbose", "enable logging");
  return args;
}

void parse(ArgParser& args, std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  args.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, DefaultsApply) {
  ArgParser args = make_parser();
  parse(args, {});
  EXPECT_EQ(args.get("population"), "10");
  EXPECT_DOUBLE_EQ(args.get_double("rate"), 0.5);
  EXPECT_FALSE(args.get_flag("verbose"));
}

TEST(ArgParser, SpaceAndEqualsForms) {
  ArgParser args = make_parser();
  parse(args, {"--population", "25", "--rate=0.75"});
  EXPECT_EQ(args.get_size("population"), 25u);
  EXPECT_DOUBLE_EQ(args.get_double("rate"), 0.75);
}

TEST(ArgParser, FlagsAndPositionals) {
  ArgParser args = make_parser();
  parse(args, {"--verbose", "input.json", "more"});
  EXPECT_TRUE(args.get_flag("verbose"));
  EXPECT_EQ(args.positional(),
            (std::vector<std::string>{"input.json", "more"}));
}

TEST(ArgParser, HelpRequested) {
  ArgParser args = make_parser();
  parse(args, {"--help"});
  EXPECT_TRUE(args.help_requested());
  const std::string usage = args.usage();
  EXPECT_NE(usage.find("--population"), std::string::npos);
  EXPECT_NE(usage.find("default: 10"), std::string::npos);
}

TEST(ArgParser, Errors) {
  {
    ArgParser args = make_parser();
    EXPECT_THROW(parse(args, {"--unknown", "x"}), ArgError);
  }
  {
    ArgParser args = make_parser();
    EXPECT_THROW(parse(args, {"--population"}), ArgError);  // missing value
  }
  {
    ArgParser args = make_parser();
    EXPECT_THROW(parse(args, {"--verbose=yes"}), ArgError);  // flag w/ value
  }
  {
    ArgParser args = make_parser();
    parse(args, {"--population", "abc"});
    EXPECT_THROW(args.get_size("population"), ArgError);
  }
  {
    ArgParser args = make_parser();
    EXPECT_THROW(args.add_option("rate", "1", "dup"), ArgError);
    EXPECT_THROW(args.get("undeclared"), ArgError);
  }
}

TEST(ArgParser, NegativeSizeRejected) {
  ArgParser args = make_parser();
  parse(args, {"--population", "-3"});
  EXPECT_THROW(args.get_size("population"), ArgError);
  EXPECT_DOUBLE_EQ(args.get_double("population"), -3.0);
}

TEST(ArgParser, SizeIsAnExactUnsignedInteger) {
  // Anything but a plain decimal integer that fits size_t is an error,
  // never a truncation.
  for (const char* bad : {"2.5", "-0", "nan", "inf", "1e30", "1e3", "+4",
                          " 4", "4 ", "", "0x10",
                          "18446744073709551616",  // 2^64
                          "99999999999999999999999"}) {
    ArgParser args = make_parser();
    parse(args, {"--population", bad});
    EXPECT_THROW(args.get_size("population"), ArgError) << "'" << bad << "'";
  }
  ArgParser args = make_parser();
  // Above 2^53, where a double round trip would lose the low bits.
  parse(args, {"--population", "18446744073709551615"});
  EXPECT_EQ(args.get_size("population"), 18446744073709551615u);
  parse(args, {"--population", "9007199254740993"});
  EXPECT_EQ(args.get_size("population"), 9007199254740993u);
  parse(args, {"--population", "007"});
  EXPECT_EQ(args.get_size("population"), 7u);
}

TEST(ArgParser, EndpointParsesHostAndPort) {
  ArgParser args("prog", "test program");
  args.add_option("listen", "127.0.0.1:0", "address");
  parse(args, {});
  EXPECT_EQ(args.get_endpoint("listen").host, "127.0.0.1");
  EXPECT_EQ(args.get_endpoint("listen").port, 0u);
  parse(args, {"--listen", "node-7.example:65535"});
  EXPECT_EQ(args.get_endpoint("listen").host, "node-7.example");
  EXPECT_EQ(args.get_endpoint("listen").port, 65535u);
  // Ports that a uint16_t cast would wrap, and malformed addresses.
  for (const char* bad : {"127.0.0.1:65536", "127.0.0.1:70000",
                          "127.0.0.1:4294967297", "127.0.0.1:-1",
                          "127.0.0.1:80x", "127.0.0.1:", ":7501", "7501",
                          "127.0.0.1", ""}) {
    parse(args, {"--listen", bad});
    EXPECT_THROW(args.get_endpoint("listen"), ArgError) << "'" << bad << "'";
  }
}

TEST(ArgParser, LastOccurrenceWins) {
  ArgParser args = make_parser();
  parse(args, {"--population", "5", "--population", "9"});
  EXPECT_EQ(args.get_size("population"), 9u);
}

}  // namespace
}  // namespace a4nn::util
