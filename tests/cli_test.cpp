// cli::Options: the shared argv parser, and its range-checked integer
// options in particular. Every case goes through try_parse, the library
// form of the exit-2 diagnostic the drivers print.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "cli/options.hpp"

using namespace flashqos;

namespace {

/// try_parse over `args` (argv[0] is supplied); the diagnostic, or "" on
/// success.
std::string parse(cli::Options& opts, std::initializer_list<const char*> args) {
  std::vector<std::string> storage{"prog"};
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  return opts.try_parse(static_cast<int>(argv.size()), argv.data());
}

/// The numeric flags flashqosd registers, with the same ranges.
cli::Options daemon_options() {
  constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  cli::Options opts("flashqosd", "test");
  opts.integer("port", "N", "listen port", 0,
               std::numeric_limits<std::uint16_t>::max())
      .integer("dispatchers", "N", "dispatcher threads", 1, 1024)
      .integer("inflight", "N", "in-flight cap", 1, kU32Max)
      .integer("max-batch", "N", "largest submit batch", 1, kU32Max);
  return opts;
}

TEST(CliOptions, DaemonPortRejectsGarbageAndOutOfRange) {
  for (const char* bad : {"70000", "65536", "abc", "8080x", "-1", "+80", " 80",
                          "", "0x50", "18446744073709551616"}) {
    auto opts = daemon_options();
    const auto err = parse(opts, {"--port", bad});
    EXPECT_NE(err.find("--port"), std::string::npos) << "'" << bad << "': " << err;
    EXPECT_NE(err.find("[0, 65535]"), std::string::npos) << err;
  }
}

TEST(CliOptions, DaemonCountsRejectZero) {
  for (const char* flag : {"--dispatchers", "--inflight", "--max-batch"}) {
    auto opts = daemon_options();
    const auto err = parse(opts, {flag, "0"});
    EXPECT_NE(err.find(flag), std::string::npos) << err;
    EXPECT_NE(err.find("got '0'"), std::string::npos) << err;
  }
  auto opts = daemon_options();
  EXPECT_NE(parse(opts, {"--dispatchers=1025"}), "");
  auto wide = daemon_options();
  EXPECT_NE(parse(wide, {"--inflight", "4294967296"}), "");
}

TEST(CliOptions, DaemonAcceptsBoundsAndFallsBack) {
  auto opts = daemon_options();
  ASSERT_EQ(parse(opts, {"--port", "0", "--dispatchers=1024", "--inflight",
                         "4294967295"}),
            "");
  EXPECT_EQ(opts.get_u64("port", 7), 0u);
  EXPECT_EQ(opts.get_u64("dispatchers", 4), 1024u);
  EXPECT_EQ(opts.get_u64("inflight", 4096), 4294967295u);
  EXPECT_FALSE(opts.has("max-batch"));
  EXPECT_EQ(opts.get_u64("max-batch", 1024), 1024u);

  auto top = daemon_options();
  ASSERT_EQ(parse(top, {"--port=65535"}), "");
  EXPECT_EQ(top.get_u64("port", 0), 65535u);
}

TEST(CliOptions, UnboundedIntegerTakesTheFullRangeOnly) {
  cli::Options opts("prog", "test");
  opts.integer("seed", "S", "seed");
  ASSERT_EQ(parse(opts, {"--seed", "18446744073709551615"}), "");
  EXPECT_EQ(opts.get_u64("seed", 1), std::numeric_limits<std::uint64_t>::max());

  // strtoull would wrap "-1" to 2^64 - 1; a whole parse refuses the sign.
  cli::Options neg("prog", "test");
  neg.integer("seed", "S", "seed");
  EXPECT_NE(parse(neg, {"--seed", "-1"}), "");
  cli::Options over("prog", "test");
  over.integer("seed", "S", "seed");
  EXPECT_NE(parse(over, {"--seed", "18446744073709551616"}), "");
}

TEST(CliOptions, IntegerOptionsKeepTheValueContract) {
  cli::Options opts("prog", "test");
  opts.integer("n", "N", "count", 1, 9);
  EXPECT_NE(parse(opts, {"--n"}).find("needs a N"), std::string::npos);
  cli::Options twice("prog", "test");
  twice.integer("n", "N", "count", 1, 9);
  EXPECT_NE(parse(twice, {"--n", "1", "--n", "2"}).find("more than once"),
            std::string::npos);
}

}  // namespace
