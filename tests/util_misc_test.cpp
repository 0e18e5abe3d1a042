// Tests for util/table.hpp, util/cli.hpp, util/env.hpp, util/buffer.hpp.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/buffer.hpp"
#include "util/cli.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

namespace {

using gee::util::ArgParser;
using gee::util::TextTable;
using gee::util::UninitBuffer;

// ---------------------------------------------------------------- TextTable

TEST(TextTable, AlignsColumns) {
  TextTable t("demo");
  t.set_header({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "23"});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("== demo =="), std::string::npos);
  EXPECT_NE(text.find("name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(text.find("----"), std::string::npos);
  // Both rows present, one line each.
  EXPECT_NE(text.find("longer  23"), std::string::npos);
}

TEST(TextTable, IncrementalRowsAndFormats) {
  TextTable t;
  t.set_header({"a", "b", "c", "d"});
  t.begin_row();
  t.cell("s");
  t.cell(3.14159, 3);
  t.cell(std::size_t{42});
  t.cell(-7);
  ASSERT_EQ(t.num_rows(), 1u);
  const auto& row = t.row(0);
  EXPECT_EQ(row[0], "s");
  EXPECT_EQ(row[1], "3.14");
  EXPECT_EQ(row[2], "42");
  EXPECT_EQ(row[3], "-7");
}

TEST(TextTable, CsvEscapesSpecials) {
  TextTable t;
  t.set_header({"k"});
  t.add_row({"has,comma"});
  t.add_row({"has\"quote"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(TextTable, WriteCsvRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "gee_table_test.csv";
  TextTable t;
  t.set_header({"x", "y"});
  t.add_row({"1", "2"});
  ASSERT_TRUE(t.write_csv(path.string()));
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_EQ(ss.str(), "x,y\n1,2\n");
  std::filesystem::remove(path);
}

TEST(TextTable, MissingTrailingCellsRenderEmpty) {
  TextTable t;
  t.set_header({"a", "b", "c"});
  t.add_row({"only"});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("only"), std::string::npos);
}

TEST(FormatCount, HumanReadable) {
  EXPECT_EQ(gee::util::format_count(999), "999");
  EXPECT_EQ(gee::util::format_count(6'800'000), "6.80M");
  EXPECT_EQ(gee::util::format_count(1'800'000'000), "1.80B");
  EXPECT_EQ(gee::util::format_count(168'000), "168.0K");
}

// ---------------------------------------------------------------- ArgParser

ArgParser make_parser() {
  ArgParser p("prog", "test program");
  p.add_option("nodes", "node count", "100");
  p.add_option("name", "a name");
  p.add_flag("verbose", "chatty");
  return p;
}

TEST(ArgParser, DefaultsApply) {
  auto p = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_EQ(p.get_int("nodes"), 100);
  EXPECT_FALSE(p.get_flag("verbose"));
  EXPECT_EQ(p.get("name"), "");
}

TEST(ArgParser, SpaceSeparatedValue) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--nodes", "500"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_EQ(p.get_int("nodes"), 500);
}

TEST(ArgParser, EqualsValue) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--nodes=7", "--verbose"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_EQ(p.get_int("nodes"), 7);
  EXPECT_TRUE(p.get_flag("verbose"));
}

TEST(ArgParser, RejectsUnknownOption) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_FALSE(p.parse(3, argv));
}

TEST(ArgParser, RejectsPositional) {
  auto p = make_parser();
  const char* argv[] = {"prog", "positional"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(ArgParser, RejectsMissingValue) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--nodes"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(ArgParser, RejectsValueOnFlag) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--verbose=1"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(ArgParser, HelpReturnsFalse) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(ArgParser, UsageListsOptions) {
  auto p = make_parser();
  const std::string u = p.usage();
  EXPECT_NE(u.find("--nodes"), std::string::npos);
  EXPECT_NE(u.find("default: 100"), std::string::npos);
  EXPECT_NE(u.find("--verbose"), std::string::npos);
}

// ------------------------------------------------------------ backend names

TEST(ParseBackend, RoundTripsEveryBackend) {
  for (const gee::core::Backend backend : gee::core::kAllBackends) {
    const std::string name = gee::core::to_string(backend);
    const auto parsed = gee::util::parse_backend(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, backend) << name;
  }
}

TEST(ParseBackend, RejectsRemovedAndUnknownNames) {
  EXPECT_EQ(gee::util::parse_backend("partitioned"),
            gee::core::Backend::kPartitioned);
  // No Backend is named "replicated" (shard::ShardMode::kReplicated is a
  // placement mode, not an edge-pass backend).
  EXPECT_FALSE(gee::util::parse_backend("replicated").has_value());
  EXPECT_FALSE(gee::util::parse_backend("no-such-backend").has_value());
}

TEST(ParseBackend, ChoicesListEveryName) {
  const std::string choices = gee::util::backend_choices();
  for (const gee::core::Backend backend : gee::core::kAllBackends) {
    EXPECT_NE(choices.find(gee::core::to_string(backend)), std::string::npos);
  }
}

// ----------------------------------------------------- update-strategy names

TEST(ParseUpdateStrategy, RoundTripsEveryStrategy) {
  for (const gee::core::UpdateStrategy s : gee::core::kAllUpdateStrategies) {
    const std::string name = gee::core::to_string(s);
    const auto parsed = gee::util::parse_update_strategy(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, s) << name;
  }
}

TEST(ParseUpdateStrategy, NamesAreStable) {
  // The names are a CLI contract (EXPERIMENTS.md invocations, CI smoke
  // runs); renaming one is a breaking change, not a refactor.
  EXPECT_EQ(gee::util::parse_update_strategy("serial"),
            gee::core::UpdateStrategy::kSerial);
  EXPECT_EQ(gee::util::parse_update_strategy("delta"),
            gee::core::UpdateStrategy::kDelta);
  EXPECT_EQ(gee::util::parse_update_strategy("khop"),
            gee::core::UpdateStrategy::kKHop);
  EXPECT_EQ(gee::util::parse_update_strategy("auto"),
            gee::core::UpdateStrategy::kAuto);
  EXPECT_FALSE(gee::util::parse_update_strategy("no-such-strategy")
                   .has_value());
}

TEST(ParseUpdateStrategy, ChoicesListEveryName) {
  const std::string choices = gee::util::update_strategy_choices();
  for (const gee::core::UpdateStrategy s : gee::core::kAllUpdateStrategies) {
    EXPECT_NE(choices.find(gee::core::to_string(s)), std::string::npos);
  }
}

TEST(ParseShardCount, RoundTripsEveryLegalValue) {
  for (const int s : {1, 2, 7, 100, 256}) {
    const auto parsed = gee::util::parse_shard_count(std::to_string(s));
    ASSERT_TRUE(parsed.has_value()) << s;
    EXPECT_EQ(*parsed, s);
  }
}

TEST(ParseShardCount, RejectsOutOfRangeAndJunk) {
  EXPECT_FALSE(gee::util::parse_shard_count("0").has_value());
  EXPECT_FALSE(gee::util::parse_shard_count("-3").has_value());
  EXPECT_FALSE(gee::util::parse_shard_count("257").has_value());
  EXPECT_FALSE(gee::util::parse_shard_count("").has_value());
  EXPECT_FALSE(gee::util::parse_shard_count("4x").has_value());
  EXPECT_FALSE(gee::util::parse_shard_count("1e2").has_value());
  EXPECT_FALSE(gee::util::parse_shard_count("four").has_value());
  // Caller-supplied bound replaces the default.
  EXPECT_EQ(gee::util::parse_shard_count("8", 8), 8);
  EXPECT_FALSE(gee::util::parse_shard_count("9", 8).has_value());
}

TEST(ParseArrivalRate, RoundTripsFormats) {
  EXPECT_EQ(gee::util::parse_arrival_rate("1500"), 1500.0);
  EXPECT_EQ(gee::util::parse_arrival_rate("2.5e3"), 2500.0);
  EXPECT_EQ(gee::util::parse_arrival_rate("0.25"), 0.25);
}

TEST(ParseArrivalRate, RejectsNonPositiveAndJunk) {
  EXPECT_FALSE(gee::util::parse_arrival_rate("0").has_value());
  EXPECT_FALSE(gee::util::parse_arrival_rate("-5").has_value());
  EXPECT_FALSE(gee::util::parse_arrival_rate("").has_value());
  EXPECT_FALSE(gee::util::parse_arrival_rate("fast").has_value());
  EXPECT_FALSE(gee::util::parse_arrival_rate("10qps").has_value());
  EXPECT_FALSE(gee::util::parse_arrival_rate("inf").has_value());
  EXPECT_FALSE(gee::util::parse_arrival_rate("nan").has_value());
}

TEST(ParseSocketPath, AcceptsPathsSunPathCanHold) {
  EXPECT_EQ(gee::util::parse_socket_path("/tmp/gee.sock"), "/tmp/gee.sock");
  // 107 bytes is the Linux sockaddr_un limit minus the NUL: exactly at the
  // boundary passes, one past fails.
  const std::string at_limit(107, 'a');
  EXPECT_EQ(gee::util::parse_socket_path(at_limit), at_limit);
  EXPECT_FALSE(gee::util::parse_socket_path(at_limit + "a").has_value());
  EXPECT_FALSE(gee::util::parse_socket_path("").has_value());
}

// ---------------------------------------------------------------------- env

TEST(Env, StringUnsetAndSet) {
  ::unsetenv("GEE_TEST_VAR");
  EXPECT_FALSE(gee::util::env_string("GEE_TEST_VAR").has_value());
  ::setenv("GEE_TEST_VAR", "hello", 1);
  EXPECT_EQ(gee::util::env_string("GEE_TEST_VAR").value(), "hello");
  ::unsetenv("GEE_TEST_VAR");
}

TEST(Env, IntParsing) {
  ::setenv("GEE_TEST_INT", "123", 1);
  EXPECT_EQ(gee::util::env_or("GEE_TEST_INT", std::int64_t{0}), 123);
  ::setenv("GEE_TEST_INT", "12x", 1);
  EXPECT_EQ(gee::util::env_or("GEE_TEST_INT", std::int64_t{9}), 9);
  ::unsetenv("GEE_TEST_INT");
  EXPECT_EQ(gee::util::env_or("GEE_TEST_INT", std::int64_t{5}), 5);
}

TEST(Env, DoubleParsing) {
  ::setenv("GEE_TEST_DBL", "0.25", 1);
  EXPECT_DOUBLE_EQ(gee::util::env_or("GEE_TEST_DBL", 0.0), 0.25);
  ::unsetenv("GEE_TEST_DBL");
}

TEST(Env, BoolParsing) {
  for (const char* v : {"1", "true", "YES", "On"}) {
    ::setenv("GEE_TEST_BOOL", v, 1);
    EXPECT_TRUE(gee::util::env_or("GEE_TEST_BOOL", false)) << v;
  }
  for (const char* v : {"0", "false", "no", "OFF"}) {
    ::setenv("GEE_TEST_BOOL", v, 1);
    EXPECT_FALSE(gee::util::env_or("GEE_TEST_BOOL", true)) << v;
  }
  ::setenv("GEE_TEST_BOOL", "maybe", 1);
  EXPECT_TRUE(gee::util::env_or("GEE_TEST_BOOL", true));
  ::unsetenv("GEE_TEST_BOOL");
}

// ------------------------------------------------------------- UninitBuffer

TEST(UninitBuffer, AllocatesAligned) {
  UninitBuffer<double> b(1000);
  EXPECT_EQ(b.size(), 1000u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) %
                gee::util::kCacheLineBytes,
            0u);
}

TEST(UninitBuffer, WritableAndReadable) {
  UninitBuffer<int> b(64);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<int>(i * 2);
  for (std::size_t i = 0; i < b.size(); ++i)
    ASSERT_EQ(b[i], static_cast<int>(i * 2));
}

TEST(UninitBuffer, MoveTransfersOwnership) {
  UninitBuffer<int> a(10);
  a[0] = 42;
  int* p = a.data();
  UninitBuffer<int> b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b[0], 42);
  EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move): spec check
  EXPECT_EQ(a.size(), 0u);
}

TEST(UninitBuffer, ResetReallocates) {
  UninitBuffer<int> b(4);
  b.reset(8);
  EXPECT_EQ(b.size(), 8u);
  b.reset(0);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.data(), nullptr);
}

TEST(UninitBuffer, SpanCoversBuffer) {
  UninitBuffer<int> b(5);
  auto s = b.span();
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s.data(), b.data());
}

}  // namespace
