// Self-tests for flashqos_lint (src/lint): one violating fixture snippet
// per rule, the allow-comment escape for each, and the lexer corners that
// make exact-token linting trustworthy (comments, strings, raw strings,
// digit separators, substring traps).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>

#include "lint/lint.hpp"

namespace flashqos::lint {
namespace {

[[nodiscard]] bool has_rule(const std::vector<Finding>& fs,
                            std::string_view rule) {
  return std::any_of(fs.begin(), fs.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

[[nodiscard]] std::size_t count_rule(const std::vector<Finding>& fs,
                                     std::string_view rule) {
  return static_cast<std::size_t>(std::count_if(
      fs.begin(), fs.end(), [&](const Finding& f) { return f.rule == rule; }));
}

// ---------------------------------------------------------------------------
// One violating fixture per rule.

TEST(LintRules, FlagsAdhocLogging) {
  const auto fs = lint_file("core/foo.cpp",
                            "#include <cstdio>\n"
                            "void f() { std::printf(\"x\"); }\n");
  ASSERT_TRUE(has_rule(fs, "adhoc-logging"));
  EXPECT_EQ(fs.front().line, 2u);
}

TEST(LintRules, AdhocLoggingSanctionedSurfacesExempt) {
  const std::string body = "void f() { std::printf(\"x\"); }\n";
  EXPECT_FALSE(has_rule(lint_file("util/table.cpp", body), "adhoc-logging"));
  EXPECT_FALSE(has_rule(lint_file("obs/export.cpp", body), "adhoc-logging"));
  EXPECT_FALSE(has_rule(lint_file("verify/main.cpp", body), "adhoc-logging"));
  EXPECT_TRUE(has_rule(lint_file("core/pipeline.cpp", body), "adhoc-logging"));
}

TEST(LintRules, FlagsHotPathAllocOnlyInHotPaths) {
  const std::string body = "void f(std::vector<int>& v) { v.push_back(1); }\n";
  EXPECT_TRUE(has_rule(lint_file("retrieval/maxflow.cpp", body),
                       "hot-path-alloc"));
  EXPECT_TRUE(has_rule(lint_file("core/sampler.cpp", body), "hot-path-alloc"));
  // Outside the declared zero-alloc scopes the rule is silent.
  EXPECT_FALSE(has_rule(lint_file("core/pipeline.cpp", body),
                        "hot-path-alloc"));
  EXPECT_FALSE(has_rule(lint_file("fim/apriori.cpp", body), "hot-path-alloc"));
}

TEST(LintRules, FlagsRawRandomness) {
  const auto fs = lint_file(
      "design/search.cpp", "int f() { std::random_device rd; return rand(); }\n");
  EXPECT_EQ(count_rule(fs, "raw-random"), 2u);
}

TEST(LintRules, FlagsWallClockAndSleep) {
  const auto fs = lint_file(
      "core/replay.cpp",
      "void f() {\n"
      "  auto t = std::chrono::steady_clock::now();\n"
      "  std::this_thread::sleep_for(std::chrono::seconds(1));\n"
      "  (void)t;\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "wall-clock"), 2u);
}

TEST(LintRules, FlagsBlockingIoWaits) {
  // poll/select/epoll_wait are wall-clock waits too (the HTTP exporter's
  // annotated call sites are the only sanctioned users).
  const auto fs = lint_file(
      "core/server.cpp",
      "int f(pollfd* p, fd_set* r, int ep) {\n"
      "  int a = poll(p, 1, 100);\n"
      "  int b = select(1, r, nullptr, nullptr, nullptr);\n"
      "  int c = epoll_wait(ep, nullptr, 0, 100);\n"
      "  return a + b + c;\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "wall-clock"), 3u);
}

TEST(LintRules, AcceptIsNotAWallClockWord) {
  // `accept` collides with the admission API's vocabulary and must stay
  // off the wall-clock list.
  const auto fs = lint_file(
      "core/admission.cpp",
      "std::uint64_t f(Stat& s) { return s.accept(0, 1); }\n");
  EXPECT_FALSE(has_rule(fs, "wall-clock"));
}

TEST(LintRules, FlagsThreadSpawnInTheReplayEngine) {
  const std::string body =
      "#include <thread>\n"
      "void f() {\n"
      "  std::thread t([] {});\n"
      "  std::jthread j([] {});\n"
      "  auto r = std::async([] { return 1; });\n"
      "  thread_local int n = 0;\n"
      "  std::this_thread::yield();\n"
      "}\n";
  const auto fs = lint_file("core/qos_pipeline.cpp", body);
  // <thread>, thread, jthread, async; thread_local and this_thread are
  // other identifiers.
  EXPECT_EQ(count_rule(fs, "thread-spawn"), 4u);
  EXPECT_TRUE(has_rule(lint_file("util/pool.hpp", body), "thread-spawn"));
  // The serving stack starts threads by design.
  EXPECT_FALSE(has_rule(lint_file("net/server.cpp", body), "thread-spawn"));
  EXPECT_FALSE(has_rule(lint_file("service/pipeline_service.cpp", body),
                        "thread-spawn"));
}

TEST(LintAllow, ThreadSpawnAllowComment) {
  const auto fs = lint_file(
      "trace/reader.cpp",
      "// flashqos-lint: allow(thread-spawn): joined before the replay starts\n"
      "void f() { std::thread t([] {}); t.join(); }\n"
      "void g() { std::thread t([] {}); t.join(); }\n");
  ASSERT_EQ(count_rule(fs, "thread-spawn"), 1u);
  EXPECT_EQ(fs.front().line, 3u);
}

TEST(LintAllow, BlockingWaitAllowedOnPreviousLine) {
  const auto fs = lint_file(
      "obs/server.cpp",
      "int f(pollfd* p) {\n"
      "  // flashqos-lint: allow(wall-clock): bounded monitoring-plane wait\n"
      "  return poll(p, 1, 100);\n"
      "}\n");
  EXPECT_FALSE(has_rule(fs, "wall-clock"));
}

TEST(LintRules, FlagsIncludeHygiene) {
  // Header without #pragma once as its first directive.
  EXPECT_TRUE(has_rule(lint_file("core/a.hpp", "#include <vector>\n"),
                       "include-hygiene"));
  // Quoted include that is not repo-rooted.
  EXPECT_TRUE(has_rule(lint_file("core/b.cpp", "#include \"maxflow.hpp\"\n"),
                       "include-hygiene"));
  // Duplicate include.
  EXPECT_TRUE(has_rule(lint_file("core/c.cpp",
                                 "#include <vector>\n#include <vector>\n"),
                       "include-hygiene"));
  // The clean shape of all three.
  EXPECT_TRUE(lint_file("core/d.hpp",
                        "#pragma once\n"
                        "#include <vector>\n"
                        "#include \"retrieval/maxflow.hpp\"\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// The allow-comment escape hatch, same line and line above.

TEST(LintAllow, SameLineAllowSuppresses) {
  const auto fs = lint_file(
      "retrieval/x.cpp",
      "void f(std::vector<int>& v) { v.push_back(1); }  "
      "// flashqos-lint: allow(hot-path-alloc): test fixture\n");
  EXPECT_FALSE(has_rule(fs, "hot-path-alloc"));
}

TEST(LintAllow, LineAboveAllowSuppresses) {
  const auto fs = lint_file(
      "retrieval/x.cpp",
      "// flashqos-lint: allow(hot-path-alloc): test fixture\n"
      "void f(std::vector<int>& v) { v.push_back(1); }\n");
  EXPECT_FALSE(has_rule(fs, "hot-path-alloc"));
}

TEST(LintAllow, AllowIsRuleSpecific) {
  // An allow for one rule must not blanket-suppress another on the line.
  const auto fs = lint_file(
      "retrieval/x.cpp",
      "// flashqos-lint: allow(hot-path-alloc): wrong rule\n"
      "int f() { return rand(); }\n");
  EXPECT_TRUE(has_rule(fs, "raw-random"));
}

TEST(LintAllow, AllowDoesNotLeakToLaterLines) {
  const auto fs = lint_file(
      "retrieval/x.cpp",
      "// flashqos-lint: allow(hot-path-alloc): only the next line\n"
      "void f(std::vector<int>& v) { v.push_back(1); }\n"
      "void g(std::vector<int>& v) { v.push_back(2); }\n");
  EXPECT_EQ(count_rule(fs, "hot-path-alloc"), 1u);
}

// ---------------------------------------------------------------------------
// Lexer corners: what separates a linter from a grep.

TEST(LintLexer, IgnoresCommentsAndStrings) {
  const auto fs = lint_file(
      "core/x.cpp",
      "// std::printf in a comment\n"
      "/* rand() in a block comment */\n"
      "const char* s = \"std::printf(rand())\";\n"
      "const char* r = R\"(printf sleep_for random_device)\";\n");
  EXPECT_TRUE(fs.empty()) << format(fs.front());
}

TEST(LintLexer, MatchesWholeIdentifiersOnly) {
  // `puts` inside `write_requested_outputs`, `rand` inside `operand`:
  // substring hits must not fire.
  const auto fs = lint_file("core/x.cpp",
                            "void write_requested_outputs(int operand);\n"
                            "int grand_total(int durand);\n");
  EXPECT_TRUE(fs.empty()) << format(fs.front());
}

TEST(LintLexer, DigitSeparatorIsNotACharLiteral) {
  // 1'000'000 must not open a char literal and swallow the rest of the
  // file (which would hide the real violation on the next line).
  const auto fs = lint_file("core/x.cpp",
                            "constexpr int kBig = 1'000'000;\n"
                            "int f() { return rand(); }\n");
  EXPECT_TRUE(has_rule(fs, "raw-random"));
}

TEST(LintLexer, FindingsAreOrderedAndFormatted) {
  const auto fs = lint_file("core/x.cpp",
                            "int f() { return rand(); }\n"
                            "int g() { return rand(); }\n");
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_LT(fs[0].line, fs[1].line);
  EXPECT_EQ(format(fs[0]).rfind("core/x.cpp:1: [raw-random]", 0), 0u);
}

TEST(LintApi, RuleNamesStable) {
  const auto& names = rule_names();
  for (const char* expected : {"adhoc-logging", "hot-path-alloc", "raw-random",
                               "wall-clock", "thread-spawn", "include-hygiene"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

}  // namespace
}  // namespace flashqos::lint
