#include "lint/lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <map>
#include <set>
#include <tuple>
#include <utility>

namespace flashqos::lint {

namespace {

// --- lexer -----------------------------------------------------------------

struct Token {
  std::string_view text;
  std::size_t line;
};

/// Lexed view of a file: identifier tokens plus the per-line allow sets
/// harvested from `// flashqos-lint: allow(rule, ...)` comments.
struct Lexed {
  std::vector<Token> idents;
  std::map<std::size_t, std::set<std::string, std::less<>>> allows;
};

[[nodiscard]] bool ident_start(char c) noexcept {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
[[nodiscard]] bool ident_char(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Parse allow(rule, rule2) annotations out of one comment's text.
void harvest_allows(std::string_view comment, std::size_t line, Lexed& out) {
  const std::size_t tag = comment.find("flashqos-lint:");
  if (tag == std::string_view::npos) return;
  std::size_t open = comment.find("allow(", tag);
  if (open == std::string_view::npos) return;
  open += 6;
  const std::size_t close = comment.find(')', open);
  if (close == std::string_view::npos) return;
  std::string_view list = comment.substr(open, close - open);
  while (!list.empty()) {
    const std::size_t comma = list.find(',');
    std::string_view item = list.substr(0, comma);
    while (!item.empty() && item.front() == ' ') item.remove_prefix(1);
    while (!item.empty() && item.back() == ' ') item.remove_suffix(1);
    if (!item.empty()) out.allows[line].emplace(item);
    if (comma == std::string_view::npos) break;
    list.remove_prefix(comma + 1);
  }
}

/// Tokenize `content`, skipping comments, string/char literals and raw
/// strings; identifiers come out whole, so `puts` never matches inside
/// `write_requested_outputs`.
[[nodiscard]] Lexed lex(std::string_view content) {
  Lexed out;
  std::size_t line = 1;
  std::size_t i = 0;
  const std::size_t n = content.size();
  char prev_significant = '\0';  // last non-space char outside skips

  while (i < n) {
    const char c = content[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    // Line comment (also where allow-annotations live).
    if (c == '/' && i + 1 < n && content[i + 1] == '/') {
      const std::size_t eol = content.find('\n', i);
      const std::size_t end = eol == std::string_view::npos ? n : eol;
      harvest_allows(content.substr(i, end - i), line, out);
      i = end;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && content[i + 1] == '*') {
      std::size_t j = i + 2;
      while (j + 1 < n && !(content[j] == '*' && content[j + 1] == '/')) {
        if (content[j] == '\n') ++line;
        ++j;
      }
      i = j + 1 < n ? j + 2 : n;
      continue;
    }
    // Raw string literal: R"delim( ... )delim".
    if (c == '"' && prev_significant == 'R') {
      std::size_t j = i + 1;
      std::string delim;
      while (j < n && content[j] != '(' && delim.size() <= 16) {
        delim += content[j++];
      }
      const std::string closer = ")" + delim + "\"";
      const std::size_t end = content.find(closer, j);
      const std::size_t stop =
          end == std::string_view::npos ? n : end + closer.size();
      line += static_cast<std::size_t>(
          std::count(content.begin() + static_cast<std::ptrdiff_t>(i),
                     content.begin() + static_cast<std::ptrdiff_t>(
                                           std::min(stop, n)),
                     '\n'));
      i = stop;
      prev_significant = '"';
      continue;
    }
    // Ordinary string literal.
    if (c == '"') {
      std::size_t j = i + 1;
      while (j < n && content[j] != '"') {
        if (content[j] == '\\' && j + 1 < n) ++j;
        if (content[j] == '\n') ++line;  // unterminated; keep counting
        ++j;
      }
      i = j + 1;
      prev_significant = '"';
      continue;
    }
    // Char literal — but a ' right after an alnum is a digit separator
    // (1'000'000), not a literal.
    if (c == '\'' && !ident_char(prev_significant)) {
      std::size_t j = i + 1;
      while (j < n && content[j] != '\'') {
        if (content[j] == '\\' && j + 1 < n) ++j;
        ++j;
      }
      i = j + 1;
      prev_significant = '\'';
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && ident_char(content[j])) ++j;
      out.idents.push_back({content.substr(i, j - i), line});
      prev_significant = content[j - 1];
      i = j;
      continue;
    }
    if (c != ' ' && c != '\t' && c != '\r') prev_significant = c;
    ++i;
  }
  return out;
}

// --- rule configuration ----------------------------------------------------

enum class Scope { kAll, kHotPath, kReplayEngine };

struct WordRule {
  const char* name;
  Scope scope;
  std::vector<const char*> words;
  const char* message;
  /// Exact src/-relative paths exempt from the rule (beyond the generic
  /// main.cpp exemption for adhoc-logging).
  std::vector<const char*> sanctioned;
};

[[nodiscard]] const std::vector<WordRule>& word_rules() {
  static const std::vector<WordRule> rules = {
      {"adhoc-logging",
       Scope::kAll,
       {"printf", "fprintf", "puts", "fputs", "putchar", "cout", "cerr"},
       "ad-hoc output; record through src/obs (or add an allow-comment if "
       "this really is a sanctioned reporting surface)",
       // CLI entry points (any */main.cpp) are exempt generically; these
       // are the non-main sanctioned surfaces:
       {
           "util/table.cpp",   // the table renderer IS the output surface
           "util/expect.hpp",  // contract failures report before abort()
           "obs/export.cpp",   // exporters write files + error-report
       }},
      {"hot-path-alloc",
       Scope::kHotPath,
       {"new", "malloc", "calloc", "realloc", "strdup", "make_unique",
        "make_shared", "push_back", "emplace_back", "emplace", "insert"},
       "allocation/growth in a zero-allocation hot path; pre-size in setup "
       "(allow-comment the setup site) or use the reusable workspaces",
       {}},
      {"raw-random",
       Scope::kAll,
       {"rand", "srand", "random_device", "drand48", "lrand48"},
       "unseeded randomness; use the seeded streams in util/rng.hpp so "
       "runs replay bit-identically",
       {}},
      {"wall-clock",
       Scope::kAll,
       // Blocking-I/O waits (poll/select/epoll_wait) are wall-clock time
       // too: the monitoring plane's HTTP server annotates its bounded
       // client waits explicitly. `accept` stays off the list — it would
       // collide with the admission API's vocabulary.
       {"steady_clock", "system_clock", "high_resolution_clock",
        "gettimeofday", "clock_gettime", "sleep", "sleep_for", "sleep_until",
        "usleep", "nanosleep", "poll", "select", "epoll_wait"},
       "wall-clock/sleep in simulation code; results may only depend on "
       "SimTime (allow-comment opt-in self-timing that never feeds results)",
       {}},
      {"thread-spawn",
       Scope::kReplayEngine,
       {"thread", "jthread", "async"},
       "thread start in a library the replay engine links; a replay is one "
       "serial run (threads belong to the serving stack: net, service, obs)",
       {}},
  };
  return rules;
}

[[nodiscard]] bool in_hot_path(std::string_view path) {
  // The streaming replay loop runs these per event at >= 1M req/s: the
  // chunked byte-source/parser and the online slot matcher, alongside the
  // retrieval solvers and the probability sampler.
  return path.rfind("retrieval/", 0) == 0 || path == "core/sampler.cpp" ||
         path == "trace/stream_reader.cpp" || path == "core/slot_matcher.cpp";
}

[[nodiscard]] bool in_replay_engine(std::string_view path) {
  // Every library the replay engine links, src/core included.
  for (const std::string_view dir :
       {"core/", "retrieval/", "fim/", "trace/", "fault/", "flashsim/",
        "design/", "decluster/", "util/"}) {
    if (path.rfind(dir, 0) == 0) return true;
  }
  return false;
}

[[nodiscard]] bool is_main_cpp(std::string_view path) {
  if (path == "main.cpp") return true;
  return path.size() > 9 && path.substr(path.size() - 9) == "/main.cpp";
}

[[nodiscard]] bool rule_applies(const WordRule& rule, std::string_view path) {
  if (rule.scope == Scope::kHotPath && !in_hot_path(path)) return false;
  if (rule.scope == Scope::kReplayEngine && !in_replay_engine(path)) return false;
  if (std::string_view(rule.name) == "adhoc-logging" && is_main_cpp(path)) {
    return false;
  }
  for (const char* exempt : rule.sanctioned) {
    if (path == exempt) return false;
  }
  return true;
}

[[nodiscard]] bool allowed(const Lexed& lx, std::size_t line,
                           std::string_view rule) {
  for (const std::size_t l : {line, line - 1}) {
    const auto it = lx.allows.find(l);
    if (it != lx.allows.end() && it->second.count(rule) > 0) return true;
  }
  return false;
}

// --- include hygiene -------------------------------------------------------

[[nodiscard]] bool is_header(std::string_view path) {
  return path.size() >= 4 && path.substr(path.size() - 4) == ".hpp";
}

/// Line-oriented pass: #pragma once placement, repo-rooted quoted
/// includes, duplicate includes. Runs on the raw text (directives are
/// line-structured anyway); block comments spanning directive-looking
/// lines do not occur in this codebase's style.
void check_includes(std::string_view path, std::string_view content,
                    const Lexed& lx, std::vector<Finding>& out) {
  constexpr std::string_view kRule = "include-hygiene";
  bool saw_pragma_once = false;
  bool saw_code_before_pragma = false;
  std::set<std::string, std::less<>> seen_includes;
  std::size_t line = 0;
  std::size_t pos = 0;
  bool in_block_comment = false;

  while (pos <= content.size()) {
    ++line;
    const std::size_t eol = content.find('\n', pos);
    std::string_view text = content.substr(
        pos, (eol == std::string_view::npos ? content.size() : eol) - pos);
    pos = eol == std::string_view::npos ? content.size() + 1 : eol + 1;

    // Minimal comment-state tracking so leading license/doc blocks never
    // count as code.
    std::string_view stripped = text;
    while (!stripped.empty() &&
           (stripped.front() == ' ' || stripped.front() == '\t')) {
      stripped.remove_prefix(1);
    }
    if (in_block_comment) {
      const std::size_t close = stripped.find("*/");
      if (close == std::string_view::npos) continue;
      in_block_comment = false;
      stripped.remove_prefix(close + 2);
    }
    if (stripped.rfind("//", 0) == 0 || stripped.empty()) continue;
    if (stripped.rfind("/*", 0) == 0 &&
        stripped.find("*/", 2) == std::string_view::npos) {
      in_block_comment = true;
      continue;
    }

    if (stripped.rfind("#pragma", 0) == 0 &&
        stripped.find("once") != std::string_view::npos) {
      saw_pragma_once = true;
      if (saw_code_before_pragma && !allowed(lx, line, kRule)) {
        out.push_back({std::string(kRule), std::string(path), line,
                       "#pragma once must be the first directive"});
      }
      continue;
    }
    saw_code_before_pragma = true;

    if (stripped.rfind("#include", 0) == 0) {
      std::string_view target;
      bool quoted = false;
      if (const std::size_t q1 = stripped.find('"');
          q1 != std::string_view::npos) {
        const std::size_t q2 = stripped.find('"', q1 + 1);
        if (q2 != std::string_view::npos) {
          target = stripped.substr(q1 + 1, q2 - q1 - 1);
          quoted = true;
        }
      } else if (const std::size_t a1 = stripped.find('<');
                 a1 != std::string_view::npos) {
        const std::size_t a2 = stripped.find('>', a1 + 1);
        if (a2 != std::string_view::npos) {
          target = stripped.substr(a1 + 1, a2 - a1 - 1);
        }
      }
      if (!target.empty()) {
        if (quoted && target.find('/') == std::string_view::npos &&
            !allowed(lx, line, kRule)) {
          out.push_back(
              {std::string(kRule), std::string(path), line,
               "quoted include \"" + std::string(target) +
                   "\" is not repo-rooted (include \"subdir/name.hpp\")"});
        }
        if (!seen_includes.emplace(target).second &&
            !allowed(lx, line, kRule)) {
          out.push_back({std::string(kRule), std::string(path), line,
                         "duplicate include \"" + std::string(target) +
                             "\""});
        }
      }
    }
  }

  if (is_header(path) && !saw_pragma_once) {
    out.push_back({std::string(kRule), std::string(path), 1,
                   "header is missing #pragma once"});
  }
}

}  // namespace

// --- public API ------------------------------------------------------------

std::vector<Finding> lint_file(std::string_view path,
                               std::string_view content) {
  std::vector<Finding> out;
  const Lexed lx = lex(content);

  // Word rules: one pass over the identifier stream with a word→rule map.
  std::map<std::string_view, const WordRule*> word_to_rule;
  for (const WordRule& rule : word_rules()) {
    if (!rule_applies(rule, path)) continue;
    for (const char* w : rule.words) word_to_rule.emplace(w, &rule);
  }
  for (const Token& tok : lx.idents) {
    const auto it = word_to_rule.find(tok.text);
    if (it == word_to_rule.end()) continue;
    const WordRule& rule = *it->second;
    if (allowed(lx, tok.line, rule.name)) continue;
    out.push_back({rule.name, std::string(path), tok.line,
                   "`" + std::string(tok.text) + "`: " + rule.message});
  }

  check_includes(path, content, lx, out);

  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.line, a.rule, a.message) <
           std::tie(b.line, b.rule, b.message);
  });
  return out;
}

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const WordRule& rule : word_rules()) v.emplace_back(rule.name);
    v.emplace_back("include-hygiene");
    return v;
  }();
  return names;
}

std::string format(const Finding& f) {
  return f.path + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
         f.message;
}

}  // namespace flashqos::lint
