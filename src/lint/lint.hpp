// flashqos_lint: self-contained contract linter for src/.
//
// clang-tidy is not available in every build environment this project
// targets, and generic lint rules cannot express the project-specific
// contracts anyway. This is a small token-level linter (a real lexer —
// comments, strings, char literals and raw strings are skipped, and
// identifiers match exactly, never by substring) enforcing the rules the
// codebase's determinism and performance claims rest on:
//
//   adhoc-logging    No std::cout/printf-family output outside sanctioned
//                    surfaces (CLI mains, the table renderer, exporters,
//                    contract-failure reporting). Everything else must go
//                    through src/obs, so runs stay machine-comparable.
//   hot-path-alloc   No allocation or container growth in the
//                    zero-allocation retrieval core (src/retrieval,
//                    src/core/sampler.cpp). Pre-sizing in setup phases is
//                    the idiom — each such site carries an explicit
//                    allow-comment, making "who may allocate" reviewable.
//   raw-random       No std::random_device / rand(): all randomness flows
//                    from seeded util/rng.hpp streams or replays break.
//   wall-clock       No wall-clock reads or sleeps in src/: simulated time
//                    (SimTime) is the only clock results may depend on.
//                    Self-timing of phases is opt-in via allow-comments.
//   thread-spawn     No std::thread / std::jthread / std::async (nor
//                    <thread>) in the libraries the replay engine links
//                    (core, retrieval, fim, trace, fault, flashsim, design,
//                    decluster, util): a replay is one serial run, and
//                    threads belong to the serving stack (net, service,
//                    obs).
//   include-hygiene  Headers start with #pragma once; quoted includes are
//                    repo-rooted (contain '/'); no duplicate includes.
//
// Any line can opt out with an inline escape hatch, on the line itself or
// the line above:
//
//   foo.push_back(x);  // flashqos-lint: allow(hot-path-alloc): grows once
//
// The allow-comment is part of the diff a reviewer sees, which is the
// point: exceptions are cheap to grant and impossible to grant silently.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace flashqos::lint {

struct Finding {
  std::string rule;
  std::string path;  // repo-relative, '/'-separated (as passed to lint_file)
  std::size_t line = 0;
  std::string message;
};

/// Lint one file's content. `path` is the virtual path rules are scoped
/// by — pass the src/-relative path (e.g. "retrieval/maxflow.cpp").
[[nodiscard]] std::vector<Finding> lint_file(std::string_view path,
                                             std::string_view content);

/// Stable list of rule names (what allow(...) accepts).
[[nodiscard]] const std::vector<std::string>& rule_names();

/// "path:line: [rule] message" — the single format everything prints.
[[nodiscard]] std::string format(const Finding& f);

}  // namespace flashqos::lint
