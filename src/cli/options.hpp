// Shared command-line parsing for every flashqos driver.
//
// Before this existed each binary hand-rolled its own argv loop:
// bench_flags.hpp consumed the observability flags inline, flashqos_sim
// and flashqos_verify each re-implemented "--name value" scanning, and a
// typo in one driver was a silent no-op in another. cli::Options is the
// one parser they all share now:
//
//   cli::Options opts("flashqos_sim", "config-driven simulator front end");
//   opts.flag("template", "print a starter config and exit")
//       .positional("experiment.ini", "experiment config file", 0, 1)
//       .obs_output_flags();
//   opts.parse_or_exit(argc, argv);
//   if (opts.has("template")) { ... }
//
// Contract:
//  * `--name` toggles a registered flag; `--name=V` and `--name V` both
//    set a registered value (repeatable values accumulate).
//  * an integer() option must be a decimal integer in its registered
//    range, parsed whole: a sign, trailing text or an out-of-range value
//    is the same diagnostic + exit 2 as an unknown flag.
//  * `--help` prints every accepted flag — registered ones plus the
//    shared observability outputs — and exits 0.
//  * anything unregistered is a loud diagnostic + exit 2 (parse_or_exit)
//    or a returned message (try_parse, for tests); a typo can never
//    silently launch a full-size run.
//  * obs_output_flags() wires --metrics-out= / --trace-out= /
//    --series-out= / --serve-metrics= through obs::consume_output_flag,
//    so the side effects (tracer enable, live exporter start) are
//    identical across drivers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace flashqos::cli {

class Options {
 public:
  Options(std::string program, std::string summary);

  /// Register a boolean `--name` flag.
  Options& flag(std::string name, std::string help);

  /// Register a `--name <value>` / `--name=<value>` option. Repeatable
  /// options accumulate every occurrence (all()); non-repeatable ones
  /// reject a second occurrence.
  Options& value(std::string name, std::string value_name, std::string help,
                 bool repeatable = false);

  /// Register a non-repeatable value option that must be a decimal integer
  /// in [min, max]; read it with get_u64().
  Options& integer(std::string name, std::string value_name, std::string help,
                   std::uint64_t min = 0,
                   std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

  /// Accept between `min` and `max` positional (non-flag) arguments.
  /// Without this call, any positional argument is an error.
  Options& positional(std::string name, std::string help, std::size_t min = 0,
                      std::size_t max = 1);

  /// Accept the shared observability output flags (--metrics-out=,
  /// --trace-out=, --series-out=, --serve-metrics=), consumed through
  /// obs::consume_output_flag so behavior matches every other driver.
  Options& obs_output_flags();

  /// Parse argv. --help prints help_text() to stdout and exits 0; any
  /// error prints a diagnostic (plus a "see --help" hint) to stderr and
  /// exits 2.
  void parse_or_exit(int argc, char** argv);

  /// Library form for tests: returns the empty string on success, the
  /// diagnostic otherwise. --help succeeds without parsing further.
  [[nodiscard]] std::string try_parse(int argc, char** argv);

  /// True iff the flag was passed / the value was given at least once.
  [[nodiscard]] bool has(std::string_view name) const;

  /// Last occurrence of a value option, or `fallback` when absent.
  [[nodiscard]] std::string get(std::string_view name,
                                std::string fallback = {}) const;

  /// The value of an integer() option, or `fallback` when absent.
  [[nodiscard]] std::uint64_t get_u64(std::string_view name,
                                      std::uint64_t fallback) const;

  /// Every occurrence of a repeatable value option, in argv order.
  [[nodiscard]] std::vector<std::string> all(std::string_view name) const;

  /// True iff any observability output flag was consumed (drivers use this
  /// to schedule write_requested_outputs()).
  [[nodiscard]] bool obs_output_requested() const noexcept {
    return obs_output_seen_;
  }

  [[nodiscard]] const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

  /// The generated --help text: usage line, summary, and one row per
  /// accepted flag (including --help itself and, when enabled, the shared
  /// observability outputs).
  [[nodiscard]] std::string help_text() const;

 private:
  struct Spec {
    std::string name;        // without the leading "--"
    std::string value_name;  // empty = boolean flag
    std::string help;
    bool repeatable = false;
    std::vector<std::string> seen;  // values, or "" markers for flags
    /// Accepted range of an integer() option; unset for any other option.
    std::optional<std::pair<std::uint64_t, std::uint64_t>> range;
  };

  [[nodiscard]] Spec* find(std::string_view name);
  [[nodiscard]] const Spec* find(std::string_view name) const;

  std::string program_;
  std::string summary_;
  std::vector<Spec> specs_;
  std::string pos_name_;
  std::string pos_help_;
  std::size_t pos_min_ = 0;
  std::size_t pos_max_ = 0;
  bool pos_enabled_ = false;
  bool obs_flags_ = false;
  bool obs_output_seen_ = false;
  bool help_requested_ = false;
  std::vector<std::string> positionals_;
};

}  // namespace flashqos::cli
