#include "cli/options.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/export.hpp"
#include "util/expect.hpp"

namespace flashqos::cli {
namespace {

constexpr const char* kObsFlagHelp[][2] = {
    {"--metrics-out=<path>", "dump the metric registry (.csv, else Prometheus)"},
    {"--trace-out=<path>", "enable the tracer; dump Chrome trace JSON"},
    {"--series-out=<path>", "dump windowed time-series (.csv/.json/Prometheus)"},
    {"--serve-metrics=<port>", "serve /metrics,/series,/slo live (0=ephemeral)"},
};

/// `text` as a whole unsigned decimal integer: no sign, no whitespace, no
/// trailing characters, no overflow.
std::optional<std::uint64_t> parse_whole_u64(std::string_view text) {
  std::uint64_t v = 0;
  const char* const last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, v);
  if (ec != std::errc{} || end != last) return std::nullopt;
  return v;
}

}  // namespace

Options::Options(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

Options& Options::flag(std::string name, std::string help) {
  FLASHQOS_EXPECT(find(name) == nullptr, "duplicate flag registration");
  specs_.push_back(Spec{std::move(name), {}, std::move(help), false, {}, {}});
  return *this;
}

Options& Options::value(std::string name, std::string value_name,
                        std::string help, bool repeatable) {
  FLASHQOS_EXPECT(find(name) == nullptr, "duplicate flag registration");
  specs_.push_back(Spec{std::move(name), std::move(value_name), std::move(help),
                        repeatable, {}, {}});
  return *this;
}

Options& Options::integer(std::string name, std::string value_name,
                          std::string help, std::uint64_t min,
                          std::uint64_t max) {
  FLASHQOS_EXPECT(min <= max, "integer option needs min <= max");
  value(std::move(name), std::move(value_name), std::move(help));
  specs_.back().range.emplace(min, max);
  return *this;
}

Options& Options::positional(std::string name, std::string help,
                             std::size_t min, std::size_t max) {
  pos_name_ = std::move(name);
  pos_help_ = std::move(help);
  pos_min_ = min;
  pos_max_ = max;
  pos_enabled_ = true;
  return *this;
}

Options& Options::obs_output_flags() {
  obs_flags_ = true;
  return *this;
}

Options::Spec* Options::find(std::string_view name) {
  for (auto& s : specs_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const Options::Spec* Options::find(std::string_view name) const {
  for (const auto& s : specs_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string Options::try_parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return {};
    }
    if (arg.rfind("--", 0) == 0 && arg.size() > 2) {
      if (obs_flags_ && obs::consume_output_flag(argv[i])) {
        obs_output_seen_ = true;
        continue;
      }
      std::string_view name = arg.substr(2);
      std::optional<std::string_view> inline_value;
      if (const auto eq = name.find('='); eq != std::string_view::npos) {
        inline_value = name.substr(eq + 1);
        name = name.substr(0, eq);
      }
      Spec* spec = find(name);
      if (spec == nullptr) {
        return "unknown flag '" + std::string(arg) + "'";
      }
      if (spec->value_name.empty()) {
        if (inline_value.has_value()) {
          return "flag '--" + spec->name + "' takes no value";
        }
        spec->seen.emplace_back();
        continue;
      }
      std::string val;
      if (inline_value.has_value()) {
        val = std::string(*inline_value);
      } else if (i + 1 < argc) {
        val = argv[++i];
      } else {
        return "flag '--" + spec->name + "' needs a " + spec->value_name;
      }
      if (!spec->repeatable && !spec->seen.empty()) {
        return "flag '--" + spec->name + "' given more than once";
      }
      if (spec->range.has_value()) {
        const auto [lo, hi] = *spec->range;
        const auto v = parse_whole_u64(val);
        if (!v.has_value() || *v < lo || *v > hi) {
          return "flag '--" + spec->name + "' expects an integer in [" +
                 std::to_string(lo) + ", " + std::to_string(hi) + "], got '" +
                 val + "'";
        }
      }
      spec->seen.push_back(std::move(val));
      continue;
    }
    positionals_.emplace_back(arg);
  }
  if (!pos_enabled_ && !positionals_.empty()) {
    return "unexpected argument '" + positionals_.front() + "'";
  }
  if (pos_enabled_ && positionals_.size() < pos_min_) {
    return "missing <" + pos_name_ + "> argument";
  }
  if (pos_enabled_ && positionals_.size() > pos_max_) {
    return "too many arguments (at most " + std::to_string(pos_max_) + " <" +
           pos_name_ + ">)";
  }
  return {};
}

void Options::parse_or_exit(int argc, char** argv) {
  const std::string err = try_parse(argc, argv);
  if (help_requested_) {
    // flashqos-lint: allow(adhoc-logging): --help text is the CLI surface
    std::fputs(help_text().c_str(), stdout);
    std::exit(0);
  }
  if (!err.empty()) {
    // flashqos-lint: allow(adhoc-logging): usage errors go to stderr
    std::fprintf(stderr, "%s: %s (see --help)\n", program_.c_str(),
                 err.c_str());
    std::exit(2);
  }
}

std::string Options::help_text() const {
  std::string out = "usage: " + program_;
  for (const auto& s : specs_) {
    out += " [--" + s.name;
    if (!s.value_name.empty()) out += " <" + s.value_name + ">";
    out += "]";
    if (s.repeatable) out += "...";
  }
  if (obs_flags_) out += " [obs outputs]";
  if (pos_enabled_) {
    out += pos_min_ > 0 ? " <" + pos_name_ + ">" : " [<" + pos_name_ + ">]";
    if (pos_max_ > 1) out += "...";
  }
  out += "\n\n" + summary_ + "\n\nflags:\n";
  const auto row = [&out](const std::string& lhs, const std::string& rhs) {
    out += "  " + lhs;
    out += lhs.size() < 28 ? std::string(28 - lhs.size(), ' ') : std::string(" ");
    out += rhs + "\n";
  };
  for (const auto& s : specs_) {
    std::string lhs = "--" + s.name;
    if (!s.value_name.empty()) lhs += " <" + s.value_name + ">";
    row(lhs, s.help + (s.repeatable ? " (repeatable)" : ""));
  }
  if (obs_flags_) {
    for (const auto& [lhs, rhs] : kObsFlagHelp) row(lhs, rhs);
  }
  row("--help", "print this help and exit");
  if (pos_enabled_) {
    out += "\narguments:\n";
    row("<" + pos_name_ + ">", pos_help_);
  }
  return out;
}

bool Options::has(std::string_view name) const {
  const Spec* s = find(name);
  FLASHQOS_EXPECT(s != nullptr, "query of unregistered flag");
  return !s->seen.empty();
}

std::string Options::get(std::string_view name, std::string fallback) const {
  const Spec* s = find(name);
  FLASHQOS_EXPECT(s != nullptr && !s->value_name.empty(),
                  "get() needs a registered value option");
  return s->seen.empty() ? std::move(fallback) : s->seen.back();
}

std::uint64_t Options::get_u64(std::string_view name,
                               std::uint64_t fallback) const {
  const Spec* s = find(name);
  FLASHQOS_EXPECT(s != nullptr && s->range.has_value(),
                  "get_u64() needs a registered integer option");
  // try_parse already range-checked every accepted value.
  return s->seen.empty() ? fallback : *parse_whole_u64(s->seen.back());
}

std::vector<std::string> Options::all(std::string_view name) const {
  const Spec* s = find(name);
  FLASHQOS_EXPECT(s != nullptr && !s->value_name.empty(),
                  "all() needs a registered value option");
  return s->seen;
}

}  // namespace flashqos::cli
