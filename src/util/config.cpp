#include "util/config.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace flashqos {
namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return {};
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

Config Config::parse(std::istream& in) {
  Config cfg;
  std::string line;
  std::string section;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments (not inside values — values never contain # here).
    const auto comment = line.find_first_of("#;");
    if (comment != std::string::npos) line.erase(comment);
    line = trim(line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        throw std::runtime_error("config: unterminated section at line " +
                                 std::to_string(line_no));
      }
      section = trim(line.substr(1, line.size() - 2));
      if (std::find(cfg.section_order_.begin(), cfg.section_order_.end(),
                    section) == cfg.section_order_.end()) {
        cfg.section_order_.push_back(section);
      }
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("config: expected key = value at line " +
                               std::to_string(line_no));
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      throw std::runtime_error("config: empty key at line " +
                               std::to_string(line_no));
    }
    cfg.values_[{section, key}].push_back(value);
  }
  return cfg;
}

Config Config::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("config: cannot open " + path);
  return parse(in);
}

bool Config::has(const std::string& section, const std::string& key) const {
  return values_.count({section, key}) > 0;
}

std::vector<std::string> Config::all(const std::string& section,
                                     const std::string& key) const {
  const auto it = values_.find({section, key});
  return it == values_.end() ? std::vector<std::string>{} : it->second;
}

std::string Config::get(const std::string& section, const std::string& key,
                        const std::string& fallback) const {
  const auto it = values_.find({section, key});
  return it == values_.end() ? fallback : it->second.back();
}

double Config::parse_double(const std::string& section, const std::string& key,
                            const std::string& value) {
  // The whole value must parse: "0.133ms" is not 0.133.
  std::size_t used = 0;
  try {
    const double v = std::stod(value, &used);
    if (used == value.size()) return v;
  } catch (const std::exception&) {
    // No digits at all, or out of range: reported below.
  }
  throw std::runtime_error("config: [" + section + "] " + key +
                           " is not a number: " + value);
}

double Config::get_double(const std::string& section, const std::string& key,
                          double fallback, double lo, double hi) const {
  const auto s = get(section, key);
  if (s.empty()) return fallback;
  const double v = parse_double(section, key, s);
  // NaN fails both comparisons, and the finite bounds exclude infinities.
  if (v >= lo && v <= hi) return v;
  std::ostringstream range;
  range << "a number in [" << lo << ", " << hi << "]";
  throw std::runtime_error("config: [" + section + "] " + key + " = " + s + " is not " +
                           range.str());
}

std::int64_t Config::parse_int64(const std::string& section, const std::string& key,
                                 const std::string& value, const std::string& text,
                                 std::int64_t lo, std::int64_t hi) {
  std::size_t used = 0;
  try {
    const auto v = static_cast<std::int64_t>(std::stoll(text, &used));
    if (used == text.size() && lo <= v && v <= hi) return v;
  } catch (const std::exception&) {
    // No digits at all, or past int64: reported below.
  }
  const std::string range =
      "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
  throw std::runtime_error("config: [" + section + "] " + key + " = " + value +
                           (text == value ? " is not " : " has " + text + ", not ") +
                           range);
}

SimTime Config::get_ms(const std::string& section, const std::string& key,
                       double fallback_ms) const {
  const auto s = get(section, key);
  return parse_ms(section, key, s, s.empty() ? fallback_ms : parse_double(section, key, s));
}

SimTime Config::parse_ms(const std::string& section, const std::string& key,
                         const std::string& value, double ms) {
  // NaN fails both comparisons; the bound keeps from_ms's llround in range.
  if (ms >= 0.0 && ms * static_cast<double>(kMillisecond) <=
                       static_cast<double>(kMaxEventTime)) {
    return from_ms(ms);
  }
  throw std::runtime_error("config: [" + section + "] " + key + " = " + value +
                           " is not a time in [0, " +
                           std::to_string(to_ms(kMaxEventTime)) + "] ms");
}

bool Config::get_bool(const std::string& section, const std::string& key,
                      bool fallback) const {
  const auto s = get(section, key);
  if (s.empty()) return fallback;
  if (s == "true" || s == "yes" || s == "1" || s == "on") return true;
  if (s == "false" || s == "no" || s == "0" || s == "off") return false;
  throw std::runtime_error("config: [" + section + "] " + key +
                           " is not a boolean: " + s);
}

}  // namespace flashqos
