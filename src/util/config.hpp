// Minimal INI-style configuration files.
//
// DiskSim is driven by parameter files; flashqos_sim keeps that workflow:
// `[section]` headers, `key = value` pairs, `#`/`;` comments. Repeated keys
// accumulate (used for failure lists). Values are strings; typed getters
// parse on access, fall back to defaults when the key is absent, and throw
// when the value does not parse whole ("2x" is not an integer).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace flashqos {

class Config {
 public:
  /// Parse from a stream. Throws std::runtime_error on syntax errors
  /// (naming the line).
  static Config parse(std::istream& in);
  /// Parse from a file path.
  static Config load(const std::string& path);

  [[nodiscard]] bool has(const std::string& section, const std::string& key) const;

  /// All values for a repeated key (empty if absent).
  [[nodiscard]] std::vector<std::string> all(const std::string& section,
                                             const std::string& key) const;

  [[nodiscard]] std::string get(const std::string& section, const std::string& key,
                                const std::string& fallback = {}) const;
  [[nodiscard]] double get_double(const std::string& section, const std::string& key,
                                  double fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& section,
                                     const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] bool get_bool(const std::string& section, const std::string& key,
                              bool fallback) const;

  /// Sections present, in first-seen order.
  [[nodiscard]] const std::vector<std::string>& sections() const noexcept {
    return section_order_;
  }

 private:
  // (section, key) -> values in file order.
  std::map<std::pair<std::string, std::string>, std::vector<std::string>> values_;
  std::vector<std::string> section_order_;
};

}  // namespace flashqos
