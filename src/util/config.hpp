// Minimal INI-style configuration files.
//
// DiskSim is driven by parameter files; flashqos_sim keeps that workflow:
// `[section]` headers, `key = value` pairs, `#`/`;` comments. Repeated keys
// accumulate (used for failure lists). Values are strings; typed getters
// parse on access, fall back to defaults when the key is absent, and throw
// when the value does not parse whole ("2x" is not an integer). Integers
// and doubles are read within a range, so a count never wraps on its way
// to its type and a NaN never reaches a comparison, and times within the
// simulated clock's.
#pragma once

#include <concepts>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/time.hpp"

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
  /// A double within [lo, hi] (by default every finite double): the
  /// fallback when the key is absent, otherwise the value, which must parse
  /// whole. Throws naming the section, key, value and range for a NaN, an
  /// infinity or a value outside the range.
  [[nodiscard]] double get_double(const std::string& section, const std::string& key,
                                  double fallback,
                                  double lo = std::numeric_limits<double>::lowest(),
                                  double hi = std::numeric_limits<double>::max()) const;

  /// An integer as T, within [lo, hi] (by default every value T holds):
  /// the fallback when the key is absent, otherwise the value read by
  /// parse_int.
  template <std::integral T = std::int64_t>
  [[nodiscard]] T get_int(const std::string& section, const std::string& key,
                          std::type_identity_t<T> fallback,
                          std::type_identity_t<T> lo = std::numeric_limits<T>::min(),
                          std::type_identity_t<T> hi = std::numeric_limits<T>::max()) const {
    const auto s = get(section, key);
    return s.empty() ? fallback : parse_int<T>(section, key, s, s, lo, hi);
  }

  /// The integer reader: `text`, all of `value` or one field of it, must
  /// parse whole as a decimal integer within [lo, hi] (by default every
  /// value T holds), so nothing wraps or truncates on its way to T. Throws
  /// naming the section, key, value and range otherwise.
  template <std::integral T>
  [[nodiscard]] static T parse_int(
      const std::string& section, const std::string& key, const std::string& value,
      const std::string& text, std::type_identity_t<T> lo = std::numeric_limits<T>::min(),
      std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
    return static_cast<T>(
        parse_int64(section, key, value, text, to_int64(lo), to_int64(hi)));
  }

  /// A time in milliseconds as SimTime: the fallback when the key is
  /// absent, otherwise the value read by parse_ms.
  [[nodiscard]] SimTime get_ms(const std::string& section, const std::string& key,
                               double fallback_ms) const;

  /// The time reader: `ms` milliseconds, read from `value` (all of it or
  /// one field), as SimTime rounded to the nearest ns within [0,
  /// kMaxEventTime]. Throws naming the section, key and value for a NaN, a
  /// negative time or one past the clock.
  [[nodiscard]] static SimTime parse_ms(const std::string& section,
                                        const std::string& key,
                                        const std::string& value, double ms);

  [[nodiscard]] bool get_bool(const std::string& section, const std::string& key,
                              bool fallback) const;

  /// Sections present, in first-seen order.
  [[nodiscard]] const std::vector<std::string>& sections() const noexcept {
    return section_order_;
  }

 private:
  /// `value` parsed whole as a double (NaN and infinities included).
  [[nodiscard]] static double parse_double(const std::string& section,
                                           const std::string& key,
                                           const std::string& value);
  [[nodiscard]] static std::int64_t parse_int64(const std::string& section,
                                                const std::string& key,
                                                const std::string& value,
                                                const std::string& text,
                                                std::int64_t lo, std::int64_t hi);

  /// `v` as an int64 bound: an unsigned bound past INT64_MAX saturates
  /// (parse_int64 reads nothing larger).
  template <std::integral T>
  [[nodiscard]] static constexpr std::int64_t to_int64(T v) noexcept {
    return std::cmp_greater(v, std::numeric_limits<std::int64_t>::max())
               ? std::numeric_limits<std::int64_t>::max()
               : static_cast<std::int64_t>(v);
  }

  // (section, key) -> values in file order.
  std::map<std::pair<std::string, std::string>, std::vector<std::string>> values_;
  std::vector<std::string> section_order_;
};

}  // namespace flashqos
