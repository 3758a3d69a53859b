#include "obs/slo.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/metrics.hpp"
#include "util/expect.hpp"

namespace flashqos::obs {

namespace {

// Burn over the most recent `n` samples: (Σ bad / Σ total) / budget.
// An all-idle window set burns nothing.
double burn_over(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& samples,
    std::size_t n, double budget) {
  std::uint64_t total = 0;
  std::uint64_t bad = 0;
  const std::size_t take = std::min(n, samples.size());
  for (std::size_t i = samples.size() - take; i < samples.size(); ++i) {
    total += samples[i].first;
    bad += samples[i].second;
  }
  if (total == 0) return 0.0;
  return (static_cast<double>(bad) / static_cast<double>(total)) / budget;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  out += buf;
}

}  // namespace

const char* to_string(SloKind kind) {
  switch (kind) {
    case SloKind::kP99Response: return "p99_response";
    case SloKind::kMissRate: return "miss_rate";
    case SloKind::kAdmissionFloor: return "admission_floor";
  }
  return "unknown";
}

const char* to_string(SloMonitor::State state) {
  switch (state) {
    case SloMonitor::State::kOk: return "ok";
    case SloMonitor::State::kWarn: return "warn";
    case SloMonitor::State::kPage: return "page";
  }
  return "unknown";
}

std::string SloSpec::name() const {
  std::string out = to_string(kind);
  out += '/';
  out += tenant.empty() ? "*" : tenant;
  return out;
}

std::string SloSpec::validate() const {
  if (budget <= 0.0 || budget > 1.0) return "budget must be in (0, 1]";
  if (kind != SloKind::kAdmissionFloor && threshold_ns <= 0) {
    return "threshold_ns must be positive for response/miss SLOs";
  }
  if (short_windows == 0 || long_windows == 0) {
    return "burn windows must be positive";
  }
  if (short_windows > long_windows) {
    return "short_windows must not exceed long_windows";
  }
  if (warn_burn <= 0.0 || page_burn <= 0.0) {
    return "burn thresholds must be positive";
  }
  if (warn_burn > page_burn) return "warn_burn must not exceed page_burn";
  return {};
}

SloMonitor& SloMonitor::global() {
  static auto* monitor = new SloMonitor();
  return *monitor;
}

void SloMonitor::configure(std::vector<SloSpec> specs) {
  const std::lock_guard<std::mutex> lock(mutex_);
  specs_.clear();
  specs_.reserve(specs.size());
  for (auto& spec : specs) {
    FLASHQOS_EXPECT(spec.validate().empty(), "SloSpec failed validation");
    SpecState state;
    state.spec = std::move(spec);
    specs_.push_back(std::move(state));
  }
  log_.clear();
  log_dropped_ = 0;
}

SloSpec SloMonitor::spec(std::size_t index) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  FLASHQOS_EXPECT(index < specs_.size(), "SLO spec index out of range");
  return specs_[index].spec;
}

void SloMonitor::record(std::size_t index, std::int64_t window,
                        std::uint64_t total, std::uint64_t bad) {
  const std::lock_guard<std::mutex> lock(mutex_);
  FLASHQOS_EXPECT(index < specs_.size(), "SLO spec index out of range");
  FLASHQOS_EXPECT(bad <= total, "SLO bad count cannot exceed total");
  SpecState& st = specs_[index];

  st.samples.emplace_back(total, bad);
  if (st.samples.size() > st.spec.long_windows) {
    st.samples.erase(st.samples.begin());
  }
  st.burn_short = burn_over(st.samples, st.spec.short_windows, st.spec.budget);
  st.burn_long = burn_over(st.samples, st.spec.long_windows, st.spec.budget);

  State state = State::kOk;
  if (st.burn_short >= st.spec.page_burn && st.burn_long >= st.spec.page_burn) {
    state = State::kPage;
  } else if (st.burn_short >= st.spec.warn_burn &&
             st.burn_long >= st.spec.warn_burn) {
    state = State::kWarn;
  }
  st.state = state;
  ++st.windows;
  if (state == State::kPage) ++st.pages;
  if (state == State::kWarn) ++st.warns;

  if (state != State::kOk) {
    if (log_.size() < kMaxLog) {
      log_.push_back({index, window, state, total, bad, st.burn_short,
                      st.burn_long});
    } else {
      ++log_dropped_;
    }
  }

  // Publish live health into the metric registry (gauges only move by the
  // delta from the last published value — Gauge has no absolute set).
  auto& registry = MetricRegistry::global();
  const std::string labels = "slo=\"" + st.spec.name() + "\"";
  const auto publish = [&](const char* name, std::int64_t& last,
                           std::int64_t now) {
    if (now != last) {
      registry.gauge(name, labels).add(now - (last < 0 ? 0 : last));
      last = now;
    }
  };
  std::int64_t published = st.published_state;
  publish("slo.state", published, static_cast<std::int64_t>(state));
  st.published_state = published;
  publish("slo.burn_short_ppm", st.published_short_ppm,
          static_cast<std::int64_t>(st.burn_short * 1e6));
  publish("slo.burn_long_ppm", st.published_long_ppm,
          static_cast<std::int64_t>(st.burn_long * 1e6));
  if (state == State::kPage) registry.counter("slo.page_windows", labels).inc();
  if (state == State::kWarn) registry.counter("slo.warn_windows", labels).inc();
}

SloMonitor::State SloMonitor::state(std::size_t index) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  FLASHQOS_EXPECT(index < specs_.size(), "SLO spec index out of range");
  return specs_[index].state;
}

SloMonitor::Snapshot SloMonitor::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  snap.specs.reserve(specs_.size());
  for (const auto& st : specs_) {
    snap.specs.push_back({st.spec, st.state, st.burn_short, st.burn_long,
                          st.windows, st.pages, st.warns});
  }
  snap.log = log_;
  snap.log_dropped = log_dropped_;
  return snap;
}

void SloMonitor::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& st : specs_) {
    st.samples.clear();
    st.state = State::kOk;
    st.burn_short = 0.0;
    st.burn_long = 0.0;
    st.windows = 0;
    st.pages = 0;
    st.warns = 0;
    st.published_state = -1;
    st.published_short_ppm = 0;
    st.published_long_ppm = 0;
  }
  log_.clear();
  log_dropped_ = 0;
}

std::string to_json(const SloMonitor::Snapshot& snap) {
  std::string out = "{\n  \"slos\": [";
  for (std::size_t i = 0; i < snap.specs.size(); ++i) {
    const auto& s = snap.specs[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"" + json_escape(s.spec.name()) + "\"";
    out += ", \"tenant\": \"" + json_escape(s.spec.tenant) + "\"";
    out += ", \"kind\": \"";
    out += to_string(s.spec.kind);
    out += "\", \"threshold_ns\": " + std::to_string(s.spec.threshold_ns);
    out += ", \"budget\": ";
    append_double(out, s.spec.budget);
    out += ", \"state\": \"";
    out += to_string(s.state);
    out += "\", \"burn_short\": ";
    append_double(out, s.burn_short);
    out += ", \"burn_long\": ";
    append_double(out, s.burn_long);
    out += ", \"windows\": " + std::to_string(s.windows);
    out += ", \"pages\": " + std::to_string(s.pages);
    out += ", \"warns\": " + std::to_string(s.warns);
    out += "}";
  }
  out += "\n  ],\n  \"violations\": [";
  for (std::size_t i = 0; i < snap.log.size(); ++i) {
    const auto& v = snap.log[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"spec\": " + std::to_string(v.spec);
    out += ", \"window\": " + std::to_string(v.window);
    out += ", \"state\": \"";
    out += to_string(v.state);
    out += "\", \"total\": " + std::to_string(v.total);
    out += ", \"bad\": " + std::to_string(v.bad);
    out += ", \"burn_short\": ";
    append_double(out, v.burn_short);
    out += ", \"burn_long\": ";
    append_double(out, v.burn_long);
    out += "}";
  }
  out += "\n  ],\n  \"violations_dropped\": " + std::to_string(snap.log_dropped);
  out += "\n}\n";
  return out;
}

}  // namespace flashqos::obs
