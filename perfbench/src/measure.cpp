#include "measure.hpp"

#include <sched.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "util/memory.hpp"

namespace perfbench {

namespace {

constexpr int kValueBits = 48;

std::size_t bucket_of(std::int64_t v, int sub_bits) noexcept {
  const auto u = static_cast<std::uint64_t>(std::max<std::int64_t>(v, 0));
  const std::uint64_t sub = std::uint64_t{1} << sub_bits;
  if (u < sub) return static_cast<std::size_t>(u);
  const int msb = 63 - std::countl_zero(u);
  const int shift = msb - sub_bits;
  const std::uint64_t within = (u >> shift) - sub;  // [0, sub)
  return static_cast<std::size_t>(sub + static_cast<std::uint64_t>(shift) * sub + within);
}

}  // namespace

LogHistogram::LogHistogram()
    : counts_((kValueBits - kSubBits + 1) << kSubBits, 0),
      max_(counts_.size(), 0) {}

void LogHistogram::record(std::int64_t v) noexcept {
  const std::size_t b = std::min(bucket_of(v, kSubBits), counts_.size() - 1);
  ++counts_[b];
  max_[b] = std::max(max_[b], v);
  ++count_;
}

std::int64_t LogHistogram::percentile(double q) const noexcept {
  if (count_ == 0) return 0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    seen += counts_[b];
    if (seen >= rank) return max_[b];
  }
  return max_.back();
}

std::int32_t SpanLog::open(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = run_;
  const auto idx = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(s);
  open_.push_back(idx);
  spans_.back().start = now_ns();
  return idx;
}

double SpanLog::total_ns(const std::string& name, SpanRuns runs) const {
  double total = 0;
  for (const auto& s : spans_) {
    if (runs.has(s.run) && name == s.name) total += static_cast<double>(s.end - s.start);
  }
  return total;
}

double SpanLog::self_ns(const std::string& name, SpanRuns runs) const {
  double total = total_ns(name, runs);
  for (const auto& s : spans_) {
    if (!runs.has(s.run) || s.parent < 0) continue;
    if (name == spans_[static_cast<std::size_t>(s.parent)].name) {
      total -= static_cast<double>(s.end - s.start);
    }
  }
  return total;
}

std::vector<std::string> SpanLog::names() const {
  std::vector<std::string> out;
  for (const auto& s : spans_) {
    if (std::find(out.begin(), out.end(), s.name) == out.end()) out.emplace_back(s.name);
  }
  return out;
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name, s.run,
                 static_cast<double>(s.start - t0) / 1e3,
                 static_cast<double>(s.end - s.start) / 1e3, i, s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double best_quarter(std::vector<double> v, bool higher_is_better) {
  if (v.empty()) return 0.0;
  if (higher_is_better) {
    std::sort(v.begin(), v.end(), std::greater<>());
  } else {
    std::sort(v.begin(), v.end());
  }
  v.resize((v.size() + 3) / 4);
  return median(std::move(v));
}

double peak_rss_mb() {
  return static_cast<double>(flashqos::peak_rss_bytes()) / (1024.0 * 1024.0);
}

const std::vector<std::size_t>& process_cpus() {
  static const std::vector<std::size_t> cpus = [] {
    std::vector<std::size_t> out;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
      for (std::size_t c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &mask)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

CpuRotation::~CpuRotation() {
  const auto& cpus = process_cpus();
  if (cpus.empty()) return;
  cpu_set_t all;
  CPU_ZERO(&all);
  for (const std::size_t c : cpus) CPU_SET(c, &all);
  (void)sched_setaffinity(0, sizeof(all), &all);
}

void CpuRotation::pin(std::size_t rep) {
  const auto& cpus = process_cpus();
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[rep % cpus.size()], &one);
  (void)sched_setaffinity(0, sizeof(one), &one);
}

}  // namespace perfbench
