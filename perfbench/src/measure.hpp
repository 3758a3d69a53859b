// Measurement primitives of the benchmark: wall clock, a log-bucketed
// histogram, in-memory spans, an outcome digest and small statistics.
// Everything here observes the program from outside; nothing feeds a
// result of the program itself.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Non-negative int64 values in log buckets of relative width 2^-10. Each
/// bucket remembers the largest value it saw, so a percentile that lands in
/// a bucket holding a single distinct value (the simulator's flat
/// 0.132507 ms line) is reported exactly.
class LogHistogram {
 public:
  LogHistogram();
  void record(std::int64_t v) noexcept;
  /// Nearest-rank percentile, q in [0, 1]; 0 when empty.
  [[nodiscard]] std::int64_t percentile(double q) const noexcept;

 private:
  static constexpr int kSubBits = 10;
  std::vector<std::uint64_t> counts_;
  std::vector<std::int64_t> max_;
  std::uint64_t count_ = 0;
};

/// One timed call into a layer, recorded by the benchmark around its own
/// calls. Spans of one workload run share `run`; `parent` indexes the
/// enclosing span (-1 at the root).
struct Span {
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;
  std::uint32_t run = 0;
};

/// Runs [first, end) of a span log.
struct SpanRuns {
  std::uint32_t first = 0;
  std::uint32_t end = UINT32_MAX;
  [[nodiscard]] bool has(std::uint32_t run) const noexcept { return run >= first && run < end; }
};

/// Spans kept in memory and written out once, at the end of the benchmark.
class SpanLog {
 public:
  std::int32_t open(const char* name);
  void close(std::int32_t idx) {
    spans_[static_cast<std::size_t>(idx)].end = now_ns();
    open_.pop_back();
  }
  void next_run() { ++run_; }
  [[nodiscard]] std::uint32_t run() const noexcept { return run_; }

  /// Total duration of every span named `name` in `runs`.
  [[nodiscard]] double total_ns(const std::string& name, SpanRuns runs = {}) const;
  /// Same spans minus the time their direct children cover.
  [[nodiscard]] double self_ns(const std::string& name, SpanRuns runs = {}) const;
  /// Distinct span names, in first-seen order.
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Chrome trace_event JSON (loads in Perfetto); false if unwritable.
  bool write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::uint32_t run_ = 0;
};

/// RAII span; a null log records nothing (the untraced runs).
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name) : log_(log), idx_(log ? log->open(name) : -1) {}
  ~Scoped() {
    if (log_ != nullptr) log_->close(idx_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  std::int32_t idx_;
};

/// Order-sensitive 64-bit fold of words, for outcome identity checks.
class Digest {
 public:
  void add(std::uint64_t w) noexcept {
    h_ ^= w * 0x9E3779B97F4A7C15ULL;
    h_ = ((h_ << 27) | (h_ >> 37)) * 0x94D049BB133111EBULL + 0x632BE59BD9B4E019ULL;
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

[[nodiscard]] double median(std::vector<double> v);
/// Median of the best quarter of `v` (at least one value): the largest
/// values when `higher_is_better`, else the smallest. Interference from
/// other tenants of the host only slows a repetition down, in episodes
/// that can cover most of a run, so the best quarter is the steady part.
[[nodiscard]] double best_quarter(std::vector<double> v, bool higher_is_better);
[[nodiscard]] double peak_rss_mb();

/// CPUs of the process's affinity mask, read on the first call (make it
/// before anything is pinned).
[[nodiscard]] const std::vector<std::size_t>& process_cpus();

/// Pins the calling thread to each CPU of the process's affinity mask in
/// turn, one repetition per CPU, and restores the process's mask when
/// destroyed; threads it starts meanwhile inherit the CPU. At any moment
/// some of the host's cores run slower than others (other tenants), and a
/// run would otherwise stay on the same CPUs for its whole length; rotating
/// spreads every run over all of them.
class CpuRotation {
 public:
  CpuRotation() = default;
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void pin(std::size_t rep);
};

}  // namespace perfbench
