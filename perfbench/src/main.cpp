// flashqos_perfbench: one workload, one seed, one mode per invocation.
//
//   flashqos_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                      [--tiny] [--out-dir <dir>] [--commit <id>] [--command <text>]
//
// --trace 0 times the end-to-end path; --trace 1 adds the per-layer run.
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics the mode reports. Exit code 0 iff every gate
// passed. run.py builds this binary and is the command users run.
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"
#include "obs/metrics.hpp"

using namespace perfbench;

namespace {

/// The end-to-end metrics the final JSON line carries in --trace 0 mode.
/// The wire round-trip percentiles exist on daemon_wire only; the
/// simulated-time metrics and percentages are a deterministic function of
/// the seed. All of them are printed and recorded, not judged.
const char* const kJudged[] = {"throughput_mreq_s", "setup_s", "peak_rss_mb"};

/// Wall time of the spare set-ups timed after each repetition.
constexpr std::int64_t kSetupSliceNs = 50'000'000;

bool parse(int argc, char** argv, Options& opt) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--tiny") {
      opt.tiny = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      opt.trace = std::string(v) == "1";
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else if (a == "--commit") {
      opt.commit = v;
    } else if (a == "--command") {
      opt.command = v;
    } else {
      return false;
    }
  }
  return have_workload && opt.seconds > 0;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

/// Runs the workload's set-up into `s` and records its wall time (s).
/// Every set-up of one seed writes the same inputs (the same bytes to the
/// same file, for a file workload).
void timed_setup(Workload& w, Setup& s, const Options& opt, std::vector<double>& times) {
  const std::int64_t t0 = now_ns();
  w.setup(s, opt);
  times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
}

/// Peak resident set (MB) of the workload's run, inputs included: one
/// set-up and one repetition in a child forked before the benchmark has
/// allocated anything, under the default allocator. Measured apart so the
/// figure does not carry the heap that the repeated set-ups, the reference
/// replay and the checks leave behind. -1 when the child fails.
double probe_peak_rss_mb(Workload& w, const Options& opt) {
  int fds[2];
  if (pipe(fds) != 0) return -1.0;
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1.0;
  }
  if (pid == 0) {
    // Dies with the benchmark (a killed run leaves no probe behind).
    if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != parent) _exit(1);
    close(fds[0]);
    Setup s;
    w.setup(s, opt);
    Rep rep;
    OutcomeStats stats;
    w.run(s, rep, stats, nullptr);
    const double mb = stats.outcomes == s.requests ? peak_rss_mb() : -1.0;
    const bool sent = write(fds[1], &mb, sizeof(mb)) == static_cast<ssize_t>(sizeof(mb));
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double mb = -1.0;
  if (read(fds[0], &mb, sizeof(mb)) != static_cast<ssize_t>(sizeof(mb))) mb = -1.0;
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? mb : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: flashqos_perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--tiny] [--out-dir <dir>] [--commit <id>] [--command <text>]\n");
    return 2;
  }
  auto w = make_workload(opt.workload);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const std::string provenance =
      "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
      " build_type=" PERFBENCH_BUILD_TYPE " FLASHQOS_OBS=" +
      (flashqos::obs::kEnabled ? "ON" : "OFF") + " commit=" + opt.commit +
      " seed=" + std::to_string(opt.seed) + " command=" + opt.command;
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0,
              opt.tiny ? " scale=tiny" : "");
  std::printf("provenance: %s\n", provenance.c_str());
  std::fflush(stdout);
  (void)process_cpus();  // read the CPU mask before anything is pinned
  const double rss_mb = opt.trace ? 0.0 : probe_peak_rss_mb(*w, opt);

  Gates g;
  std::uint64_t attempted = 0;
  std::uint64_t bad = 0;  // failed + shed + pushed back + dropped + never answered

  // The set-up the run uses; plain runs time more between the repetitions.
  std::vector<double> setup_times;
  Setup s;
  timed_setup(*w, s, opt, setup_times);
  std::printf("setup: %llu requests in the stream\n", static_cast<unsigned long long>(s.requests));

  // Untimed reference replay in process: the digest every repetition must
  // reproduce, and the simulated-time QoS metrics.
  OutcomeStats ref;
  {
    Rep rep;
    auto cursor = w->open(s);
    replay(s, *cursor, ref, rep, nullptr);
    s.ref_digest = ref.digest.value();
    attempted += rep.submitted;
    g.check("conservation: reference replay answers every request",
            rep.submitted == s.requests && ref.outcomes == s.requests, s.requests);
  }
  w->validate(s, opt, g);
  if (!opt.trace) g.check("peak_rss_mb: probe process answered every request", rss_mb > 0);

  Metrics metrics;
  SpanLog log;
  const double reads = static_cast<double>(std::max<std::uint64_t>(ref.reads, 1));
  if (!opt.trace) {
    std::vector<double> tput, p50, p99, rep_setup;
    const double warmup_s = opt.tiny ? 0.0 : std::min(2.0, 0.2 * opt.seconds);
    repeat(*w, s, warmup_s, opt.seconds, 3, nullptr, g, [&](const Rep& r, const OutcomeStats& st) {
      tput.push_back(static_cast<double>(st.outcomes) / r.wall_s / 1e6);
      if (w->over_wire()) {
        p50.push_back(static_cast<double>(r.rtt_ns.percentile(0.50)) / 1e3);
        p99.push_back(static_cast<double>(r.rtt_ns.percentile(0.99)) / 1e3);
        rep_setup.push_back(r.setup_s);
      }
      attempted += r.submitted;
      const std::uint64_t answered = st.outcomes + r.pushbacks;
      bad += st.failed + st.shed + r.pushbacks + r.dropped +
             (r.submitted > answered ? r.submitted - answered : 0);
      // Spare set-ups after every repetition, on the same CPU, for
      // kSetupSliceNs (at least one). Sampled across the whole run like
      // the repetitions, setup_s sees the same quiet and busy spells of the
      // host; a set-up of under a millisecond is timed thousands of times.
      const std::int64_t slice0 = now_ns();
      do {
        Setup spare;
        timed_setup(*w, spare, opt, setup_times);
      } while (now_ns() - slice0 < (opt.tiny ? 0 : kSetupSliceNs));
    });
    std::printf("setup: %zu set-ups timed\n", setup_times.size());
    auto sorted = tput;
    std::sort(sorted.begin(), sorted.end());
    std::printf("timed: %zu repetitions of %llu requests; throughput min %.4g q1 %.4g "
                "median %.4g q3 %.4g max %.4g Mreq/s\n",
                tput.size(), static_cast<unsigned long long>(s.requests), sorted.front(),
                sorted[sorted.size() / 4], median(tput), sorted[sorted.size() * 3 / 4],
                sorted.back());
    // Timings are best-quarter medians over the repetitions (see
    // best_quarter); setup_s adds the daemon's per-session start + connect.
    metrics = {
        {"throughput_mreq_s", best_quarter(tput, true), "Mreq/s"},
        {"setup_s", best_quarter(setup_times, false) + best_quarter(rep_setup, false), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"sim_response_p99_ms", static_cast<double>(ref.response_ns.percentile(0.99)) / 1e6, "ms"},
        {"sim_e2e_p50_ms", static_cast<double>(ref.e2e_ns.percentile(0.50)) / 1e6, "ms"},
        {"sim_e2e_p99_ms", static_cast<double>(ref.e2e_ns.percentile(0.99)) / 1e6, "ms"},
        {"deferred_pct", 100.0 * static_cast<double>(ref.deferred) / reads, "%"},
        {"deadline_miss_pct", 100.0 * static_cast<double>(ref.deadline_miss) / reads, "%"},
        {"failed_pct",
         100.0 * static_cast<double>(bad) /
             static_cast<double>(std::max<std::uint64_t>(attempted, 1)),
         "%"},
    };
    if (w->over_wire()) {
      metrics.insert(metrics.begin() + 3, {{"rtt_p50_us", best_quarter(p50, false), "us"},
                                           {"rtt_p99_us", best_quarter(p99, false), "us"}});
    }
  } else {
    run_traced(*w, s, opt, g, metrics, log, attempted);
  }

  for (const auto& m : metrics) {
    std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  g.print();

  // Written out at the end: spans (traced mode) and the full result record.
  std::filesystem::create_directories(opt.out_dir);
  const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed);
  if (opt.trace) {
    const SpanRuns all{};
    for (const auto& name : log.names()) {
      std::printf("span %-24s total %10.3f ms  self %10.3f ms\n", name.c_str(),
                  log.total_ns(name, all) / 1e6, log.self_ns(name, all) / 1e6);
    }
    if (log.write_chrome_json(stem + "-spans.json")) {
      std::printf("spans: %zu written to %s-spans.json\n", log.spans().size(), stem.c_str());
    }
  }
  const bool correct = g.all_passed() && bad == 0;
  const std::uint64_t failed = bad + g.failed_ops();
  std::string judged = "{";
  std::string all = "{";
  for (const auto& m : metrics) {
    const std::string entry = "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
                              ", \"unit\": \"" + m.unit + "\"}";
    all += (all.size() > 1 ? ", " : "") + entry;
    bool keep = opt.trace;
    for (const char* name : kJudged) keep = keep || m.name == name;
    if (keep) judged += (judged.size() > 1 ? ", " : "") + entry;
  }
  judged += "}";
  all += "}";
  const std::string head = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                           ", \"attempted\": " +
                           std::to_string(std::max<std::uint64_t>(attempted, 1)) +
                           ", \"failed\": " + std::to_string(failed);
  const std::string record = stem + (opt.trace ? "-trace1" : "-trace0") + ".json";
  if (std::FILE* f = std::fopen(record.c_str(), "w")) {
    std::fprintf(f, "%s, \"workload\": \"%s\", \"provenance\": \"%s\", \"metrics\": %s}\n",
                 head.c_str(), opt.workload.c_str(), json_escape(provenance).c_str(), all.c_str());
    std::fclose(f);
  }
  if (!s.file.empty()) std::filesystem::remove(s.file);
  std::printf("%s, \"metrics\": %s}\n", head.c_str(), judged.c_str());
  return correct ? 0 : 1;
}
