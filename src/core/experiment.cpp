#include "core/experiment.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "core/sampler.hpp"
#include "decluster/schemes.hpp"
#include "design/catalog.hpp"
#include "design/constructions.hpp"
#include "design/galois.hpp"
#include "design/resolution.hpp"
#include "design/transversal.hpp"
#include "trace/disksim_format.hpp"
#include "trace/msr_format.hpp"
#include "trace/synthetic.hpp"
#include "trace/workload.hpp"

namespace flashqos::core {
namespace {

[[noreturn]] void fail(const std::string& msg) { throw std::runtime_error(msg); }

/// Reads the whitespace-separated fields of one `key = value` line. Every
/// field must parse whole and nothing may follow the last one; otherwise
/// the line is rejected with its key, its value and the expected shape.
class Fields {
 public:
  Fields(const char* section, const char* key, const std::string& value,
         const char* want)
      : ss_(value), section_(section), key_(key), want_(want) {}

  /// Required fields, in order.
  template <typename... T>
  void need(T&... fields) {
    (read(fields), ...);
  }

  /// One optional field: false when the line has already ended.
  template <typename T>
  bool maybe(T& field) {
    if (ended()) return false;
    read(field);
    return true;
  }

  void end() {
    if (!ended()) reject();
  }

  /// A field read in milliseconds, as SimTime (Config::parse_ms).
  [[nodiscard]] SimTime ms(double field) const {
    return Config::parse_ms(section_, key_, ss_.str(), field);
  }

 private:
  /// A field must stop at whitespace or the end of the line: "5O.0" reads
  /// as 5 and leaves "O.0", which is a typo, not the next field. An integer
  /// field must also fit its type ("-1" is not a device or a count), and a
  /// double field must be finite.
  template <typename T>
  void read(T& field) {
    if constexpr (std::is_integral_v<T>) {
      std::string text;
      if (!(ss_ >> text)) reject();
      field = Config::parse_int<T>(section_, key_, ss_.str(), text);
    } else {
      if (!(ss_ >> field)) reject();
      if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(field)) reject();
      }
      const auto next = ss_.peek();
      if (next != std::char_traits<char>::eof() && std::isspace(next) == 0) reject();
    }
  }
  bool ended() { return (ss_ >> std::ws).eof(); }
  [[noreturn]] void reject() const {
    fail(std::string("config: [") + section_ + "] " + key_ + " = " + ss_.str() +
         " is malformed (want: " + want_ + ")");
  }

  std::istringstream ss_;
  const char* section_;
  const char* key_;
  const char* want_;
};

/// A design shorthand's numeric argument, parsed whole: decimal digits
/// only (no sign, no trailing text) and within std::uint32_t.
std::uint32_t design_arg(std::string_view text, const std::string& spec) {
  std::uint32_t v = 0;
  const char* const last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, v);
  if (ec != std::errc{} || end != last) fail("bad design argument: " + spec);
  return v;
}

std::unique_ptr<design::BlockDesign> make_design(const std::string& spec) {
  // Catalog names first.
  for (const auto& e : design::catalog()) {
    if (e.name == spec) {
      return std::make_unique<design::BlockDesign>(e.make());
    }
  }
  // Constructor shorthands: sts:v, ag:q, pg:q, td:k,n, kts:15.
  const auto colon = spec.find(':');
  if (colon != std::string::npos) {
    const std::string_view kind = std::string_view(spec).substr(0, colon);
    const std::string_view arg = std::string_view(spec).substr(colon + 1);
    // Each constructor's precondition, checked first, so a shorthand that
    // names no design fails config load instead of aborting.
    const auto require = [&](bool ok, const char* why) {
      if (!ok) fail("no such design: " + spec + " (" + why + ")");
    };
    if (kind == "sts") {
      const auto v = design_arg(arg, spec);
      require(design::sts_exists(v) && v >= 7, "sts:v needs v = 1 or 3 mod 6, v >= 7");
      return std::make_unique<design::BlockDesign>(design::sts(v));
    }
    if (kind == "ag" || kind == "pg") {
      const auto q = design_arg(arg, spec);
      require(design::is_prime_power(q), "the order q must be a prime power");
      require(design::field_degree(q) <= design::kMaxFieldDegree,
              "GF(q) is built for q = p^k with k <= 6 only");
      return std::make_unique<design::BlockDesign>(
          kind == "ag" ? design::affine_plane_gf(q) : design::projective_plane_gf(q));
    }
    if (kind == "kts" && arg == "15") {
      return std::make_unique<design::BlockDesign>(design::kirkman_15());
    }
    if (kind == "td") {
      const auto comma = arg.find(',');
      if (comma == std::string_view::npos) fail("td needs k,n: " + spec);
      const auto k = design_arg(arg.substr(0, comma), spec);
      const auto n = design_arg(arg.substr(comma + 1), spec);
      require(design::is_prime(n) && k >= 2 && k <= n + 1,
              "td:k,n needs n prime and 2 <= k <= n+1");
      return std::make_unique<design::BlockDesign>(design::transversal_design(k, n));
    }
  }
  fail("unknown design: " + spec +
       " (catalog name, or sts:v / ag:q / pg:q / td:k,n / kts:15)");
}

/// The workload's last arrival, `spread` past the start of interval
/// `last`, must not pass kMaxEventTime, or the replay would refuse the
/// trace after load.
void check_last_arrival(const Config& cfg, SimTime interval, std::uint64_t last,
                        SimTime spread) {
  const auto room = static_cast<std::uint64_t>(kMaxEventTime - spread);
  if (interval > 0 && last > room / static_cast<std::uint64_t>(interval)) {
    fail("config: [workload] interval_ms = " + cfg.get("workload", "interval_ms", "0.133") +
         " puts interval " + std::to_string(last) +
         " past the latest arrival time, 2^62 ns");
  }
}

trace::Trace make_workload(const Config& cfg) {
  const std::string kind = cfg.get("workload", "kind", "synthetic");
  // A scale must be positive: the generators size the trace by it.
  const double scale =
      cfg.get_double("workload", "scale", 0.25, std::numeric_limits<double>::min());
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("workload", "seed", 42));
  if (kind == "exchange" || kind == "tpce") {
    auto p = kind == "exchange" ? trace::exchange_params(scale, seed)
                                : trace::tpce_params(scale, seed);
    p.write_fraction = cfg.get_double("workload", "write_fraction", 0.0, 0.0, 1.0);
    if (cfg.has("workload", "report_intervals")) {
      p.report_intervals = cfg.get_int<std::size_t>("workload", "report_intervals", 0);
    }
    return trace::generate_workload(p);
  }
  if (kind == "synthetic") {
    trace::SyntheticParams p;
    p.bucket_pool = cfg.get_int<std::size_t>("workload", "bucket_pool", 36, 1);
    p.interval = cfg.get_ms("workload", "interval_ms", 0.133);
    // Each interval draws distinct buckets, so a batch fits in the pool.
    p.requests_per_interval = cfg.get_int<std::uint32_t>(
        "workload", "requests_per_interval", 5, 1,
        static_cast<std::uint32_t>(
            std::min<std::size_t>(p.bucket_pool, std::numeric_limits<std::uint32_t>::max())));
    p.total_requests = cfg.get_int<std::size_t>("workload", "total_requests", 10000);
    p.seed = seed;
    if (p.total_requests > 0) {
      check_last_arrival(cfg, p.interval,
                         (p.total_requests - 1) / p.requests_per_interval, 0);
    }
    return trace::generate_synthetic(p);
  }
  if (kind == "multi_tenant") {
    trace::MultiTenantParams p;
    p.interval = cfg.get_ms("workload", "interval_ms", 0.133);
    p.intervals = cfg.get_int<std::size_t>("workload", "intervals", 100, 1);
    p.bucket_base = cfg.get_int<std::size_t>("workload", "bucket_base", 0);
    p.seed = seed;
    // Jittered arrivals sit up to jitter_slots steps of interval /
    // (jitter_slots + 1) ns past their boundary. A step must be at least
    // 1 ns, so jitter_slots stays below the interval's length in ns; past
    // it, arrivals spill into later intervals and come out of order.
    const auto max_jitter = static_cast<std::uint32_t>(std::clamp<SimTime>(
        p.interval - 1, 0, std::numeric_limits<std::uint32_t>::max() - 1));
    p.jitter_slots =
        cfg.get_int<std::uint32_t>("workload", "jitter_slots", 0, 0, max_jitter);
    const SimTime slots = p.jitter_slots;
    check_last_arrival(cfg, p.interval, p.intervals - 1,
                       slots * (p.interval / (slots + 1)));
    for (const auto& spec : cfg.all("tenants", "load")) {
      Fields f("tenants", "load", spec,
               "requests_per_interval bucket_pool [active_intervals]");
      trace::TenantLoad l;
      f.need(l.requests_per_interval, l.bucket_pool);
      f.maybe(l.active_intervals);
      f.end();
      if (l.bucket_pool == 0) {
        fail("config: [tenants] load = " + spec + " has bucket_pool 0, not at least 1");
      }
      p.tenants.push_back(l);
    }
    if (p.tenants.empty()) {
      fail("multi_tenant workload needs one 'load =' line per tenant in [tenants]");
    }
    if (p.tenants.size() != cfg.all("tenants", "tenant").size()) {
      fail("multi_tenant workload: 'load =' lines must match 'tenant =' lines "
           "one-to-one (same index order)");
    }
    return trace::generate_multi_tenant(p);
  }
  if (kind == "disksim" || kind == "msr") {
    const std::string path = cfg.get("workload", "path");
    if (path.empty()) fail("workload kind " + kind + " needs a path");
    std::ifstream in(path);
    if (!in) fail("cannot open workload file: " + path);
    const auto volumes = cfg.get_int<std::uint32_t>("workload", "volumes", 0);
    if (kind == "disksim") {
      if (volumes == 0) fail("disksim workloads need volumes = N");
      return trace::read_disksim_ascii(in, path, volumes, kSecond);
    }
    trace::MsrReadOptions opts;
    opts.volumes = volumes;
    opts.reads_only = cfg.get_bool("workload", "reads_only", false);
    return trace::read_msr_csv(in, path, opts);
  }
  fail("unknown workload kind: " + kind);
}

}  // namespace

Experiment build_experiment_config(const Config& cfg) {
  // The sections some builder reads ([service] is the daemon's). Any other,
  // say a misspelled [faults], would be kept and never read, and the run
  // would silently use the defaults it was meant to override.
  static constexpr std::array<std::string_view, 6> kKnown = {
      "design", "pipeline", "workload", "tenants", "faults", "service"};
  for (const auto& section : cfg.sections()) {
    if (std::find(kKnown.begin(), kKnown.end(), section) == kKnown.end()) {
      fail("unknown config section [" + section + "]");
    }
  }

  Experiment e;
  e.design = make_design(cfg.get("design", "name", "(9,3,1)"));
  e.scheme = std::make_unique<decluster::DesignTheoretic>(
      *e.design, cfg.get_bool("design", "rotations", true));

  e.pipeline.qos_interval = cfg.get_ms("pipeline", "interval_ms", 0.133);
  e.pipeline.access_budget =
      cfg.get_int<std::uint32_t>("pipeline", "access_budget", 1, 1, kMaxAccessBudget);

  const std::string retrieval = cfg.get("pipeline", "retrieval", "online");
  if (retrieval == "online") {
    e.pipeline.retrieval = RetrievalMode::kOnline;
  } else if (retrieval == "aligned") {
    e.pipeline.retrieval = RetrievalMode::kIntervalAligned;
  } else {
    fail("unknown retrieval mode: " + retrieval);
  }

  const std::string admission = cfg.get("pipeline", "admission", "deterministic");
  if (admission == "none") {
    e.pipeline.admission = AdmissionMode::kNone;
  } else if (admission == "deterministic") {
    e.pipeline.admission = AdmissionMode::kDeterministic;
  } else if (admission == "statistical") {
    e.pipeline.admission = AdmissionMode::kStatistical;
    e.pipeline.epsilon = cfg.get_double("pipeline", "epsilon", 0.001, 0.0, 1.0);
  } else {
    fail("unknown admission mode: " + admission);
  }

  const std::string mapping = cfg.get("pipeline", "mapping", "fim");
  if (mapping == "fim") {
    e.pipeline.mapping = MappingMode::kFim;
  } else if (mapping == "modulo") {
    e.pipeline.mapping = MappingMode::kModulo;
  } else {
    fail("unknown mapping mode: " + mapping);
  }

  const std::string scheduler = cfg.get("pipeline", "scheduler", "replica");
  if (scheduler == "replica") {
    e.pipeline.scheduler = SchedulerMode::kReplicaScheduled;
  } else if (scheduler == "primary") {
    e.pipeline.scheduler = SchedulerMode::kPrimaryOnly;
  } else {
    fail("unknown scheduler mode: " + scheduler);
  }

  // Multi-tenant WFQ front end: one line per tenant class, index order
  // (trace events name tenants by this index).
  // "tenant = <name> <weight> <reservation> [capacity [mark]]"
  for (const auto& spec : cfg.all("tenants", "tenant")) {
    Fields f("tenants", "tenant", spec, "name weight reservation [capacity [mark]]");
    TenantSpec t;
    f.need(t.name, t.weight, t.reservation);
    if (f.maybe(t.queue_capacity)) {
      // Default mark threshold tracks the capacity at the stock 3/4 ratio
      // unless the line pins it explicitly.
      t.mark_threshold = std::max<std::size_t>(1, t.queue_capacity * 3 / 4);
      f.maybe(t.mark_threshold);
    }
    f.end();
    e.pipeline.tenants.push_back(std::move(t));
  }

  // The fault plan. Scripted outages: "fail = device fail_ms recover_ms"
  // (-1 or no recover = permanent).
  for (const auto& spec : cfg.all("faults", "fail")) {
    Fields f("faults", "fail", spec, "device fail_ms [recover_ms]");
    std::uint32_t device = 0;
    double fail_ms = 0.0, recover_ms = -1.0;
    f.need(device, fail_ms);
    f.maybe(recover_ms);
    f.end();
    e.pipeline.faults.outages.push_back(
        {.device = device,
         .fail_at = f.ms(fail_ms),
         .recover_at =
             recover_ms < 0 ? fault::DeviceFailure::kNeverRecovers : f.ms(recover_ms)});
  }

  // Scripted spikes, seeded generators, rebuild policy, retry timeout.
  for (const auto& spec : cfg.all("faults", "spike")) {
    Fields f("faults", "spike", spec, "device start_ms end_ms factor");
    std::uint32_t device = 0;
    double start_ms = 0.0, end_ms = 0.0, factor = 0.0;
    f.need(device, start_ms, end_ms, factor);
    f.end();
    e.pipeline.faults.spikes.push_back({device, f.ms(start_ms), f.ms(end_ms), factor});
  }
  if (cfg.has("faults", "transient")) {
    Fields f("faults", "transient", cfg.get("faults", "transient"), "count mean_ms");
    std::uint32_t count = 0;
    double mean_ms = 0.0;
    f.need(count, mean_ms);
    f.end();
    e.pipeline.faults.transient = {count, f.ms(mean_ms)};
  }
  if (cfg.has("faults", "latency_spike")) {
    Fields f("faults", "latency_spike", cfg.get("faults", "latency_spike"),
             "count mean_ms factor");
    std::uint32_t count = 0;
    double mean_ms = 0.0, factor = 0.0;
    f.need(count, mean_ms, factor);
    f.end();
    e.pipeline.faults.latency_spike = {count, f.ms(mean_ms), factor};
  }
  e.pipeline.faults.rebuild.pages_per_second =
      cfg.get_double("faults", "rebuild", 0.0, 0.0);
  if (cfg.has("faults", "retry_timeout_ms")) {
    e.pipeline.faults.retry.timeout = cfg.get_ms("faults", "retry_timeout_ms", 0.0);
  }
  e.pipeline.faults.seed =
      static_cast<std::uint64_t>(cfg.get_int("faults", "seed", 1));

  if (e.pipeline.admission == AdmissionMode::kStatistical) {
    const auto samples = cfg.get_int<std::size_t>("pipeline", "samples", 2000);
    // The table holds max_k + 1 entries, which must not wrap to 0.
    const auto max_k = cfg.get_int<std::uint32_t>("pipeline", "p_table_max_k", 48, 0,
                                                  UINT32_MAX - 1);
    e.pipeline.p_table = sample_optimal_probabilities(
        *e.scheme, max_k, {.samples_per_size = samples, .seed = 7});
    e.pipeline.p_table_samples = samples;
  }

  const auto diags = e.pipeline.validate(e.scheme->devices());
  if (!diags.empty()) {
    std::string msg = "invalid experiment config:";
    for (const auto& d : diags) msg += "\n  - " + d;
    fail(msg);
  }

  return e;
}

Experiment build_experiment(const Config& cfg) {
  Experiment e = build_experiment_config(cfg);
  e.workload = make_workload(cfg);
  return e;
}

PipelineResult run_experiment(const Config& cfg) {
  const auto e = build_experiment(cfg);
  return QosPipeline(*e.scheme, e.pipeline).run(e.workload);
}

std::string experiment_template() {
  return R"(# flashqos_sim experiment file
[design]
name = (9,3,1)            # catalog name, or sts:15 / ag:4 / pg:8 / td:3,5 / kts:15
rotations = true

[pipeline]
interval_ms = 0.133
access_budget = 1
retrieval = online        # online | aligned
admission = deterministic # none | deterministic | statistical
# epsilon = 0.001         # statistical only
mapping = fim             # fim | modulo
scheduler = replica       # replica | primary

[workload]
kind = exchange           # exchange | tpce | synthetic | disksim | msr
scale = 0.25
seed = 42
write_fraction = 0.0
# path = trace.csv        # for disksim / msr kinds
# volumes = 9
# intervals = 100         # multi_tenant kind: trace length in intervals
# jitter_slots = 0        # multi_tenant kind: spread arrivals inside T

[tenants]
# Multi-tenant WFQ front end (empty section = single-tenant pipeline).
# One line per tenant class; trace events name tenants by line order.
# tenant = gold 4.0 2 64 48     # name weight reservation [capacity [mark]]
# tenant = bronze 1.0 0
# With workload kind = multi_tenant, pair each tenant with a load line:
# load = 3 8                    # requests/interval bucket_pool [active_intervals]
# load = 1 8 50

[faults]
# seed = 1                      # generator seed; same seed -> same windows
# fail = 3 10.0 50.0            # device, fail-at ms, recover-at ms (-1 = never)
# spike = 2 5.0 20.0 4.0        # device, start ms, end ms, service-time factor
# transient = 4 5.0             # generated outages: count, mean duration ms
# latency_spike = 2 5.0 4.0     # generated spikes: count, mean ms, factor
# rebuild = 50000               # hot-spare rebuild pages/second (0 = off)
# retry_timeout_ms = 10.0       # fail stranded requests past this wait
)";
}

}  // namespace flashqos::core
