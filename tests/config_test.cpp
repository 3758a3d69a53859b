// Config parsing, the MSR-Cambridge CSV trace reader, and the
// config-driven experiment builder.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/experiment.hpp"
#include "trace/msr_format.hpp"
#include "util/config.hpp"

namespace flashqos {
namespace {

TEST(Config, ParsesSectionsAndTypes) {
  std::istringstream in(R"(
# comment
[alpha]
name = hello world   ; trailing comment
count = 42
ratio = 0.5
flag = true

[beta]
fail = 1 2 3
fail = 4 5 6
)");
  const auto cfg = Config::parse(in);
  EXPECT_EQ(cfg.get("alpha", "name"), "hello world");
  EXPECT_EQ(cfg.get_int("alpha", "count", 0), 42);
  EXPECT_DOUBLE_EQ(cfg.get_double("alpha", "ratio", 0.0), 0.5);
  EXPECT_TRUE(cfg.get_bool("alpha", "flag", false));
  EXPECT_EQ(cfg.all("beta", "fail").size(), 2u);
  EXPECT_EQ(cfg.all("beta", "fail")[1], "4 5 6");
  EXPECT_EQ(cfg.sections(), (std::vector<std::string>{"alpha", "beta"}));
}

TEST(Config, DefaultsWhenMissing) {
  std::istringstream in("[s]\nk = v\n");
  const auto cfg = Config::parse(in);
  EXPECT_FALSE(cfg.has("s", "absent"));
  EXPECT_EQ(cfg.get("s", "absent", "dflt"), "dflt");
  EXPECT_EQ(cfg.get_int("other", "x", -7), -7);
  EXPECT_FALSE(cfg.get_bool("s", "absent", false));
}

TEST(Config, RejectsMalformedInput) {
  std::istringstream bad1("[unterminated\n");
  EXPECT_THROW(Config::parse(bad1), std::runtime_error);
  std::istringstream bad2("[s]\nno-equals-sign\n");
  EXPECT_THROW(Config::parse(bad2), std::runtime_error);
  std::istringstream bad3("[s]\nx = notanumber\n");
  const auto cfg = Config::parse(bad3);
  EXPECT_THROW((void)cfg.get_int("s", "x", 0), std::runtime_error);
  EXPECT_THROW((void)cfg.get_bool("s", "x", false), std::runtime_error);
}

TEST(MsrFormat, ParsesAndRebasesTimestamps) {
  std::istringstream in(
      "128166372003061629,web,0,Read,8192,8192,151\n"
      "128166372016382155,web,1,Write,16384,16384,303\n"
      "128166372004001000,web,0,Read,0,4096,100\n");
  const auto t = trace::read_msr_csv(in, "msr");
  ASSERT_EQ(t.events.size(), 3u);
  EXPECT_TRUE(trace::valid_trace(t));
  EXPECT_EQ(t.events[0].time, 0) << "rebased to zero";
  EXPECT_EQ(t.events[0].block, 1u) << "offset 8192 / 8 KB";
  EXPECT_TRUE(t.events[0].is_read);
  EXPECT_EQ(t.events[1].block, 0u);
  EXPECT_EQ(t.events[1].size_blocks, 1u) << "4 KB rounds up to one block";
  EXPECT_FALSE(t.events[2].is_read);
  EXPECT_EQ(t.events[2].size_blocks, 2u);
  EXPECT_EQ(t.volumes, 2u);
}

// Rows need not come in time order: the reader sorts them and rebases on
// the earliest, not on the file's first row.
TEST(MsrFormat, RebasesOnTheEarliestRow) {
  std::istringstream in("10,h,0,Read,0,8192,0\n5,h,0,Read,8192,8192,0\n");
  const auto t = trace::read_msr_csv(in, "x");
  ASSERT_EQ(t.events.size(), 2u);
  EXPECT_EQ(t.events[0].time, 0);
  EXPECT_EQ(t.events[0].block, 1u) << "the tick-5 row comes first";
  EXPECT_EQ(t.events[1].time, 500);
  EXPECT_TRUE(trace::valid_trace(t));
}

TEST(MsrFormat, ReadsOnlyFilterAndVolumeOverride) {
  std::istringstream in(
      "100,h,5,Read,0,8192,0\n"
      "200,h,6,Write,8192,8192,0\n");
  trace::MsrReadOptions opts;
  opts.reads_only = true;
  opts.volumes = 3;
  const auto t = trace::read_msr_csv(in, "x", opts);
  ASSERT_EQ(t.events.size(), 1u);
  EXPECT_EQ(t.events[0].device, 5u % 3u);
}

TEST(MsrFormat, RoundTripsThroughWriter) {
  trace::Trace t;
  t.name = "rt";
  t.volumes = 2;
  t.report_interval = kSecond;
  t.events = {{.time = 0, .block = 3, .device = 0, .size_blocks = 1, .is_read = true},
              {.time = kMillisecond, .block = 7, .device = 1, .size_blocks = 2,
               .is_read = false}};
  std::stringstream ss;
  trace::write_msr_csv(t, ss);
  const auto back = trace::read_msr_csv(ss, "rt");
  ASSERT_EQ(back.events.size(), 2u);
  EXPECT_EQ(back.events[0].block, 3u);
  EXPECT_EQ(back.events[1].block, 7u);
  EXPECT_EQ(back.events[1].size_blocks, 2u);
  EXPECT_FALSE(back.events[1].is_read);
}

// Filetime ticks are 100 ns: a row more than 2^62 / 100 ticks after the
// first one is past the simulated-time ceiling (and past 2^63 / 100 the
// product would overflow), so the reader throws.
TEST(MsrFormat, RejectsTimestampsPastTheCeiling) {
  std::istringstream ok("0,h,0,Read,0,8192,0\n46116860184273879,h,0,Read,0,8192,0\n");
  EXPECT_EQ(trace::read_msr_csv(ok, "x").events.at(1).time, 4611686018427387900);
  for (const char* ts : {"46116860184273880", "92233720368547758"}) {
    std::istringstream in("0,h,0,Read,0,8192,0\n" + std::string(ts) +
                          ",h,0,Read,0,8192,0\n");
    EXPECT_THROW(trace::read_msr_csv(in, "x"), std::runtime_error) << ts;
  }
}

TEST(MsrFormat, RejectsMalformedRows) {
  std::istringstream in("not,enough\n");
  EXPECT_THROW(trace::read_msr_csv(in, "x"), std::runtime_error);
  std::istringstream in2("abc,h,0,Read,0,8192,0\n");
  EXPECT_THROW(trace::read_msr_csv(in2, "x"), std::runtime_error);
}

Config config_from(const std::string& text) {
  std::istringstream in(text);
  return Config::parse(in);
}

TEST(Experiment, BuildsDefaultNineThreeOne) {
  const auto cfg = config_from("[workload]\nkind = synthetic\ntotal_requests = 50\n");
  const auto e = core::build_experiment(cfg);
  EXPECT_EQ(e.design->name(), "(9,3,1)");
  EXPECT_EQ(e.scheme->buckets(), 36u);
  EXPECT_EQ(e.workload.events.size(), 50u);
}

TEST(Experiment, DesignShorthands) {
  for (const auto& [spec, points] :
       std::vector<std::pair<std::string, std::uint32_t>>{
           {"sts:15", 15}, {"ag:4", 16}, {"pg:4", 21}, {"td:3,5", 15},
           {"kts:15", 15}, {"(13,3,1)", 13}}) {
    const auto cfg = config_from("[design]\nname = " + spec +
                                 "\n[workload]\nkind = synthetic\n"
                                 "total_requests = 10\n");
    const auto e = core::build_experiment(cfg);
    EXPECT_EQ(e.design->points(), points) << spec;
  }
}

TEST(Experiment, RejectsUnknownNames) {
  EXPECT_THROW(core::build_experiment(config_from("[design]\nname = bogus\n")),
               std::runtime_error);
  EXPECT_THROW(core::build_experiment(
                   config_from("[pipeline]\nretrieval = sideways\n")),
               std::runtime_error);
  EXPECT_THROW(
      core::build_experiment(config_from("[workload]\nkind = mystery\n")),
      std::runtime_error);
  // Shorthand arguments parse whole: "sts:15x" used to run bose(15,3,1),
  // "ag:4.5" AG(2,4), "td:3,5junk" TD(3,5); "sts:-1" wrapped to 2^32 - 1.
  // Whole arguments that name no design (no STS on 4 points, no plane of
  // order 6, TD needs a prime n and k <= n+1) used to abort in the
  // constructor, and so did planes over GF(2^7), a field degree GaloisField
  // does not build.
  for (const std::string spec :
       {"sts:15x", "ag:4.5", "td:3,5junk", "sts:-1", "pg:+3", "td:3,", "sts:",
        "sts:4294967296", "sts:3", "sts:4", "ag:1", "ag:6", "pg:6", "td:9,4",
        "td:7,5", "ag:128", "pg:128"}) {
    try {
      (void)core::build_experiment(config_from("[design]\nname = " + spec + "\n"));
      ADD_FAILURE() << spec << " built";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(spec), std::string::npos)
          << spec << " -> '" << e.what() << "'";
    }
  }
}

TEST(Experiment, ParsesFailures) {
  const auto cfg = config_from(
      "[workload]\nkind = synthetic\ntotal_requests = 10\n"
      "[faults]\nfail = 3 10.0 50.0\nfail = 4 0.0\n");
  const auto e = core::build_experiment(cfg);
  ASSERT_EQ(e.pipeline.faults.outages.size(), 2u);
  EXPECT_EQ(e.pipeline.faults.outages[0].device, 3u);
  EXPECT_EQ(e.pipeline.faults.outages[0].fail_at, 10 * kMillisecond);
  EXPECT_EQ(e.pipeline.faults.outages[0].recover_at, 50 * kMillisecond);
  EXPECT_EQ(e.pipeline.faults.outages[1].recover_at,
            fault::DeviceFailure::kNeverRecovers);
}

/// What build_experiment() throws for `text`; empty when it builds.
std::string build_error(const std::string& text) {
  try {
    (void)core::build_experiment(config_from(text));
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

/// A rejected value must be named in the error, with its key.
void expect_names(const std::string& error, const std::string& key,
                  const std::string& value) {
  EXPECT_NE(error.find(key), std::string::npos) << "error: '" << error << "'";
  EXPECT_NE(error.find(value), std::string::npos) << "error: '" << error << "'";
}

const std::string kTinyWorkload = "[workload]\nkind = synthetic\ntotal_requests = 10\n";

TEST(Experiment, RejectsANumericPrefix) {
  // M = 2 would run (and miss deadlines) although the file said "2x".
  expect_names(build_error(kTinyWorkload + "[pipeline]\naccess_budget = 2x\n"),
               "access_budget", "2x");
  expect_names(build_error(kTinyWorkload + "[pipeline]\ninterval_ms = 0.133ms\n"),
               "interval_ms", "0.133ms");
}

TEST(Experiment, RejectsAFieldThatDoesNotParseWhole) {
  // "5O.0" would read as a 5 ms recovery: a 4 ms outage instead of 49 ms.
  expect_names(build_error(kTinyWorkload + "[faults]\nfail = 3 1.0 5O.0\n"),
               "fail", "3 1.0 5O.0");
  expect_names(build_error(kTinyWorkload + "[faults]\nspike = 2 5.0 2O.0 4.0\n"),
               "spike", "2 5.0 2O.0 4.0");
}

// Integers load within their type's range and the key's own floor,
// instead of wrapping: access_budget = -1 ran as M = 4294967295 and died of
// bad_alloc mid-replay, 4294967297 ran as M = 1, p_table_max_k = -1 left a
// P_k table of zero entries that the sampler wrote past, total_requests =
// -1 asked for 2^64 - 1 events, and a [faults] count of -1 asked for
// 4294967295 generated outages.
TEST(Experiment, RejectsIntegersOutsideTheirRange) {
  const std::string pipeline = kTinyWorkload + "[pipeline]\n";
  const std::string faults = kTinyWorkload + "[faults]\n";
  const std::vector<std::tuple<std::string, std::string, std::string>> cases = {
      {pipeline, "access_budget", "-1"},
      {pipeline, "access_budget", "0"},
      {pipeline, "access_budget", "4294967297"},
      {pipeline + "admission = statistical\n", "p_table_max_k", "-1"},
      {"[workload]\nkind = synthetic\n", "total_requests", "-1"},
      {faults, "transient", "-1 5.0"},
      {faults, "fail", "-1 10.0"},
  };
  for (const auto& [prefix, key, value] : cases) {
    const auto error = build_error(prefix + key + " = " + value + "\n");
    expect_names(error, key, value);
    EXPECT_NE(error.find("an integer in ["), std::string::npos) << error;
  }
  EXPECT_EQ(build_error(pipeline + "access_budget = 2\n"), "");
}

// [workload] values the generators cannot honour fail at load with the key
// named, instead of aborting in the cursor's precondition or in the
// replay's trace check after load.
struct BadWorkload {
  const char* name;    // what the test is named by
  std::string config;  // a whole config
  std::string key;     // what the error must name
  std::string value;

  friend void PrintTo(const BadWorkload& bad, std::ostream* os) { *os << bad.name; }
};

class RejectsWorkload : public ::testing::TestWithParam<BadWorkload> {};

TEST_P(RejectsWorkload, AtLoadNamingTheKey) {
  const auto& bad = GetParam();
  expect_names(build_error(bad.config), bad.key, bad.value);
}

const std::string kSynthetic = "[workload]\nkind = synthetic\ntotal_requests = 15\n";
const std::string kTenants =
    "[workload]\nkind = multi_tenant\nintervals = 4\n"
    "[tenants]\ntenant = gold 1.0 0\nload = 2 8\n[workload]\n";

INSTANTIATE_TEST_SUITE_P(
    Experiment, RejectsWorkload,
    ::testing::Values(
        BadWorkload{"ZeroBucketPool", kSynthetic + "bucket_pool = 0\n", "bucket_pool", "0"},
        BadWorkload{"ZeroRequestsPerInterval", kSynthetic + "requests_per_interval = 0\n",
                    "requests_per_interval", "0"},
        BadWorkload{"BatchLargerThanPool",
                    kSynthetic + "bucket_pool = 4\nrequests_per_interval = 5\n",
                    "requests_per_interval", "5"},
        BadWorkload{"NegativeInterval", kSynthetic + "interval_ms = -1\n", "interval_ms", "-1"},
        BadWorkload{"NanInterval", kSynthetic + "interval_ms = nan\n", "interval_ms", "nan"},
        BadWorkload{"HugeInterval", kSynthetic + "interval_ms = 1e300\n", "interval_ms",
                    "1e300"},
        // 15 requests at 5 per interval arrive at 0, T and 2T = 6e18 ns.
        BadWorkload{"LastArrivalPastTheCeiling", kSynthetic + "interval_ms = 3e12\n",
                    "interval_ms", "3e12"},
        BadWorkload{"ZeroIntervals", kTenants + "intervals = 0\n", "intervals", "0"},
        BadWorkload{"ZeroTenantPool",
                    "[workload]\nkind = multi_tenant\nintervals = 4\n"
                    "[tenants]\ntenant = gold 1.0 0\nload = 2 0\n",
                    "load", "2 0"},
        BadWorkload{"TenantArrivalPastTheCeiling", kTenants + "interval_ms = 3e12\n",
                    "interval_ms", "3e12"},
        // 1000 ns intervals: 1000 slots round the step to 0 ns.
        BadWorkload{"JitterSlotsReachTheInterval",
                    kTenants + "interval_ms = 0.001\njitter_slots = 1000\n", "jitter_slots",
                    "1000"}));

// Config times go through one reader. A double past int64 ns used to go
// through std::llround, whose result is unspecified, so these loaded as
// negative times and failed later with a misleading diagnostic ("an empty
// window", "qos_interval must be positive") or not at all (NaN).
TEST(Experiment, RejectsTimesOffTheClockNamingTheKey) {
  const std::vector<std::tuple<std::string, std::string, std::string>> cases = {
      {"faults", "fail", "3 1.0 1e300"},
      {"pipeline", "interval_ms", "1e300"},
      {"faults", "retry_timeout_ms", "nan"},
      {"faults", "spike", "2 1.0 1e300 2"},
      {"faults", "transient", "2 1e300"},
      {"faults", "latency_spike", "2 -1.0 4.0"},
      {"faults", "fail", "3 -1.0 5.0"},
  };
  for (const auto& [section, key, value] : cases) {
    const auto error =
        build_error(kTinyWorkload + "[" + section + "]\n" + key + " = " + value + "\n");
    expect_names(error, key, value);
    EXPECT_NE(error.find("is not a time in"), std::string::npos) << error;
  }
  // A negative recovery still means the device never comes back.
  EXPECT_EQ(build_error(kTinyWorkload + "[faults]\nfail = 3 1.0 -1e300\n"), "");
}

// The slot matcher keeps M slots per device: a budget past the cap used to
// load and validate, then die of bad_alloc when the replay sized the table.
TEST(Experiment, CapsTheAccessBudget) {
  const std::string pipeline = kTinyWorkload + "[pipeline]\n";
  for (const std::string value : {"65536", "4294967295"}) {
    const auto error = build_error(pipeline + "access_budget = " + value + "\n");
    expect_names(error, "access_budget", value);
    EXPECT_NE(error.find("an integer in [1, 65535]"), std::string::npos) << error;
  }
  EXPECT_EQ(build_error(pipeline + "access_budget = 65535\n"), "");
}

TEST(PipelineConfigValidate, RejectsAnAccessBudgetPastTheCap) {
  core::PipelineConfig cfg;
  cfg.access_budget = core::kMaxAccessBudget;
  EXPECT_TRUE(cfg.validate(9).empty());
  cfg.access_budget = core::kMaxAccessBudget + 1;
  const auto diags = cfg.validate(9);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].find("access_budget"), std::string::npos) << diags[0];
}

// NaN fails every comparison, so a range check written as two rejections
// let it through: epsilon = nan validated and then aborted the replay on
// StatisticalAdmission's contract check.
TEST(PipelineConfigValidate, RejectsANanEpsilonOrProbability) {
  core::PipelineConfig cfg;
  cfg.admission = core::AdmissionMode::kStatistical;
  cfg.p_table = {1.0, 0.5, 0.25};
  EXPECT_TRUE(cfg.validate(9).empty());
  cfg.epsilon = std::nan("");
  auto diags = cfg.validate(9);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].find("epsilon"), std::string::npos) << diags[0];
  cfg.epsilon = 0.01;
  cfg.p_table[1] = std::nan("");
  diags = cfg.validate(9);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].find("p_table"), std::string::npos) << diags[0];
}

// Config doubles load through one range-checked reader. write_fraction =
// nan used to replay with no writes at all, epsilon = nan to abort the
// replay, and scale = inf and rebuild = nan to load as given.
TEST(Experiment, RejectsDoublesOutsideTheirRange) {
  const std::string exchange = "[workload]\nkind = exchange\nscale = 0.01\n";
  const std::vector<std::tuple<std::string, std::string, std::string>> cases = {
      {exchange, "write_fraction", "nan"},
      {exchange, "write_fraction", "1.5"},
      {exchange, "write_fraction", "-0.1"},
      {"[workload]\nkind = exchange\n", "scale", "inf"},
      {kTinyWorkload + "[faults]\n", "rebuild", "nan"},
      {kTinyWorkload + "[pipeline]\nadmission = statistical\n", "epsilon", "nan"},
  };
  for (const auto& [prefix, key, value] : cases) {
    const auto error = build_error(prefix + key + " = " + value + "\n");
    expect_names(error, key, value);
    EXPECT_NE(error.find("a number in ["), std::string::npos) << error;
  }
  EXPECT_EQ(build_error(kTinyWorkload + "[faults]\nrebuild = 50000\n"), "");
}

TEST(Experiment, AcceptsTheWorkloadLimits) {
  EXPECT_EQ(build_error(kSynthetic + "bucket_pool = 5\nrequests_per_interval = 5\n"), "");
  EXPECT_EQ(build_error(kSynthetic + "interval_ms = 2e12\n"), "");
  EXPECT_EQ(build_error(kTenants + "interval_ms = 0.001\njitter_slots = 999\n"), "");
}

TEST(Experiment, RejectsFieldsAfterTheLastOne) {
  // {config up to the line, the line}; each config builds without "junk".
  const std::vector<std::pair<std::string, std::string>> cases = {
      {kTinyWorkload + "[faults]\n", "fail = 3 1.0 50.0 junk"},
      {kTinyWorkload + "[faults]\n", "spike = 2 5.0 20.0 4.0 junk"},
      {kTinyWorkload + "[faults]\n", "transient = 4 5.0 junk"},
      {kTinyWorkload + "[faults]\n", "latency_spike = 2 5.0 4.0 junk"},
      {kTinyWorkload + "[tenants]\n", "tenant = gold 4.0 2 64 48 junk"},
      {"[workload]\nkind = multi_tenant\nintervals = 4\n"
       "[tenants]\ntenant = gold 4.0 2\n",
       "load = 3 8 2 junk"},
  };
  for (const auto& [prefix, line] : cases) {
    const auto eq = line.find(" = ");
    expect_names(build_error(prefix + line + "\n"), line.substr(0, eq),
                 line.substr(eq + 3));
    const auto clean = line.substr(0, line.rfind(" junk"));
    EXPECT_EQ(build_error(prefix + clean + "\n"), "") << clean;
  }
}

TEST(Experiment, RejectsUnknownSections) {
  // Kept and never read, either would replay a healthy array.
  for (const std::string section : {"[failures]", "[fualts]"}) {
    EXPECT_EQ(build_error(kTinyWorkload + section + "\nfail = 3 1.0 50.0\n"),
              "unknown config section " + section);
  }
}

TEST(Experiment, StatisticalAdmissionSamplesPkTable) {
  const auto cfg = config_from(
      "[pipeline]\nadmission = statistical\nepsilon = 0.01\nsamples = 100\n"
      "p_table_max_k = 12\n[workload]\nkind = synthetic\ntotal_requests = 10\n");
  const auto e = core::build_experiment(cfg);
  EXPECT_EQ(e.pipeline.p_table.size(), 13u);
  EXPECT_DOUBLE_EQ(e.pipeline.epsilon, 0.01);
}

TEST(Experiment, RunsEndToEnd) {
  const auto cfg = config_from(
      "[workload]\nkind = synthetic\nrequests_per_interval = 5\n"
      "total_requests = 500\n");
  const auto r = core::run_experiment(cfg);
  EXPECT_EQ(r.outcomes.size(), 500u);
  EXPECT_EQ(r.deadline_violations, 0u);
}

TEST(Experiment, TemplateParsesAndRuns) {
  auto text = core::experiment_template();
  // Shrink the template's workload so the test stays fast.
  text += "\n[workload]\nkind = synthetic\ntotal_requests = 100\n";
  std::istringstream in(text);
  const auto cfg = Config::parse(in);
  const auto r = core::run_experiment(cfg);
  EXPECT_EQ(r.outcomes.size(), 100u);
}

}  // namespace
}  // namespace flashqos
