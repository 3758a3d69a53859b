// flashqos_verify — audit the combinatorial structures behind the QoS
// guarantees.
//
// Runs every verifier in src/verify over catalog designs (by default all
// with N <= 64): design structure, bucket-table expansion, allocation
// invariants, block-mapper behaviour, retrieval cross-checks (DTR vs exact
// max-flow), and the S = (c-1)M² + cM bound — exhaustively enumerated where
// the subset count allows, adversarially sampled where it does not.
// Exit code 0 iff every check passes; the pre-merge gate (scripts/check.sh)
// relies on that.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "check/models.hpp"
#include "cli/options.hpp"
#include "decluster/schemes.hpp"
#include "design/catalog.hpp"
#include "verify/daemon_oracle.hpp"
#include "verify/fairness_oracle.hpp"
#include "verify/fault_oracle.hpp"
#include "verify/fim_oracle.hpp"
#include "verify/guarantee.hpp"
#include "verify/invariants.hpp"
#include "verify/obs_check.hpp"
#include "verify/overload_oracle.hpp"
#include "verify/resim_oracle.hpp"
#include "verify/stream_oracle.hpp"

int main(int argc, char** argv) {
  flashqos::cli::Options opts(
      "flashqos_verify",
      "audit the combinatorial structures behind the QoS guarantees");
  opts.integer("max-devices", "N",
               "only designs with at most N devices (default 64)")
      .value("design", "NAME",
             "check one catalog design (repeatable); overrides --max-devices",
             /*repeatable=*/true)
      .integer("trials", "K",
               "retrieval cross-check trials per design (default 60)")
      .integer("samples", "K",
               "sampled guarantee batches per (design, M) (default 200)")
      .integer("budget", "K",
               "exhaustive-enumeration budget in subsets (default 1e6)")
      .integer("max-accesses", "M",
               "check the S-bound for M = 1..M (default 2)", 0,
               std::numeric_limits<std::uint32_t>::max())
      .integer("seed", "S", "RNG seed for sampled checks (default 1)")
      .flag("replay",
            "also re-simulate every device op of one replay per mode "
            "combination (and two failure-window configs) on "
            "flashsim::FlashArray, on the (9,3,1) and (13,3,1) schemes")
      .flag("obs",
            "audit the observability layer: replay a set of pipeline "
            "configs on the (9,3,1) scheme and check the recorded metrics, "
            "windowed time-series (exact window identity + seeded-defect "
            "mutation check), SLO burn-rate pages, and trace spans against "
            "the returned outcomes (skipped when FLASHQOS_OBS=OFF)")
      .flag("stream",
            "audit streaming == in-memory replay identity: every shared "
            "result field, registry metric, and windowed time-series point "
            "must be bit-identical between run() and run_stream() at batch "
            "sizes 1/7/4096, through the generator cursors, and through "
            "the chunked disksim reader; the seeded misdrain defect must "
            "trip")
      .flag("daemon",
            "audit the loopback daemon: a single ordered connection served "
            "through flashqosd's wire protocol (DaemonServer + "
            "PipelineService over 127.0.0.1) must reproduce the in-process "
            "replay exactly — every completion field, the aggregate stream "
            "result, and the metric/series registries (modulo transport "
            "instruments); the seeded mangle defect must trip, overload "
            "must answer pushback, malformed frames must be counted")
      .flag("overload",
            "audit sustained overload: 1.2x/2x/4x S streams (boundary and "
            "mid-interval arrivals, with and without an idle phase) through "
            "every admission x retrieval mode, primary-only and multi-tenant "
            "replay, in process and through PipelineService's live session; "
            "admission offers per request must stay <= 2 at N and 2N, every "
            "request must be served, shed or failed, online deterministic "
            "must miss no deadline; the seeded rescan defect must reproduce "
            "the outcomes and trip the offers bound")
      .flag("faults",
            "chaos-audit the fault subsystem: randomized fault plans "
            "(outages, spikes, rebuild, retry timeouts) replayed on every "
            "selected design, checking request conservation, down-device "
            "routing, guarantee re-establishment, and device-op "
            "re-simulation on flashsim::FlashArray")
      .flag("fairness",
            "audit the multi-tenant WFQ front end: randomized tenant mixes "
            "(always including a flooder) checked against an independent "
            "WFQ reference simulation, reservation isolation, work "
            "conservation and the per-interval budget; every deliberate "
            "WfqKnobs defect must trip at least one check")
      .flag("model",
            "exhaustively model-check the concurrency primitives "
            "(src/check): every schedule of the bounded HandoffQueue / "
            "MetricRegistry models, checked for races, deadlocks, lost "
            "wakeups and schedule-dependent results; may be used alone "
            "(skips the design audit)")
      .integer("daemon-probe", "PORT",
               "drive one batch through an already-running flashqosd on "
               "127.0.0.1:PORT and end the session (the loopback client leg "
               "of scripts/check.sh's daemon lifecycle smoke); used alone",
               1, std::numeric_limits<std::uint16_t>::max())
      .flag("list", "list catalog designs and exit")
      .flag("verbose", "print passing checks, not only failures");
  opts.parse_or_exit(argc, argv);

  if (opts.has("daemon-probe")) {
    const auto port =
        static_cast<std::uint16_t>(opts.get_u64("daemon-probe", 0));
    return flashqos::verify::probe_daemon(port) ? 0 : 1;
  }

  if (opts.has("list")) {
    for (const auto& e : flashqos::design::catalog()) {
      std::printf("%-10s N=%-3u c=%u buckets=%zu\n", e.name.c_str(),
                  e.devices, e.copies, e.buckets);
    }
    return 0;
  }

  const std::uint64_t max_devices = opts.get_u64("max-devices", 64);
  const std::vector<std::string> only = opts.all("design");
  const bool verbose = opts.has("verbose");
  const bool replay = opts.has("replay");
  const bool obs = opts.has("obs");
  const bool stream = opts.has("stream");
  const bool daemon = opts.has("daemon");
  const bool faults = opts.has("faults");
  const bool overload = opts.has("overload");
  const bool fairness = opts.has("fairness");
  const bool model = opts.has("model");
  // Explicit design-audit options given.
  const bool design_flags = !only.empty() || opts.has("max-devices");
  using flashqos::design::CatalogEntry;
  // The designs --max-devices / --design select.
  const auto selected = [&](const CatalogEntry& e) {
    return only.empty() ? e.devices <= max_devices
                        : std::find(only.begin(), only.end(), e.name) != only.end();
  };
  flashqos::verify::CatalogCheckParams params;
  params.retrieval.trials = static_cast<std::size_t>(
      opts.get_u64("trials", params.retrieval.trials));
  params.guarantee.sampled_trials = static_cast<std::size_t>(
      opts.get_u64("samples", params.guarantee.sampled_trials));
  params.guarantee.exhaustive_budget =
      opts.get_u64("budget", params.guarantee.exhaustive_budget);
  params.guarantee.max_accesses = static_cast<std::uint32_t>(
      opts.get_u64("max-accesses", params.guarantee.max_accesses));
  params.guarantee.seed = opts.get_u64("seed", params.guarantee.seed);
  params.retrieval.seed = opts.get_u64("seed", params.retrieval.seed);

  bool all_ok = true;
  std::size_t checked = 0;

  // `--model` alone skips the design audit (the gate runs them as separate
  // stages); any explicit design/audit option brings it back.
  const bool run_designs = !model || design_flags || replay || obs || stream ||
                           daemon || faults || fairness || overload;
  if (run_designs) {
    // The bound helpers are shared by every design; audit them once up
    // front.
    const auto arithmetic = flashqos::verify::verify_guarantee_arithmetic();
    std::printf("%s\n", arithmetic.to_string(verbose).c_str());
    // So is the pair miner the block-mapper checks feed from.
    const auto miner = flashqos::verify::verify_miner();
    std::printf("%s\n", miner.to_string(verbose).c_str());
    all_ok = arithmetic.passed() && miner.passed();

    for (const auto& e : flashqos::design::catalog()) {
      if (!selected(e)) continue;
      const auto report = flashqos::verify::verify_catalog_entry(e, params);
      std::printf("%s\n", report.to_string(verbose).c_str());
      std::fflush(stdout);
      all_ok = all_ok && report.passed();
      ++checked;
    }

    if (checked == 0) {
      std::fprintf(stderr, "flashqos_verify: no catalog design matched\n");
      return 2;
    }
  }

  if (model) {
    // Exhaustive schedule exploration of the bounded concurrency models.
    // A model passes only if it is clean AND the DFS ran to exhaustion —
    // a capped exploration is not a proof.
    for (const auto& run : flashqos::check::run_builtin_models()) {
      const bool ok = run.result.ok && run.result.exhausted;
      std::printf("%s model %s (%ju schedules, %ju transitions%s)\n",
                  ok ? "PASS" : "FAIL", run.name.c_str(),
                  static_cast<std::uintmax_t>(run.result.executions),
                  static_cast<std::uintmax_t>(run.result.transitions),
                  run.result.exhausted ? ", exhaustive" : ", CAPPED");
      if (verbose) std::printf("  %s\n", run.description.c_str());
      if (!run.result.ok) std::printf("  %s\n", run.result.failure.c_str());
      std::fflush(stdout);
      all_ok = all_ok && ok;
      ++checked;
    }
  }

  // The audits below run on rotated design-theoretic schemes, one report
  // per catalog design `chosen` picks, in catalog order.
  const auto audit_designs = [&](const auto& chosen, const auto& audit) {
    for (const auto& e : flashqos::design::catalog()) {
      if (!chosen(e)) continue;
      const auto d = e.make();
      const flashqos::decluster::DesignTheoretic scheme(d, true);
      const flashqos::verify::Report report = audit(scheme);
      std::printf("%s\n", report.to_string(verbose).c_str());
      std::fflush(stdout);
      all_ok = all_ok && report.passed();
      ++checked;
    }
  };
  // The paper's primary design, and its two evaluation designs.
  const auto primary = [](const CatalogEntry& e) { return e.name == "(9,3,1)"; };
  const auto evaluation = [](const CatalogEntry& e) {
    return e.name == "(9,3,1)" || e.name == "(13,3,1)";
  };
  using Scheme = flashqos::decluster::AllocationScheme;

  if (replay) {
    // Device-op re-simulation over every mode combination.
    audit_designs(evaluation, [](const Scheme& s) {
      return flashqos::verify::verify_resimulation(s);
    });
  }
  if (obs) {
    // Observability self-audit: the registry's numbers must be derivable
    // from the replay results they claim to describe.
    audit_designs(primary, [](const Scheme& s) {
      return flashqos::verify::verify_observability(s);
    });
  }
  if (stream) {
    // Streaming ≡ in-memory identity audit.
    audit_designs(primary, [](const Scheme& s) {
      return flashqos::verify::verify_streaming(s);
    });
  }
  if (daemon) {
    // Loopback-served ≡ in-process identity audit.
    audit_designs(primary, [](const Scheme& s) {
      return flashqos::verify::verify_daemon(s);
    });
  }
  if (fairness) {
    // Multi-tenant fairness audit.
    audit_designs(evaluation, [](const Scheme& s) {
      return flashqos::verify::verify_fairness(s);
    });
  }
  if (overload) {
    // Sustained-overload audit.
    audit_designs(primary, [](const Scheme& s) {
      return flashqos::verify::verify_overload(s);
    });
  }
  if (faults) {
    // Chaos audit: randomized fault plans over every selected design.
    audit_designs(selected, [](const Scheme& s) {
      return flashqos::verify::verify_fault_tolerance(s);
    });
  }

  std::printf("%s: %zu subject%s checked\n", all_ok ? "OK" : "FAILED", checked,
              checked == 1 ? "" : "s");
  return all_ok ? 0 : 1;
}
