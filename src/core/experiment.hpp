// Config-driven experiments: the DiskSim-style front end.
//
// An experiment config file describes a design, a pipeline configuration,
// a workload, and optional failures; build_experiment() materializes all
// of it and run_experiment() executes end to end. flashqos_sim is the CLI
// wrapper. Example:
//
//   [design]
//   name = (9,3,1)            ; catalog name, or sts:15 / ag:4 / pg:8 / td:3,5
//
//   [pipeline]
//   interval_ms = 0.133
//   access_budget = 1
//   retrieval = online        ; online | aligned
//   admission = deterministic ; none | deterministic | statistical
//   epsilon = 0.001           ; statistical only
//   mapping = fim             ; fim | modulo
//   scheduler = replica       ; replica | primary
//
//   [workload]
//   kind = exchange           ; exchange | tpce | synthetic | disksim | msr
//   scale = 0.5
//   seed = 42
//   write_fraction = 0.0
//   path = trace.csv          ; disksim / msr kinds
//   volumes = 9               ; file kinds
//
//   [faults]
//   seed = 1                  ; generator seed (same seed -> same windows)
//   fail = 3 10.0 50.0        ; device, fail-at ms, recover-at ms (-1 = never)
//   spike = 2 5.0 20.0 4.0    ; device, start ms, end ms, service factor
//   transient = 4 5.0         ; generated outages: count, mean duration ms
//   latency_spike = 2 5.0 4.0 ; generated spikes: count, mean ms, factor
//   rebuild = 50000           ; hot-spare rebuild pages/second (0 = off)
//   retry_timeout_ms = 10.0   ; fail stranded requests past this wait
//
// [tenants] (see experiment_template()) and the daemon's [service] are the
// two other sections. Any other section is an error, as is a value that
// does not parse whole (a numeric prefix, or a field left over after the
// last one a line takes) and an integer outside its range (a negative
// count, or one its type cannot hold). build_experiment() runs
// PipelineConfig::validate() and throws with the joined diagnostics when
// the combination is incoherent.
#pragma once

#include <memory>
#include <string>

#include "core/qos_pipeline.hpp"
#include "util/config.hpp"

namespace flashqos::core {

struct Experiment {
  std::unique_ptr<design::BlockDesign> design;
  std::unique_ptr<decluster::AllocationScheme> scheme;
  PipelineConfig pipeline;
  trace::Trace workload;
};

/// Materialize an experiment from a parsed config. Throws
/// std::runtime_error with a readable message on unknown names or
/// inconsistent settings. For statistical admission the P_k table is
/// sampled automatically (samples configurable via [pipeline] samples).
[[nodiscard]] Experiment build_experiment(const Config& cfg);

/// Everything build_experiment() materializes except the workload (which
/// is left empty and [workload] ignored): the daemon front end
/// (service::build_service) loads its design + pipeline from the same
/// config format but takes its workload over the wire.
[[nodiscard]] Experiment build_experiment_config(const Config& cfg);

/// Build and run; returns the pipeline result.
[[nodiscard]] PipelineResult run_experiment(const Config& cfg);

/// A documented template config (what flashqos_sim --template prints).
[[nodiscard]] std::string experiment_template();

}  // namespace flashqos::core
