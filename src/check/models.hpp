// Built-in bounded models of the project's concurrency primitives.
//
// Each model instantiates a *production* template (util::HandoffQueue,
// obs::BasicMetricRegistry) with check::ModelSyncPolicy and drives a
// small bounded scenario through
// check::explore() — every interleaving of its synchronization operations
// is executed and checked for data races, deadlocks, lost wakeups, and
// schedule-dependent results. These are the same class templates the
// simulator ships (the sync-policy seam is the only difference), so a pass
// here is a proof about the shipped protocol, not about a test double.
//
// `flashqos_verify --model` runs them; scripts/check.sh gates on that.
#pragma once

#include <string>
#include <vector>

#include "check/sched.hpp"

namespace flashqos::check {

/// One explored model: its identity plus the exploration outcome.
struct ModelRun {
  std::string name;         // stable id, e.g. "handoff_queue.spsc_close"
  std::string description;  // one line: scenario + what it proves
  SchedResult result;
};

/// Run every built-in model (exhaustive DFS each). Order is stable.
[[nodiscard]] std::vector<ModelRun> run_builtin_models();

}  // namespace flashqos::check
