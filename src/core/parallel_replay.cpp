#include "core/parallel_replay.hpp"

#include "obs/metrics.hpp"

namespace flashqos::core {

std::vector<PipelineResult> ParallelReplayEngine::run_jobs(
    std::span<const ReplayJob> jobs) {
  for (const auto& job : jobs) {
    FLASHQOS_EXPECT(job.scheme != nullptr && job.trace != nullptr,
                    "replay job needs a scheme and a trace");
  }
  if constexpr (obs::kEnabled) {
    static auto& jobs_counter =
        obs::MetricRegistry::global().counter("parallel.jobs");
    jobs_counter.inc(jobs.size());
  }
  // Pre-sized slots indexed by job id: each worker writes its own entry,
  // so the sweep result is independent of completion order.
  std::vector<PipelineResult> results(jobs.size());
  parallel_for(pool_, jobs.size(), [&](std::size_t i) {
    const auto& job = jobs[i];
    results[i] = QosPipeline(*job.scheme, job.config).run(*job.trace);
  });
  return results;
}

}  // namespace flashqos::core
