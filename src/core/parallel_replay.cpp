#include "core/parallel_replay.hpp"

#include <chrono>
#include <exception>
#include <future>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "fim/apriori.hpp"
#include "obs/metrics.hpp"
#include "util/handoff_queue.hpp"

namespace flashqos::core {
namespace {

/// Engine-level registry handles. Stage timings are wall-clock (what the
/// scaling PRs tune); they never feed back into simulated results.
struct EngineMetrics {
  obs::Counter& jobs;
  obs::Counter& mined_slices;
  obs::LatencyHistogram& handoff_occupancy;
  obs::LatencyHistogram& mine_ns;
  obs::LatencyHistogram& replay_ns;

  static EngineMetrics& get() {
    auto& reg = obs::MetricRegistry::global();
    static EngineMetrics m{reg.counter("parallel.jobs"),
                           reg.counter("parallel.mined_slices"),
                           reg.histogram("parallel.handoff_occupancy"),
                           reg.histogram("parallel.mine_ns"),
                           reg.histogram("parallel.replay_ns")};
    return m;
  }
};

/// Wall-clock nanoseconds since `t0`, for stage-timing histograms.
[[nodiscard]] std::int64_t elapsed_ns(
    // flashqos-lint: allow(wall-clock): stage-timing metric, never a result
    std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             // flashqos-lint: allow(wall-clock): stage-timing metric only
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// One mined reporting slice in flight between the mining stage and the
/// replay core.
struct MinedSlice {
  std::size_t idx = 0;
  std::vector<fim::FrequentPair> pairs;
};

/// Hand one mined slice to the replay core, timing it from `t0`. False
/// means the core finished on a prefix and closed the queue: nothing later
/// can be needed.
bool publish_mined(HandoffQueue<MinedSlice>& queue, MinedSlice slice,
                   // flashqos-lint: allow(wall-clock): miner stage-timing metric
                   std::chrono::steady_clock::time_point t0) {
  if (!queue.push(std::move(slice))) return false;
  if constexpr (obs::kEnabled) {
    auto& em = EngineMetrics::get();
    em.mined_slices.inc();
    em.mine_ns.record(elapsed_ns(t0));
    em.handoff_occupancy.record(static_cast<std::int64_t>(queue.size()));
  }
  return true;
}

/// The replay core's FimSource, fed by the miners over the handoff queue.
/// Single consumer: pops mined slices in arrival order, keeps the ones it
/// does not need yet keyed by index, and blocks until the slice it needs
/// arrives. The core asks for slices in order, so the map holds only what
/// the miners ran ahead: O(lookahead + workers). A queue that closes
/// before producing a requested slice means a miner failed; the error is
/// reported here and the miner's own exception is surfaced when the
/// caller joins the futures.
class HandoffFimSource final : public FimSource {
 public:
  explicit HandoffFimSource(HandoffQueue<MinedSlice>& queue) : queue_(queue) {}

  std::span<const fim::FrequentPair> slice(std::size_t idx) override {
    auto it = ready_.find(idx);
    while (it == ready_.end()) {
      auto item = queue_.pop();
      if (!item.has_value()) {
        throw std::runtime_error("parallel replay: mining stage closed before "
                                 "producing slice " + std::to_string(idx));
      }
      ready_.emplace(item->idx, std::move(item->pairs));
      it = ready_.find(idx);
    }
    current_ = std::move(it->second);
    ready_.erase(it);
    return current_;
  }

 private:
  HandoffQueue<MinedSlice>& queue_;
  std::map<std::size_t, std::vector<fim::FrequentPair>> ready_;
  std::vector<fim::FrequentPair> current_;  // span target until next call
};

/// Join every future; rethrow the first captured exception (if any),
/// preferring worker errors over `pending` (a consumer-side error that a
/// worker failure usually caused).
void join_all(std::vector<std::future<void>>& futures, std::exception_ptr pending) {
  std::exception_ptr worker_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!worker_error) worker_error = std::current_exception();
    }
  }
  if (worker_error) std::rethrow_exception(worker_error);
  if (pending) std::rethrow_exception(pending);
}

/// Run `replay` (the serial core, consuming `queue`) while `miners` fill
/// it, then stop and join the miners. The core may consume only a prefix
/// of the slices (the last dispatch decides), so the queue is closed
/// either way; a failure on either side surfaces after every miner has
/// finished.
template <class Replay>
auto replay_alongside(HandoffQueue<MinedSlice>& queue,
                      std::vector<std::future<void>>& miners, Replay&& replay) {
  // flashqos-lint: allow(wall-clock): replay stage-timing metric
  const auto t0 = std::chrono::steady_clock::now();
  decltype(replay()) result;
  try {
    result = replay();
  } catch (...) {
    queue.close();
    join_all(miners, std::current_exception());
    throw;  // unreachable: join_all rethrows pending when no worker failed
  }
  queue.close();
  join_all(miners, nullptr);
  if constexpr (obs::kEnabled) EngineMetrics::get().replay_ns.record(elapsed_ns(t0));
  return result;
}

}  // namespace

ParallelReplayEngine::ParallelReplayEngine(ParallelReplayOptions opts)
    : opts_(opts), pool_(opts.threads) {
  FLASHQOS_EXPECT(opts_.mining_lookahead > 0,
                  "mining lookahead must be positive");
}

std::vector<PipelineResult> ParallelReplayEngine::run_jobs(
    std::span<const ReplayJob> jobs) {
  for (const auto& job : jobs) {
    FLASHQOS_EXPECT(job.scheme != nullptr && job.trace != nullptr,
                    "replay job needs a scheme and a trace");
  }
  // Pre-sized slots indexed by job id: each worker writes its own entry,
  // so the sweep result is independent of completion order.
  std::vector<PipelineResult> results(jobs.size());
  std::vector<std::future<void>> futures;
  futures.reserve(jobs.size());
  if constexpr (obs::kEnabled) EngineMetrics::get().jobs.inc(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    futures.push_back(pool_.submit_with_future([&jobs, &results, i] {
      const auto& job = jobs[i];
      results[i] = QosPipeline(*job.scheme, job.config).run(*job.trace);
    }));
  }
  join_all(futures, nullptr);
  return results;
}

PipelineResult ParallelReplayEngine::run(const decluster::AllocationScheme& scheme,
                                         const PipelineConfig& cfg,
                                         const trace::Trace& t) {
  if (cfg.retrieval == RetrievalMode::kOnline) {
    // Serial fallback: online dispatch is FCFS with earliest-finish replica
    // choice — the order requests hit the device clocks *is* the
    // semantics, so the dispatch stages cannot be decoupled.
    return QosPipeline(scheme, cfg).run(t);
  }
  return run_pipelined(scheme, cfg, t);
}

StreamResult ParallelReplayEngine::run_stream(
    const decluster::AllocationScheme& scheme, const PipelineConfig& cfg,
    const trace::CursorFactory& factory, const StreamOptions& opts) {
  FLASHQOS_EXPECT(static_cast<bool>(factory),
                  "stream replay needs a cursor factory");
  FLASHQOS_EXPECT(opts.batch_size > 0, "stream batch size must be positive");
  auto cursor = factory();
  FLASHQOS_EXPECT(cursor != nullptr, "cursor factory returned a null cursor");
  const SimTime ri = cursor->meta().report_interval;
  const bool mine = cfg.retrieval != RetrievalMode::kOnline &&
                    cfg.mapping == MappingMode::kFim && ri > 0;
  if (!mine) {
    // kOnline keeps the serial path (its FCFS ordering is load-bearing);
    // modulo mapping / interval-free streams have no mining stage to run
    // ahead. The serial streaming engine mines inline either way.
    return QosPipeline(scheme, cfg).run_stream(*cursor, nullptr, opts);
  }

  // Producer: an independent pass over the stream (its own cursor), cutting
  // each reporting slice's transactions exactly the way the inline miner
  // does (SliceTransactions), then mining and handing the pairs over the
  // bounded queue. Mining is a pure function of the slice, so mined-ahead
  // pairs are bit-identical to inline mining.
  HandoffQueue<MinedSlice> queue(opts_.mining_lookahead);
  std::vector<std::future<void>> miners;
  miners.push_back(pool_.submit_with_future([&] {
    try {
      auto mine_cursor = factory();
      FLASHQOS_EXPECT(mine_cursor != nullptr,
                      "cursor factory returned a null cursor");
      std::vector<trace::TraceEvent> buf(opts.batch_size);
      SliceTransactions slices(cfg.qos_interval, ri);
      std::size_t next = 0;
      // Mine and hand off every completed slice; false once the core has
      // closed the queue.
      const auto publish_ready = [&] {
        while (slices.ready()) {
          // flashqos-lint: allow(wall-clock): miner stage-timing metric
          const auto t0 = std::chrono::steady_clock::now();
          MinedSlice m{next++,
                       fim::mine_pairs_apriori(slices.take(), cfg.fim_min_support)
                           .pairs};
          if (!publish_mined(queue, std::move(m), t0)) return false;
        }
        return true;
      };
      bool open = true;
      for (std::size_t n; open && (n = mine_cursor->fill(buf)) > 0;) {
        for (std::size_t i = 0; i < n && open; ++i) {
          slices.add(buf[i]);
          open = publish_ready();
        }
      }
      if (open) {
        slices.finish();  // the slice holding the last event
        publish_ready();
      }
    } catch (...) {
      queue.close();  // unblock the consumer; the future carries the error
      throw;
    }
  }));

  QosPipeline pipe(scheme, cfg);
  HandoffFimSource source(queue);
  return replay_alongside(queue, miners,
                          [&] { return pipe.run_stream(*cursor, &source, opts); });
}

PipelineResult ParallelReplayEngine::run_pipelined(
    const decluster::AllocationScheme& scheme, const PipelineConfig& cfg,
    const trace::Trace& t) {
  const auto slices = trace::report_slices(t);
  const bool mine = cfg.mapping == MappingMode::kFim && t.report_interval > 0 &&
                    !slices.empty();

  HandoffQueue<MinedSlice> queue(opts_.mining_lookahead);
  std::vector<std::future<void>> miners;
  if (mine) {
    miners.reserve(slices.size());
    for (std::size_t i = 0; i < slices.size(); ++i) {
      miners.push_back(pool_.submit_with_future([&, i] {
        try {
          // flashqos-lint: allow(wall-clock): miner stage-timing metric
          const auto t0 = std::chrono::steady_clock::now();
          // A false return (the core never needed this slice) is fine.
          publish_mined(queue,
                        MinedSlice{i, mine_event_range(t, slices[i].first,
                                                       slices[i].second,
                                                       cfg.qos_interval,
                                                       cfg.fim_min_support)},
                        t0);
        } catch (...) {
          queue.close();  // unblock the consumer; the future carries the error
          throw;
        }
      }));
    }
  }

  QosPipeline pipe(scheme, cfg);
  HandoffFimSource source(queue);
  return replay_alongside(queue, miners,
                          [&] { return pipe.run(t, mine ? &source : nullptr); });
}

}  // namespace flashqos::core
