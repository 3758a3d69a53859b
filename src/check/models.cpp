#include "check/models.hpp"

#include <string>

#include "check/model_sync.hpp"
#include "obs/metrics.hpp"
#include "util/handoff_queue.hpp"

namespace flashqos::check {
namespace {

using ModelQueue = HandoffQueue<int, ModelSyncPolicy>;
using ModelRegistry =
    obs::BasicMetricRegistry<ModelSyncPolicy, obs::NullHistogram>;

// Keep models at 2–3 virtual threads and a handful of operations each: the
// schedule count is roughly multinomial in the per-thread op counts, and
// the whole suite must stay well under the check.sh time budget while
// remaining exhaustive (SchedResult::exhausted is asserted by the gate).

/// Producer pushes two items through a capacity-1 queue and closes it; the
/// consumer drains to nullopt. Exercises the full-blocking push path, the
/// empty-blocking pop path, and close() wakeups; FIFO order and the
/// closed-and-drained contract must hold on every schedule.
SchedResult handoff_queue_spsc_close() {
  return explore([] {
    ModelQueue q(1);
    ModelSyncPolicy::Thread producer([&q] {
      model_expect(q.push(1), "push before close must be accepted");
      model_expect(q.push(2), "push before close must be accepted");
      q.close();
    });
    std::string out;
    while (auto item = q.pop()) out += std::to_string(*item);
    model_expect(!q.pop().has_value(), "closed+drained queue must stay empty");
    producer.join();
    return out + "|closed=" + (q.closed() ? "1" : "0");
  });
}

/// Two producers race one consumer on a capacity-1 queue. Arrival order is
/// schedule-dependent, so the digest folds it away (sum); exactly-once
/// delivery is the invariant.
SchedResult handoff_queue_mpsc() {
  return explore([] {
    ModelQueue q(1);
    ModelSyncPolicy::Thread p1([&q] { (void)q.push(1); });
    ModelSyncPolicy::Thread p2([&q] { (void)q.push(2); });
    const auto a = q.pop();
    const auto b = q.pop();
    model_expect(a.has_value() && b.has_value(),
                 "open queue must deliver both items");
    model_expect(*a + *b == 3 && *a != *b,
                 "each item delivered exactly once");
    p1.join();
    p2.join();
    q.close();
    return std::string("sum=3");
  });
}

/// Registry register+fold: two threads concurrently create/look up
/// instruments (map mutation under the registry mutex) and bump a shared
/// counter with relaxed fetch_adds; after both joins, the snapshot fold
/// must be the exact total on every schedule. This is the regression model
/// for BasicCounter's relaxed-ordering contract: the join edges are what
/// make the fold exact — and the model checker would flag any plain state
/// "synchronized" through those relaxed counters, because relaxed atomics
/// publish no happens-before edge here.
SchedResult metric_registry_register_fold() {
  return explore([] {
    ModelRegistry reg;
    auto& ops = reg.counter("ops");
    ModelSyncPolicy::Thread t1([&reg] { reg.counter("ops").inc(1); });
    ModelSyncPolicy::Thread t2([&reg] { reg.counter("t2").inc(2); });
    ops.inc(10);
    t1.join();
    t2.join();
    const auto snap = reg.snapshot();
    std::string out;
    for (const auto& c : snap.counters) {
      out += c.name + "=" + std::to_string(c.value) + ";";
    }
    return out;
  });
}

}  // namespace

std::vector<ModelRun> run_builtin_models() {
  std::vector<ModelRun> runs;
  runs.push_back({"handoff_queue.spsc_close",
                  "capacity-1 producer/consumer with close: FIFO, "
                  "closed-and-drained, no lost wakeup",
                  handoff_queue_spsc_close()});
  runs.push_back({"handoff_queue.mpsc",
                  "two producers race one consumer: exactly-once delivery "
                  "under backpressure",
                  handoff_queue_mpsc()});
  runs.push_back({"metric_registry.register_fold",
                  "concurrent instrument registration + relaxed increments; "
                  "fold after joins is exact and schedule-invariant",
                  metric_registry_register_fold()});
  return runs;
}

}  // namespace flashqos::check
