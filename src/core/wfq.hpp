// Weighted-fair-queueing virtual-time bookkeeping (the multi-tenant
// front end's ordering core, modeled on the MQ-ECN wfq.h idiom).
//
// Each tenant owns one bounded FIFO. An enqueued request is stamped with a
// virtual finish time
//
//   F = max(V, F_last(q)) + 1/w_q
//
// and the scheduler always serves the backlogged queue whose head carries
// the minimum F (ties broken by queue index, so dispatch order is total
// and deterministic). The virtual clock V advances by 1/W_b per unit of
// service, where W_b is the weight sum over *backlogged* queues only —
// the "renormalization" that keeps idle tenants from banking credit and
// lets active tenants split the full rate. W_b is recomputed by summation
// in queue-index order at every service so the arithmetic is bit-identical
// to the brute-force reference simulator in tests/wfq_test.cpp.
//
// ECN-style backpressure: every queue has a mark threshold and a hard
// capacity. enqueue() reports kMarked when the post-enqueue depth crosses
// the mark threshold (a congestion signal recorded on the request) and
// kShed when the queue is full (the request is dropped, never queued).
//
// Single-threaded by design: this runs inside the serial replay core, so
// its verdicts are a pure function of the trace and config, like every
// other pipeline stage's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "util/expect.hpp"

namespace flashqos::core {

/// Deliberate-defect switches for oracle-liveness tests: each one breaks a
/// specific fairness invariant so tests/wfq_test.cpp can prove the
/// corresponding `flashqos_verify --fairness` check actually fails.
/// Production configs leave every knob false (the default-constructed
/// value participates in no branch the healthy path takes).
struct WfqKnobs {
  /// Freeze the virtual-clock rate at 1/W_total instead of renormalizing
  /// over backlogged queues: intermittent tenants re-enter with stale
  /// stamps and are starved of the shared pool by a steady flooder.
  bool skip_renormalization = false;
  /// Ignore virtual finish times entirely: serve the lowest-index
  /// backlogged queue (FCFS across tenants) — a flooder eats the budget.
  bool fifo_order = false;
  /// TenantScheduler: treat reservations as plain shared budget, so a
  /// flooder can consume another tenant's guaranteed floor.
  bool ignore_reservations = false;
  /// TenantScheduler: dispense without budget accounting — total
  /// admissions per interval can exceed the live budget S.
  bool leak_budget = false;

  [[nodiscard]] bool any() const noexcept {
    return skip_renormalization || fifo_order || ignore_reservations ||
           leak_budget;
  }
};

/// Per-queue static parameters (weight/bounds), owned by the caller's
/// TenantSpec; WfqQueues takes the flattened arrays so it stays decoupled
/// from the tenant-naming layer.
class WfqQueues {
 public:
  enum class Enqueue : std::uint8_t {
    kAccepted = 0,
    kMarked,  // accepted, but depth crossed the ECN mark threshold
    kShed,    // queue full: dropped, not queued
  };

  /// `weights[q]` must be positive and finite; `capacities[q]` >= 1;
  /// `mark_thresholds[q]` in [1, capacity] (the signal fires when depth
  /// after enqueue >= threshold).
  WfqQueues(std::vector<double> weights, std::vector<std::size_t> capacities,
            std::vector<std::size_t> mark_thresholds, WfqKnobs knobs = {});

  [[nodiscard]] std::size_t queues() const noexcept { return weights_.size(); }
  [[nodiscard]] std::size_t depth(std::size_t q) const {
    return fifo_[q].size();
  }
  [[nodiscard]] bool backlogged() const noexcept { return queued_ > 0; }
  [[nodiscard]] std::size_t queued() const noexcept { return queued_; }
  [[nodiscard]] double virtual_time() const noexcept { return vtime_; }

  Enqueue enqueue(std::size_t q, std::uint64_t id);

  /// Backlogged queue with the minimum head virtual finish time, skipping
  /// queues the caller has excluded (blocked this dispatch round); ties go
  /// to the lower queue index. nullopt when every backlogged queue is
  /// excluded (or nothing is queued). `exclude` may be empty (= none).
  [[nodiscard]] std::optional<std::size_t> next(
      const std::vector<bool>& exclude) const;

  [[nodiscard]] std::uint64_t head(std::size_t q) const {
    FLASHQOS_ASSERT(!fifo_[q].empty(), "head() on an empty WFQ queue");
    return fifo_[q].front().id;
  }

  /// Serve the head of `q`: advances the virtual clock by one unit of
  /// service at the renormalized rate and returns the served id.
  std::uint64_t pop(std::size_t q);

  /// Remove the head of `q` *without* serving it (a request invalidated
  /// while queued — e.g. failed by the fault path). The virtual clock does
  /// not advance: no service was rendered.
  std::uint64_t drop_head(std::size_t q);

 private:
  struct Item {
    std::uint64_t id = 0;
    double finish = 0.0;  // virtual finish time
  };

  [[nodiscard]] double backlogged_weight() const;

  std::vector<double> weights_;
  std::vector<std::size_t> capacities_;
  std::vector<std::size_t> marks_;
  std::vector<std::deque<Item>> fifo_;
  std::vector<double> last_finish_;  // per-queue F of the newest enqueue
  double vtime_ = 0.0;
  double total_weight_ = 0.0;
  std::size_t queued_ = 0;
  WfqKnobs knobs_;
};

}  // namespace flashqos::core
