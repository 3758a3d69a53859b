// Retriever: one object in front of every retrieval entry point.
//
// The library grew six call forms — dtr_schedule / retrieve / degraded
// retrieve / optimal_makespan_schedule, each in fresh-allocating and
// scratch-reusing flavours, plus the stateful OnlineRetriever. Callers
// that want the zero-allocation steady state had to thread a
// RetrievalScratch through every call site and remember which overload
// wants a reference, which a pointer, and which an optional.
//
// The facade owns the scratch (and the online state) and exposes each
// algorithm as one method returning the scratch-backed result:
//
//   Retriever r(scheme);
//   const auto& s = r.schedule(batch);             // DTR + max-flow
//   const auto* d = r.schedule(batch, available);  // degraded (null = stranded)
//   auto dec = r.submit(bucket, arrival);          // online FCFS
//
// Returned references and pointers point into the facade's scratch and
// stay valid until the next call on the same Retriever — copy out if you
// need to keep a schedule across calls. The free functions remain as thin
// wrappers (workspace_test's fresh ≡ reused oracle exercises both), so
// existing code keeps compiling; new code should prefer the facade.
#pragma once

#include <span>
#include <vector>

#include "retrieval/dtr.hpp"
#include "retrieval/heterogeneous.hpp"
#include "retrieval/online.hpp"
#include "retrieval/schedule.hpp"
#include "retrieval/workspace.hpp"
#include "util/time.hpp"

namespace flashqos::retrieval {

class Retriever {
 public:
  explicit Retriever(const decluster::AllocationScheme& scheme,
                     SimTime service_time = kPageReadLatency)
      : scheme_(scheme), online_(scheme, service_time) {}

  /// The fast design-theoretic schedule (may be off-optimal).
  [[nodiscard]] const Schedule& dtr(std::span<const BucketId> batch) {
    return dtr_schedule(batch, scheme_, scratch_);
  }

  /// The paper's combined retrieval: DTR, escalating to max-flow when the
  /// fast path misses the ⌈b/N⌉ optimum. Always minimum-round.
  [[nodiscard]] const Schedule& schedule(std::span<const BucketId> batch) {
    return retrieve(batch, scheme_, scratch_);
  }

  /// Degraded-mode combined retrieval: only devices with available[d] may
  /// serve (empty mask = all up). nullptr iff some request has no live
  /// replica — the caller decides between waiting for recovery and failing.
  [[nodiscard]] const Schedule* schedule(std::span<const BucketId> batch,
                                         const std::vector<bool>& available) {
    return retrieve(batch, scheme_, available, scratch_);
  }

  /// Minimum-makespan schedule under per-device service times.
  [[nodiscard]] const HeterogeneousSchedule& makespan(
      std::span<const BucketId> batch, std::span<const SimTime> service) {
    makespan_ = optimal_makespan_schedule(batch, scheme_, service, scratch_);
    return makespan_;
  }

  /// Online FCFS: serve one request the moment it arrives.
  Decision submit(BucketId bucket, SimTime arrival) {
    return online_.submit(bucket, arrival);
  }

  /// Online FCFS batch form for simultaneous arrivals.
  std::vector<Decision> submit_batch(std::span<const BucketId> batch,
                                     SimTime arrival) {
    return online_.submit_batch(batch, arrival);
  }

  [[nodiscard]] SimTime device_free_at(DeviceId d) const {
    return online_.device_free_at(d);
  }

  [[nodiscard]] const decluster::AllocationScheme& scheme() const noexcept {
    return scheme_;
  }
  [[nodiscard]] RetrievalScratch& scratch() noexcept { return scratch_; }

 private:
  const decluster::AllocationScheme& scheme_;
  RetrievalScratch scratch_;
  OnlineRetriever online_;
  HeterogeneousSchedule makespan_;
};

}  // namespace flashqos::retrieval
