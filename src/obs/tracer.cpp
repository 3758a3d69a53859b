#include "obs/tracer.hpp"

namespace flashqos::obs {

std::string_view to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kArrival: return "arrival";
    case EventKind::kAdmission: return "admission";
    case EventKind::kRetrieval: return "retrieval";
    case EventKind::kDeviceService: return "device_service";
    case EventKind::kInterval: return "interval";
    case EventKind::kStage: return "stage";
  }
  return "unknown";
}

std::string_view to_string(EventDetail detail) noexcept {
  switch (detail) {
    case EventDetail::kNone: return "none";
    case EventDetail::kAdmitted: return "admitted";
    case EventDetail::kRejected: return "rejected";
    case EventDetail::kDeferred: return "deferred";
    case EventDetail::kPrimary: return "primary";
    case EventDetail::kDtrFastPath: return "dtr_fast_path";
    case EventDetail::kMaxFlowFallback: return "max_flow_fallback";
    case EventDetail::kDegraded: return "degraded";
    case EventDetail::kWrite: return "write";
    case EventDetail::kSlotMatched: return "slot_matched";
    case EventDetail::kSurplus: return "surplus";
    case EventDetail::kStageQueue: return "queue";
    case EventDetail::kStageSchedule: return "schedule";
    case EventDetail::kStageService: return "service";
  }
  return "unknown";
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity > 0 ? capacity : 1) {}

void Tracer::set_enabled(bool enabled) {
  const util::LockGuard<util::Mutex> lock(mutex_);
  if (enabled && ring_.empty()) ring_.resize(capacity_);
  enabled_.store(enabled, std::memory_order_relaxed);
}

void Tracer::record(const TraceEvent& event) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  const util::LockGuard<util::Mutex> lock(mutex_);
  // The flag was set under this mutex after the ring was allocated, so a
  // writer that saw it set also sees the ring.
  if (size_ == ring_.size()) ++dropped_;  // overwriting the oldest event
  ring_[head_] = event;
  head_ = (head_ + 1) % ring_.size();
  if (size_ < ring_.size()) ++size_;
}

std::uint64_t Tracer::dropped() const {
  const util::LockGuard<util::Mutex> lock(mutex_);
  return dropped_;
}

std::vector<TraceEvent> Tracer::events() const {
  const util::LockGuard<util::Mutex> lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(size_);
  // Oldest event sits at head_ when the ring has wrapped, else at 0.
  const std::size_t first = size_ == ring_.size() ? head_ : 0;
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(first + i) % ring_.size()]);
  }
  return out;
}

void Tracer::clear() {
  const util::LockGuard<util::Mutex> lock(mutex_);
  head_ = 0;
  size_ = 0;
  dropped_ = 0;
}

Tracer& Tracer::global() {
  static auto* tracer = new Tracer();
  return *tracer;
}

}  // namespace flashqos::obs
