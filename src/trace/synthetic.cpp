#include "trace/synthetic.hpp"

#include <algorithm>

#include "trace/cursor.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace flashqos::trace {
namespace {

// The cursors below ARE the generators: generate_synthetic /
// generate_multi_tenant drain them, so a streaming consumer and an
// in-memory caller see bit-identical event sequences (same RNG draw order,
// one interval batch at a time).

class SyntheticCursor final : public BatchStagedCursor {
 public:
  explicit SyntheticCursor(const SyntheticParams& p)
      : p_(p), rng_(p.seed), meta_{"synthetic", 0, p.interval} {
    FLASHQOS_EXPECT(p.bucket_pool > 0, "need a non-empty bucket pool");
    FLASHQOS_EXPECT(p.requests_per_interval > 0,
                    "need at least one request per interval");
    FLASHQOS_EXPECT(p.with_replacement || p.requests_per_interval <= p.bucket_pool,
                    "distinct sampling needs a pool at least the batch size");
  }

  [[nodiscard]] const TraceMeta& meta() const noexcept override {
    return meta_;
  }

  void reset() override {
    restart_stage();
    rng_.reseed(p_.seed);
    emitted_ = 0;
    now_ = 0;
  }

 protected:
  [[nodiscard]] bool produce(std::vector<TraceEvent>& out) override {
    if (emitted_ >= p_.total_requests) return false;
    const std::size_t batch = std::min<std::size_t>(
        p_.requests_per_interval, p_.total_requests - emitted_);
    const auto push = [&](DataBlockId block) {
      out.push_back(TraceEvent{.time = now_,
                               .block = block,
                               .device = 0,
                               .size_blocks = 1,
                               .is_read = true});
    };
    if (p_.with_replacement) {
      for (std::size_t i = 0; i < batch; ++i) push(rng_.below(p_.bucket_pool));
    } else {
      for (const auto b : rng_.sample_without_replacement(p_.bucket_pool, batch)) {
        push(b);
      }
    }
    emitted_ += batch;
    now_ += p_.interval;
    return true;
  }

 private:
  SyntheticParams p_;
  Rng rng_;
  TraceMeta meta_;
  std::size_t emitted_ = 0;
  SimTime now_ = 0;
};

class MultiTenantCursor final : public BatchStagedCursor {
 public:
  explicit MultiTenantCursor(const MultiTenantParams& p)
      : p_(p), rng_(p.seed), meta_{"multi_tenant_synthetic", 0, p.interval} {
    FLASHQOS_EXPECT(!p.tenants.empty(), "need at least one tenant load");
    FLASHQOS_EXPECT(p.intervals > 0, "need at least one interval");
    // A jitter step of interval / (jitter_slots + 1) ns must be at least
    // 1 ns, or arrivals spill into later intervals and come out of order.
    FLASHQOS_EXPECT(p.jitter_slots == 0 || p.jitter_slots < p.interval,
                    "jitter_slots must be below the interval in ns");
    // Disjoint consecutive pools; per-tenant cursor cycles the pool so any
    // short run of that tenant's requests hits distinct buckets.
    base_.resize(p.tenants.size());
    cursor_.assign(p.tenants.size(), 0);
    std::size_t next_base = p.bucket_base;
    for (std::size_t k = 0; k < p.tenants.size(); ++k) {
      FLASHQOS_EXPECT(p.tenants[k].bucket_pool > 0,
                      "tenant bucket pools must be non-empty");
      base_[k] = next_base;
      next_base += p.tenants[k].bucket_pool;
    }
  }

  [[nodiscard]] const TraceMeta& meta() const noexcept override {
    return meta_;
  }

  void reset() override {
    restart_stage();
    rng_.reseed(p_.seed);
    std::fill(cursor_.begin(), cursor_.end(), 0);
    q_ = 0;
  }

 protected:
  [[nodiscard]] bool produce(std::vector<TraceEvent>& out) override {
    if (q_ >= p_.intervals) return false;
    const SimTime boundary = static_cast<SimTime>(q_) * p_.interval;
    const std::size_t first = out.size();
    for (std::size_t k = 0; k < p_.tenants.size(); ++k) {
      const auto& load = p_.tenants[k];
      if (load.active_intervals > 0 && q_ >= load.active_intervals) continue;
      if (load.period > 1 && q_ % load.period != 0) continue;
      for (std::uint32_t i = 0; i < load.requests_per_interval; ++i) {
        SimTime at = boundary;
        if (p_.jitter_slots > 0) {
          // 64-bit: jitter_slots + 1 wraps to 0 in 32 bits.
          const SimTime slots = static_cast<SimTime>(p_.jitter_slots) + 1;
          at += static_cast<SimTime>(rng_.below(static_cast<std::uint64_t>(slots))) *
                (p_.interval / slots);
        }
        out.push_back(
            TraceEvent{.time = at,
                       .block = static_cast<DataBlockId>(base_[k] + cursor_[k]),
                       .device = 0,
                       .size_blocks = 1,
                       .is_read = true,
                       .tenant = static_cast<std::uint32_t>(k)});
        cursor_[k] = (cursor_[k] + 1) % load.bucket_pool;
      }
    }
    // Same-instant events keep tenant-emission order (stable sort).
    std::stable_sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       return a.time < b.time;
                     });
    ++q_;
    return true;
  }

 private:
  MultiTenantParams p_;
  Rng rng_;
  TraceMeta meta_;
  std::vector<std::size_t> base_;
  std::vector<std::size_t> cursor_;
  std::size_t q_ = 0;
};

}  // namespace

std::unique_ptr<TraceCursor> make_synthetic_cursor(const SyntheticParams& p) {
  return std::make_unique<SyntheticCursor>(p);
}

std::unique_ptr<TraceCursor> make_multi_tenant_cursor(
    const MultiTenantParams& p) {
  return std::make_unique<MultiTenantCursor>(p);
}

Trace generate_synthetic(const SyntheticParams& p) {
  SyntheticCursor c(p);
  return drain_cursor(c);
}

Trace generate_multi_tenant(const MultiTenantParams& p) {
  MultiTenantCursor c(p);
  return drain_cursor(c);
}

}  // namespace flashqos::trace
