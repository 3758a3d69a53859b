#include "core/sampler.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <tuple>

#include "design/block_design.hpp"
#include "obs/metrics.hpp"
#include "retrieval/maxflow.hpp"
#include "util/rng.hpp"

namespace flashqos::core {
namespace {

struct PkCacheMetrics {
  obs::Counter& hit;
  obs::Counter& miss;

  static PkCacheMetrics& get() {
    auto& reg = obs::MetricRegistry::global();
    static PkCacheMetrics m{reg.counter("retrieval.pk_cache.hit"),
                            reg.counter("retrieval.pk_cache.miss")};
    return m;
  }
};

double estimate_one_size(const decluster::AllocationScheme& scheme, std::uint32_t k,
                         std::size_t samples, std::uint64_t seed,
                         const std::vector<bool>& available,
                         const std::vector<BucketId>& pool,
                         std::uint32_t live_devices) {
  // Per-size RNG stream: P_k is the same whatever max_k the table runs to.
  // With an empty mask the pool is the identity over all buckets, so the
  // draws (and the table) are bit-identical to the healthy sampler.
  Rng rng(shard_seed(seed, k));
  std::vector<BucketId> batch(k);
  const auto lower =
      static_cast<std::uint32_t>(design::optimal_accesses(k, live_devices));
  std::size_t optimal = 0;
  // One flow workspace per size: the sampler only needs the feasibility
  // bit, so it skips schedule extraction entirely, and after the first
  // sample every solve reuses the workspace buffers allocation-free.
  retrieval::FlowWorkspace ws;
  for (std::size_t s = 0; s < samples; ++s) {
    for (auto& b : batch) b = pool[rng.below(pool.size())];
    if (ws.solve(batch, scheme, lower, available)) ++optimal;
  }
  return static_cast<double>(optimal) / static_cast<double>(samples);
}

std::vector<double> compute_probabilities(const decluster::AllocationScheme& scheme,
                                          std::uint32_t max_k,
                                          const SamplerParams& params,
                                          const std::vector<bool>& available) {
  std::vector<double> p(max_k + 1, 1.0);
  if (max_k == 0) return p;
  // Degraded runs draw batches only from buckets that still have a live
  // replica (buckets with every copy down fail outright and never reach
  // retrieval) and measure against the surviving sub-array's optimum.
  std::uint32_t live_devices = scheme.devices();
  std::vector<BucketId> pool;
  pool.reserve(scheme.buckets());
  if (available.empty()) {
    // flashqos-lint: allow(hot-path-alloc): setup fill into the reserve()d pool
    for (BucketId b = 0; b < scheme.buckets(); ++b) pool.push_back(b);
  } else {
    live_devices = 0;
    for (DeviceId d = 0; d < scheme.devices(); ++d) {
      if (available[d]) ++live_devices;
    }
    for (BucketId b = 0; b < scheme.buckets(); ++b) {
      const auto reps = scheme.replicas(b);
      if (std::any_of(reps.begin(), reps.end(),
                      [&](DeviceId d) { return available[d]; })) {
        // flashqos-lint: allow(hot-path-alloc): setup fill into the reserve()d pool
        pool.push_back(b);
      }
    }
  }
  FLASHQOS_EXPECT(live_devices > 0 && !pool.empty(),
                  "degraded sampling needs at least one live device");
  for (std::uint32_t k = 1; k <= max_k; ++k) {
    p[k] = estimate_one_size(scheme, k, params.samples_per_size, params.seed,
                             available, pool, live_devices);
  }
  return p;
}

/// Everything that determines the sampled table bit for bit: the scheme's
/// geometry and full replica table, plus the sampling parameters.
struct PkKey {
  std::uint32_t devices;
  std::uint32_t copies;
  std::uint32_t max_k;
  std::size_t samples;
  std::uint64_t seed;
  std::vector<DeviceId> table;
  std::vector<bool> mask;  // availability; empty = healthy (legacy key)

  friend bool operator<(const PkKey& a, const PkKey& b) {
    return std::tie(a.devices, a.copies, a.max_k, a.samples, a.seed, a.table,
                    a.mask) <
           std::tie(b.devices, b.copies, b.max_k, b.samples, b.seed, b.table,
                    b.mask);
  }
};

}  // namespace

std::vector<double> sample_optimal_probabilities(
    const decluster::AllocationScheme& scheme, std::uint32_t max_k,
    const SamplerParams& params) {
  return sample_optimal_probabilities(scheme, max_k, params, {});
}

std::vector<double> sample_optimal_probabilities(
    const decluster::AllocationScheme& scheme, std::uint32_t max_k,
    const SamplerParams& params, const std::vector<bool>& available) {
  FLASHQOS_EXPECT(params.samples_per_size > 0, "sampler needs samples");
  FLASHQOS_EXPECT(available.empty() || available.size() == scheme.devices(),
                  "availability mask must cover every device");
  if (!params.cache) return compute_probabilities(scheme, max_k, params, available);

  PkKey key{scheme.devices(), scheme.copies(), max_k, params.samples_per_size,
            params.seed, {}, available};
  key.table.reserve(static_cast<std::size_t>(scheme.buckets()) * scheme.copies());
  for (BucketId b = 0; b < scheme.buckets(); ++b) {
    const auto reps = scheme.replicas(b);
    // flashqos-lint: allow(hot-path-alloc): memo-key build into the reserve()d table
    key.table.insert(key.table.end(), reps.begin(), reps.end());
  }

  // The lock is held across the compute: a second caller of a key being
  // computed waits, then hits.
  static std::mutex mutex;
  static std::map<PkKey, std::vector<double>> memo;
  const std::lock_guard<std::mutex> lock(mutex);
  auto it = memo.find(key);
  const bool hit = it != memo.end();
  if constexpr (obs::kEnabled) {
    if (hit) {
      PkCacheMetrics::get().hit.inc();
    } else {
      PkCacheMetrics::get().miss.inc();
    }
  }
  if (!hit) {
    // flashqos-lint: allow(hot-path-alloc): memo miss; once per configuration
    it = memo.emplace(std::move(key),
                      compute_probabilities(scheme, max_k, params, available))
             .first;
  }
  return it->second;
}

}  // namespace flashqos::core
