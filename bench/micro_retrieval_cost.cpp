// Micro-benchmarks (google-benchmark) — algorithmic costs the paper quotes:
// design-theoretic retrieval is O(b), the max-flow solver O(b³); the
// framework runs DTR first and escalates only on suboptimality (§III-C).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "core/sampler.hpp"
#include "obs/export.hpp"
#include "decluster/schemes.hpp"
#include "design/block_design.hpp"
#include "design/constructions.hpp"
#include "fim/apriori.hpp"
#include "retrieval/dtr.hpp"
#include "retrieval/maxflow.hpp"
#include "retrieval/workspace.hpp"
#include "util/rng.hpp"

// ---------------------------------------------------------------------------
// TU-local global operator-new replacement: counts every heap allocation in
// this binary, so the *Reused benchmarks can report an exact steady-state
// allocations-per-call figure (expected: 0 after warmup). Replacement
// operators must have external linkage; only the counter stays internal.
// scripts/check.sh builds the sanitizer stages with FLASHQOS_BUILD_BENCH=OFF,
// so this never collides with ASan's allocator interposition.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

std::uint64_t heap_alloc_count() noexcept {
  return g_heap_allocs.load(std::memory_order_relaxed);
}
}  // namespace

// GCC pairs `operator new` results with `operator delete` and flags the
// malloc/free plumbing inside the replacement itself; the pairing here is
// by construction (new wraps malloc, delete wraps free).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  std::abort();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto align = static_cast<std::size_t>(a);
  const std::size_t rounded = (n + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded ? rounded : align)) return p;
  std::abort();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#pragma GCC diagnostic pop

using namespace flashqos;

namespace {

/// Exact steady-state allocation count: run `fn` once more after the
/// caller's warmup, outside the timed loop, and report how many heap
/// allocations that single call performed.
template <typename Fn>
double allocs_per_call(Fn&& fn) {
  const auto before = heap_alloc_count();
  for (int i = 0; i < 16; ++i) fn();
  return static_cast<double>(heap_alloc_count() - before) / 16.0;
}

const decluster::DesignTheoretic& scheme13() {
  static const auto d = design::make_13_3_1();
  static const decluster::DesignTheoretic s(d, true);
  return s;
}

std::vector<BucketId> random_batch(std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<BucketId> batch(k);
  for (auto& b : batch) {
    b = static_cast<BucketId>(rng.below(scheme13().buckets()));
  }
  return batch;
}

void BM_DtrSchedule(benchmark::State& state) {
  const auto batch = random_batch(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(retrieval::dtr_schedule(batch, scheme13()));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DtrSchedule)->RangeMultiplier(2)->Range(4, 256)->Complexity();

void BM_MaxFlowOptimal(benchmark::State& state) {
  const auto batch = random_batch(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(retrieval::optimal_schedule(batch, scheme13()));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MaxFlowOptimal)->RangeMultiplier(2)->Range(4, 256)->Complexity();

void BM_CombinedRetrieve(benchmark::State& state) {
  const auto batch = random_batch(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(retrieval::retrieve(batch, scheme13()));
  }
}
BENCHMARK(BM_CombinedRetrieve)->RangeMultiplier(2)->Range(4, 256);

void BM_SamplerPerSize(benchmark::State& state) {
  // cache = false: measure the Monte-Carlo computation itself (the memo
  // would fold every iteration after the first into a table copy — that
  // path is BM_SamplerMemoHit below).
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::sample_optimal_probabilities(
        scheme13(), static_cast<std::uint32_t>(state.range(0)),
        {.samples_per_size = 50, .seed = 9, .cache = false}));
  }
}
BENCHMARK(BM_SamplerPerSize)->Arg(8)->Arg(16)->Arg(32);

void BM_SamplerMemoHit(benchmark::State& state) {
  // Sweep-level repeat of an identical (scheme, max_k, samples, seed)
  // sampling: everything after the priming call is a memo hit plus one
  // table copy.
  const auto max_k = static_cast<std::uint32_t>(state.range(0));
  const core::SamplerParams params{.samples_per_size = 50, .seed = 9};
  benchmark::DoNotOptimize(
      core::sample_optimal_probabilities(scheme13(), max_k, params));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::sample_optimal_probabilities(scheme13(), max_k, params));
  }
}
BENCHMARK(BM_SamplerMemoHit)->Arg(8)->Arg(16)->Arg(32);

void BM_SamplerShapedFeasibility(benchmark::State& state) {
  // The P_k estimator's hot loop, isolated: regenerate a uniform batch of
  // fixed size, ask only the feasibility bit at the optimal access bound.
  // The reused FlowWorkspace makes this allocation-free after warmup.
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto& s = scheme13();
  const auto lower =
      static_cast<std::uint32_t>(design::optimal_accesses(k, s.devices()));
  Rng rng(17);
  std::vector<BucketId> batch(k);
  retrieval::FlowWorkspace ws;
  const auto draw = [&] {
    for (auto& b : batch) b = static_cast<BucketId>(rng.below(s.buckets()));
    benchmark::DoNotOptimize(ws.solve(batch, s, lower));
  };
  draw();  // warmup: sizes every workspace buffer for this shape
  const double steady_allocs = allocs_per_call(draw);
  for (auto _ : state) draw();
  state.counters["allocs_per_call"] = steady_allocs;
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SamplerShapedFeasibility)
    ->RangeMultiplier(2)
    ->Range(4, 256)
    ->Complexity();

void BM_AprioriPairs(benchmark::State& state) {
  Rng rng(5);
  fim::TransactionDb db;
  const auto txs = static_cast<std::size_t>(state.range(0));
  for (std::size_t t = 0; t < txs; ++t) {
    std::vector<fim::Item> items;
    const std::size_t len = 2 + rng.below(10);
    for (std::size_t i = 0; i < len; ++i) items.push_back(rng.below(5000));
    db.add(std::move(items));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fim::mine_pairs_apriori(db, 1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(db.total_items()));
}
BENCHMARK(BM_AprioriPairs)->Arg(1000)->Arg(10000)->Arg(50000);

}  // namespace

namespace {

void BM_IntegratedOptimal(benchmark::State& state) {
  const auto batch = random_batch(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(retrieval::integrated_optimal_schedule(batch, scheme13()));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_IntegratedOptimal)->RangeMultiplier(2)->Range(4, 256)->Complexity();

void BM_MaxFlowOptimalReused(benchmark::State& state) {
  // Same search as BM_MaxFlowOptimal through a reused FlowWorkspace:
  // the network is built once per solve into retained CSR buffers and
  // round steps re-solve in place.
  const auto batch = random_batch(static_cast<std::size_t>(state.range(0)), 2);
  retrieval::FlowWorkspace ws;
  retrieval::Schedule out;
  const auto solve = [&] {
    benchmark::DoNotOptimize(
        retrieval::optimal_schedule(batch, scheme13(), {}, ws, out));
  };
  solve();
  const double steady_allocs = allocs_per_call(solve);
  for (auto _ : state) solve();
  state.counters["allocs_per_call"] = steady_allocs;
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MaxFlowOptimalReused)->RangeMultiplier(2)->Range(4, 256)->Complexity();

void BM_CombinedRetrieveReused(benchmark::State& state) {
  const auto batch = random_batch(static_cast<std::size_t>(state.range(0)), 3);
  retrieval::RetrievalScratch scratch;
  const auto run = [&] {
    benchmark::DoNotOptimize(retrieval::retrieve(batch, scheme13(), scratch));
  };
  run();
  const double steady_allocs = allocs_per_call(run);
  for (auto _ : state) run();
  state.counters["allocs_per_call"] = steady_allocs;
}
BENCHMARK(BM_CombinedRetrieveReused)->RangeMultiplier(2)->Range(4, 256);

std::vector<BucketId> skewed_batch(std::size_t k, std::uint64_t seed) {
  // Every other request hits bucket 0: for k >= 8 its multiplicity exceeds
  // what `copies` replicas can absorb in the optimal access bound, so the
  // DTR fast path is always off-optimal and retrieve() escalates to the
  // max-flow round search every call.
  Rng rng(seed);
  std::vector<BucketId> batch(k);
  for (std::size_t i = 0; i < k; ++i) {
    batch[i] = (i % 2 == 0)
                   ? BucketId{0}
                   : static_cast<BucketId>(rng.below(scheme13().buckets()));
  }
  return batch;
}

void BM_FallbackHeavyRetrieve(benchmark::State& state) {
  const auto batch = skewed_batch(static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(retrieval::retrieve(batch, scheme13()));
  }
}
BENCHMARK(BM_FallbackHeavyRetrieve)->RangeMultiplier(2)->Range(8, 256);

void BM_FallbackHeavyRetrieveReused(benchmark::State& state) {
  const auto batch = skewed_batch(static_cast<std::size_t>(state.range(0)), 4);
  retrieval::RetrievalScratch scratch;
  const auto run = [&] {
    benchmark::DoNotOptimize(retrieval::retrieve(batch, scheme13(), scratch));
  };
  run();
  const double steady_allocs = allocs_per_call(run);
  for (auto _ : state) run();
  state.counters["allocs_per_call"] = steady_allocs;
}
BENCHMARK(BM_FallbackHeavyRetrieveReused)->RangeMultiplier(2)->Range(8, 256);

}  // namespace

// Custom main instead of benchmark_main: google-benchmark's flag parser
// rejects --smoke and the observability output flags, so strip them here —
// --smoke substitutes the reduced-scale flags the bench_smoke_* ctest run
// relies on (near-zero min time, small problem sizes only);
// --metrics-out=/--trace-out= route through the shared obs plumbing like
// every other driver. All regular google-benchmark flags still pass through.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  bool obs_out = false;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      continue;
    }
    if (i > 0 && flashqos::obs::consume_output_flag(argv[i])) {
      obs_out = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  if (obs_out) {
    std::atexit([] { (void)flashqos::obs::write_requested_outputs(); });
  }
  static char min_time[] = "--benchmark_min_time=0.001";
  static char filter[] = "--benchmark_filter=/(4|8|16|1000)$";
  if (smoke) {
    args.push_back(min_time);
    args.push_back(filter);
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
