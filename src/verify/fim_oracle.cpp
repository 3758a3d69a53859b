#include "verify/fim_oracle.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "core/qos_pipeline.hpp"
#include "fim/apriori.hpp"
#include "trace/workload.hpp"

namespace flashqos::verify {
namespace {

std::string pair_text(const fim::FrequentPair& p) {
  std::ostringstream os;
  os << "(" << p.a << ", " << p.b << "):" << p.support;
  return std::move(os).str();
}

/// Number of shared devices between two buckets' replica sets.
std::uint32_t device_overlap(const decluster::AllocationScheme& scheme, BucketId a,
                             BucketId b) {
  std::uint32_t overlap = 0;
  for (const auto da : scheme.replicas(a)) {
    for (const auto db : scheme.replicas(b)) {
      if (da == db) ++overlap;
    }
  }
  return overlap;
}

/// BlockMapper's placement as it was first written: a hash-map table and a
/// modulo cyclic scan that recomputes every candidate's overlap.
class ReferenceMapper {
 public:
  explicit ReferenceMapper(const decluster::AllocationScheme& scheme) : scheme_(scheme) {}

  Placement rebuild(std::span<const fim::FrequentPair> pairs) {
    table_.clear();
    usage_.assign(scheme_.buckets(), 0);
    cursor_ = 0;
    std::vector<const fim::FrequentPair*> order;
    order.reserve(pairs.size());
    for (const auto& p : pairs) order.push_back(&p);
    std::stable_sort(order.begin(), order.end(),
                     [](const fim::FrequentPair* x, const fim::FrequentPair* y) {
                       return x->support > y->support;
                     });
    for (const auto* p : order) {
      const auto it_a = table_.find(p->a);
      const auto it_b = table_.find(p->b);
      if (it_a == table_.end() && it_b == table_.end()) {
        const BucketId ba = pick_bucket(std::nullopt);
        table_.emplace(p->a, ba);
        table_.emplace(p->b, pick_bucket(ba));
      } else if (it_a == table_.end()) {
        table_.emplace(p->a, pick_bucket(it_b->second));
      } else if (it_b == table_.end()) {
        table_.emplace(p->b, pick_bucket(it_a->second));
      }
    }
    return std::move(table_);
  }

 private:
  BucketId pick_bucket(std::optional<BucketId> partner_bucket) {
    const std::size_t buckets = scheme_.buckets();
    BucketId best = static_cast<BucketId>(cursor_ % buckets);
    std::uint32_t best_overlap = UINT32_MAX;
    std::size_t best_usage = SIZE_MAX;
    for (std::size_t i = 0; i < buckets; ++i) {
      const auto cand = static_cast<BucketId>((cursor_ + i) % buckets);
      const std::uint32_t ov =
          partner_bucket ? device_overlap(scheme_, cand, *partner_bucket) : 0;
      const std::size_t usage = usage_[cand];
      if (ov < best_overlap || (ov == best_overlap && usage < best_usage)) {
        best = cand;
        best_overlap = ov;
        best_usage = usage;
        if (ov == 0 && usage == 0) break;
      }
    }
    ++usage_[best];
    cursor_ = best + 1;
    return best;
  }

  const decluster::AllocationScheme& scheme_;
  Placement table_;
  std::vector<std::size_t> usage_;
  std::size_t cursor_ = 0;
};

ModelSlice first_slice(trace::WorkloadParams p) {
  p.report_intervals = 1;
  core::SliceTransactions slices(kBaseInterval, 0);
  for (const auto& e : trace::generate_workload(p).events) slices.add(e);
  slices.finish();
  return {.name = p.name, .db = slices.take()};
}

}  // namespace

Placement reference_placement(const decluster::AllocationScheme& scheme,
                              std::span<const fim::FrequentPair> pairs) {
  return ReferenceMapper(scheme).rebuild(pairs);
}

bool pairs_match(std::span<const fim::FrequentPair> want,
                 std::span<const fim::FrequentPair> got, std::string* why) {
  const std::size_t n = std::min(want.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (want[i] != got[i]) {
      if (why != nullptr) {
        *why = "pair " + std::to_string(i) + ": want " + pair_text(want[i]) + ", got " +
               pair_text(got[i]);
      }
      return false;
    }
  }
  if (want.size() != got.size()) {
    if (why != nullptr) {
      *why = "want " + std::to_string(want.size()) + " pairs, got " +
             std::to_string(got.size());
    }
    return false;
  }
  return true;
}

bool mapping_matches(const Placement& reference, std::size_t buckets,
                     const core::BlockMapper& mapper, std::span<const DataBlockId> blocks,
                     std::string* why) {
  for (const DataBlockId block : blocks) {
    const auto it = reference.find(block);
    const bool placed = it != reference.end();
    const BucketId want = placed ? it->second : static_cast<BucketId>(block % buckets);
    const auto got = mapper.map(block);
    if (got.bucket != want || got.matched != placed) {
      if (why != nullptr) {
        *why = "block " + std::to_string(block) + ": want bucket " +
               std::to_string(want) + (placed ? " (placed)" : " (modulo)") + ", got " +
               std::to_string(got.bucket) + (got.matched ? " (placed)" : " (modulo)");
      }
      return false;
    }
  }
  return true;
}

const std::vector<ModelSlice>& model_slices() {
  // Small first slices: ~1.5k Exchange-like and ~2.6k TPC-E-like reads.
  static const std::vector<ModelSlice> slices = {
      first_slice(trace::exchange_params(5.0, 7)),
      first_slice(trace::tpce_params(0.1, 7)),
  };
  return slices;
}

Report verify_miner() {
  Report r("fim miner");
  for (const auto& slice : model_slices()) {
    for (const std::uint64_t support : {1U, 2U, 3U}) {
      const auto fast = fim::mine_pairs_apriori(slice.db, support);
      std::string why;
      const bool ok =
          pairs_match(fim::mine_pairs_naive(slice.db, support), fast.pairs, &why);
      r.add(slice.name + " apriori == naive, support " + std::to_string(support), ok,
            ok ? std::to_string(fast.pairs.size()) + " pairs from " +
                     std::to_string(slice.db.size()) + " transactions"
               : why);
    }
  }
  return r;
}

}  // namespace flashqos::verify
