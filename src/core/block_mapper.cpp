#include "core/block_mapper.hpp"

#include <algorithm>
#include <bit>

#include "util/expect.hpp"

namespace flashqos::core {

BlockMapper::BlockMapper(const decluster::AllocationScheme& scheme)
    : buckets_(scheme.buckets()),
      words_((scheme.devices() + 63) / 64),
      devices_(buckets_ * words_),
      usage_(buckets_) {
  for (std::size_t b = 0; b < buckets_; ++b) {
    for (const auto d : scheme.replicas(static_cast<BucketId>(b))) {
      std::uint64_t& word = devices_[b * words_ + d / 64];
      const std::uint64_t bit = std::uint64_t{1} << (d % 64);
      FLASHQOS_EXPECT((word & bit) == 0, "a bucket's replicas must be distinct devices");
      word |= bit;
    }
  }
}

BucketId BlockMapper::pick_bucket(BucketId partner) {
  // Choose the bucket minimizing, in order: device overlap with the
  // partner (zero when there is no partner), how many blocks already map
  // to the bucket (load balance — a handful of buckets are disjoint from
  // any given partner, and always reusing the same ones would funnel
  // unrelated blocks onto them), and cyclic distance from the round-robin
  // cursor (determinism / rotation). The first two compare as one score,
  // overlap << 32 | usage; the scan stops at the first zero score. Overlap
  // counts the bits of the AND of the two device bitsets one set bit at a
  // time: at most c of them, and cheaper than a popcount call on targets
  // without the instruction.
  const std::uint64_t* const pbits =
      partner == kNoPartner ? nullptr : devices_.data() + partner * words_;
  std::size_t cand = cursor_ == buckets_ ? 0 : cursor_;
  BucketId best = static_cast<BucketId>(cand);
  std::uint64_t best_score = UINT64_MAX;
  for (std::size_t i = 0; i < buckets_; ++i) {
    std::uint64_t overlap = 0;
    if (pbits != nullptr) {
      const std::uint64_t* const cbits = devices_.data() + cand * words_;
      for (std::size_t w = 0; w < words_; ++w) {
        for (std::uint64_t x = cbits[w] & pbits[w]; x != 0; x &= x - 1) ++overlap;
      }
    }
    const std::uint64_t score = (overlap << 32) | usage_[cand];
    if (score < best_score) {
      best = static_cast<BucketId>(cand);
      best_score = score;
      if (score == 0) break;
    }
    if (++cand == buckets_) cand = 0;
  }
  ++usage_[best];
  cursor_ = best + 1;
  return best;
}

void BlockMapper::rebuild(std::span<const fim::FrequentPair> pairs) {
  table_.clear();
  std::fill(usage_.begin(), usage_.end(), 0);
  cursor_ = 0;
  if (pairs.empty()) return;
  // Strongest co-occurrences first: they deserve the cleanest separation.
  // Keys (max - support) << index bits | index, built in index order and
  // radix-sorted on the support field alone, put higher support first and
  // keep input order among equals, as a stable sort would.
  const auto [lo, hi] = std::minmax_element(
      pairs.begin(), pairs.end(),
      [](const fim::FrequentPair& x, const fim::FrequentPair& y) {
        return x.support < y.support;
      });
  const std::uint64_t max_support = hi->support;
  const auto index_bits = static_cast<unsigned>(std::bit_width(pairs.size() - 1));
  const auto support_bits =
      static_cast<unsigned>(std::bit_width(max_support - lo->support));
  FLASHQOS_EXPECT(index_bits + support_bits <= 64, "pair sort key overflows 64 bits");
  std::vector<std::uint64_t> order;
  std::vector<std::uint64_t> scratch;
  order.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    order.push_back(((max_support - pairs[i].support) << index_bits) | i);
  }
  fim::radix_sort(order, scratch, index_bits, index_bits + support_bits);
  const std::uint64_t index_mask = (std::uint64_t{1} << index_bits) - 1;
  for (const auto key : order) {
    const auto& p = pairs[key & index_mask];
    const auto ba = table_.find(p.a);
    const auto bb = table_.find(p.b);
    if (ba == fim::BlockTable::kAbsent && bb == fim::BlockTable::kAbsent) {
      const BucketId first = pick_bucket(kNoPartner);
      table_.try_emplace(p.a, first);
      table_.try_emplace(p.b, pick_bucket(first));
    } else if (ba == fim::BlockTable::kAbsent) {
      table_.try_emplace(p.a, pick_bucket(bb));
    } else if (bb == fim::BlockTable::kAbsent) {
      table_.try_emplace(p.b, pick_bucket(ba));
    }
    // Both already placed: keep the earlier (higher-support) decisions.
  }
}

}  // namespace flashqos::core
