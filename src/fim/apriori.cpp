#include "fim/apriori.hpp"

#include <algorithm>
#include <chrono>
#include <map>

#include "util/memory.hpp"

namespace flashqos::fim {
namespace {

// flashqos-lint: allow(wall-clock): miner self-timing (elapsed_seconds metric)
using Clock = std::chrono::steady_clock;

}  // namespace

MiningResult mine_pairs_apriori(const TransactionDb& db, std::uint64_t min_support) {
  const auto t0 = Clock::now();
  MiningResult res;
  res.transactions = db.size();
  res.total_items = db.total_items();
  if (min_support == 0) min_support = 1;

  // Flat sort/run-count passes instead of hash maps: the miner sits on the
  // streaming replay's per-interval critical path, and sorted runs over
  // contiguous arrays beat pointer-chasing hash tables there. Output is
  // identical to the hash-map formulation — run-counting a sorted multiset
  // IS its exact histogram, and dense ids / pair keys are emitted in the
  // same (item-order, lo < hi) encoding finalize_pairs sorted into.

  // Pass 1: item supports by sort + run-count; survivors (already in item
  // order) become the dense id table.
  std::vector<Item> items;
  items.reserve(db.total_items());
  for (const auto& t : db.transactions()) {
    items.insert(items.end(), t.begin(), t.end());
  }
  std::sort(items.begin(), items.end());
  std::vector<Item> to_item;  // dense id -> item, ascending
  for (std::size_t i = 0; i < items.size();) {
    std::size_t j = i;
    while (j < items.size() && items[j] == items[i]) ++j;
    if (j - i >= min_support) to_item.push_back(items[i]);
    i = j;
  }
  res.frequent_items = to_item.size();

  // Pass 2: pair keys of frequent items per transaction, flattened, then
  // sort + run-count. Dense ids are assigned in item order and transactions
  // are sorted, so lo < hi holds by construction and key order equals the
  // (a, b) item order the result contract requires.
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> dense;
  for (const auto& t : db.transactions()) {
    dense.clear();
    for (const auto item : t) {
      const auto it = std::lower_bound(to_item.begin(), to_item.end(), item);
      if (it != to_item.end() && *it == item) {
        dense.push_back(static_cast<std::uint32_t>(it - to_item.begin()));
      }
    }
    for (std::size_t i = 0; i < dense.size(); ++i) {
      for (std::size_t j = i + 1; j < dense.size(); ++j) {
        keys.push_back((static_cast<std::uint64_t>(dense[i]) << 32) | dense[j]);
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  std::vector<FrequentPair> pairs;
  for (std::size_t i = 0; i < keys.size();) {
    std::size_t j = i;
    while (j < keys.size() && keys[j] == keys[i]) ++j;
    if (j - i >= min_support) {
      const auto lo = static_cast<std::uint32_t>(keys[i] >> 32);
      const auto hi = static_cast<std::uint32_t>(keys[i] & 0xFFFFFFFFULL);
      pairs.push_back(FrequentPair{to_item[lo], to_item[hi], j - i});
    }
    i = j;
  }
  res.pairs = std::move(pairs);
  res.elapsed_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  res.peak_memory_bytes = peak_rss_bytes();
  return res;
}

std::vector<FrequentPair> mine_pairs_naive(const TransactionDb& db,
                                           std::uint64_t min_support) {
  if (min_support == 0) min_support = 1;
  std::map<std::pair<Item, Item>, std::uint64_t> counts;
  for (const auto& t : db.transactions()) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        ++counts[{t[i], t[j]}];
      }
    }
  }
  std::vector<FrequentPair> out;
  for (const auto& [pair, count] : counts) {
    if (count >= min_support) {
      out.push_back(FrequentPair{pair.first, pair.second, count});
    }
  }
  return out;
}

}  // namespace flashqos::fim
