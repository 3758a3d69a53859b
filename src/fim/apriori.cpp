#include "fim/apriori.hpp"

#include <algorithm>
#include <bit>
#include <map>

#include "fim/block_table.hpp"
#include "util/expect.hpp"

namespace flashqos::fim {

MiningResult mine_pairs_apriori(const TransactionDb& db, std::uint64_t min_support) {
  MiningResult res;
  res.transactions = db.size();
  res.total_items = db.total_items();
  if (min_support == 0) min_support = 1;
  FLASHQOS_EXPECT(db.size() < BlockTable::kAbsent - 1, "supports are counted in 32 bits");

  // Pass 1: item supports (items are distinct within a transaction, so an
  // item's occurrence count is its support).
  BlockTable table;
  for (const Item item : db.items()) ++table.try_emplace(item, 0);
  std::vector<Item> to_item;  // dense id -> item, ascending
  table.for_each([&](Item item, std::uint32_t& count) {
    if (count >= min_support) to_item.push_back(item);
    count = BlockTable::kAbsent - 1;  // infrequent unless given an id below
  });
  std::sort(to_item.begin(), to_item.end());
  for (std::size_t id = 0; id < to_item.size(); ++id) {
    table.try_emplace(to_item[id], 0) = static_cast<std::uint32_t>(id);
  }
  res.frequent_items = to_item.size();
  if (to_item.size() < 2) return res;

  // Pass 2: pair keys of frequent items. Transactions are sorted and dense
  // ids follow item order, so lo < hi holds by construction, and the key
  // lo << bits | hi orders exactly as (a, b) — and as (lo << 32) | hi —
  // while using only the bits the ids need.
  const auto bits = static_cast<unsigned>(std::bit_width(to_item.size() - 1));
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> dense;
  for (std::size_t t = 0; t < db.size(); ++t) {
    dense.clear();
    for (const Item item : db.transaction(t)) {
      const std::uint32_t id = table.find(item);
      if (id < to_item.size()) dense.push_back(id);
    }
    for (std::size_t i = 0; i < dense.size(); ++i) {
      const std::uint64_t lo = std::uint64_t{dense[i]} << bits;
      for (std::size_t j = i + 1; j < dense.size(); ++j) keys.push_back(lo | dense[j]);
    }
  }
  // Stable radix sort, then run-count: the runs come out in key order.
  std::vector<std::uint64_t> scratch;
  radix_sort(keys, scratch, 0, 2 * bits);
  const std::uint64_t hi_mask = (std::uint64_t{1} << bits) - 1;
  for (std::size_t i = 0; i < keys.size();) {
    std::size_t j = i + 1;
    while (j < keys.size() && keys[j] == keys[i]) ++j;
    if (j - i >= min_support) {
      res.pairs.push_back(
          FrequentPair{to_item[keys[i] >> bits], to_item[keys[i] & hi_mask], j - i});
    }
    i = j;
  }
  return res;
}

std::vector<FrequentPair> mine_pairs_naive(const TransactionDb& db,
                                           std::uint64_t min_support) {
  if (min_support == 0) min_support = 1;
  std::map<std::pair<Item, Item>, std::uint64_t> counts;
  for (std::size_t n = 0; n < db.size(); ++n) {
    const auto t = db.transaction(n);
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
