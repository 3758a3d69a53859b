// Frequent-pair mining.
//
// The QoS framework mines set-size-2 itemsets only (paper §IV-A), so the
// miner here is a specialized pair miner rather than a general k-itemset
// engine. mine_pairs_apriori is the paper's fim_apriori-lowmem stand-in:
// pass 1 counts item supports and prunes infrequent items (the apriori
// property: a pair can only be frequent if both items are); pass 2 counts
// the surviving pairs. mine_pairs_naive is the test oracle.
//
// Both return pairs sorted by (a, b) with a < b, support >= min_support.
#pragma once

#include <cstddef>
#include <vector>

#include "fim/transaction.hpp"

namespace flashqos::fim {

struct MiningResult {
  std::vector<FrequentPair> pairs;
  std::size_t transactions = 0;
  std::size_t total_items = 0;
  std::size_t frequent_items = 0;      // items surviving pass 1
};

/// Linear in item and pair occurrences: pass 1 counts supports in a
/// BlockTable, pass 2 radix-sorts the pair keys of frequent items and
/// run-counts them.
[[nodiscard]] MiningResult mine_pairs_apriori(const TransactionDb& db,
                                              std::uint64_t min_support);

/// Reference implementation: O(items²) dense counting per transaction with
/// no pruning. For tests and tiny inputs.
[[nodiscard]] std::vector<FrequentPair> mine_pairs_naive(const TransactionDb& db,
                                                         std::uint64_t min_support);

}  // namespace flashqos::fim
