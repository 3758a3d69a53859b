// Transaction databases for frequent itemset mining.
//
// In this project a "transaction" is the set of data blocks requested
// within one QoS interval T (paper §IV-A); mining frequent pairs over the
// previous interval's transactions tells the block mapper which data blocks
// tend to be requested together.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "util/types.hpp"

namespace flashqos::fim {

using Item = DataBlockId;

/// Flat storage: every transaction's items back to back in one array, plus
/// the end offset of each transaction, so a slice costs two growing
/// arrays rather than one allocation per transaction.
class TransactionDb {
 public:
  TransactionDb() = default;

  /// Add one transaction; duplicates within it are collapsed and items
  /// sorted (canonical form required by the miners). An empty transaction
  /// adds nothing.
  void add(std::vector<Item> items) { add_in_place(items); }

  /// Same rule, canonicalizing `items` in place so the caller can reuse
  /// its buffer.
  void add_in_place(std::span<Item> items) {
    std::sort(items.begin(), items.end());
    const auto last = std::unique(items.begin(), items.end());
    if (last == items.begin()) return;
    items_.insert(items_.end(), items.begin(), last);
    ends_.push_back(items_.size());
  }

  [[nodiscard]] std::size_t size() const noexcept { return ends_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ends_.empty(); }

  /// Transaction `i` (sorted, distinct items).
  [[nodiscard]] std::span<const Item> transaction(std::size_t i) const noexcept {
    const std::size_t begin = i == 0 ? 0 : ends_[i - 1];
    return {items_.data() + begin, ends_[i] - begin};
  }

  /// Every item occurrence, transaction after transaction.
  [[nodiscard]] std::span<const Item> items() const noexcept { return items_; }

  /// Total item occurrences across transactions (the "requests size" the
  /// paper quotes for FIM inputs in Table IV).
  [[nodiscard]] std::size_t total_items() const noexcept { return items_.size(); }

 private:
  std::vector<Item> items_;
  std::vector<std::size_t> ends_;  // one past each transaction's last item
};

struct FrequentPair {
  Item a = 0;  // a < b
  Item b = 0;
  std::uint64_t support = 0;

  friend bool operator==(const FrequentPair&, const FrequentPair&) = default;
};

}  // namespace flashqos::fim
