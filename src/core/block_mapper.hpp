// Data-block → design-bucket mapping (paper §IV-A).
//
// A storage system has far more data blocks than a design has buckets
// (36 for the rotated (9,3,1)). The mapper assigns data blocks to buckets
// so that blocks frequently requested together land on buckets with
// disjoint replica device sets — maximizing the chance they retrieve in
// parallel. The together-ness signal is the frequent-pair output of FIM on
// the previous interval's requests. Blocks FIM never saw fall back to the
// paper's modulo rule: bucket = block % buckets.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "decluster/allocation.hpp"
#include "fim/block_table.hpp"
#include "fim/transaction.hpp"

namespace flashqos::core {

class BlockMapper {
 public:
  explicit BlockMapper(const decluster::AllocationScheme& scheme);

  /// Rebuild the FIM table from frequent pairs (highest support first gets
  /// the strongest separation). Replaces any previous table.
  void rebuild(std::span<const fim::FrequentPair> pairs);

  struct MapResult {
    BucketId bucket = 0;
    bool matched = false;  // true if the block came from the FIM table
  };

  [[nodiscard]] MapResult map(DataBlockId block) const {
    if (!table_.empty()) {
      if (const auto b = table_.find(block); b != fim::BlockTable::kAbsent) {
        return {b, true};
      }
    }
    return {static_cast<BucketId>(block % buckets_), false};
  }

  [[nodiscard]] std::size_t table_size() const noexcept { return table_.size(); }

 private:
  static constexpr BucketId kNoPartner = kInvalidBucket;

  /// Pick the next bucket for a block whose frequent co-requestee sits on
  /// `partner` (kNoPartner if none), scanning cyclically from the cursor.
  [[nodiscard]] BucketId pick_bucket(BucketId partner);

  std::size_t buckets_;
  std::size_t words_;                  // ⌈devices / 64⌉
  std::vector<std::uint64_t> devices_;  // bucket b's replica-device bitset
                                        // at [b * words_, (b + 1) * words_)
  fim::BlockTable table_;               // block -> bucket
  std::vector<std::uint32_t> usage_;    // blocks mapped per bucket (per rebuild)
  std::size_t cursor_ = 0;
};

}  // namespace flashqos::core
