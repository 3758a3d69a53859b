// FIM rollover oracles.
//
// The replay mines frequent pairs from each reporting slice and rebuilds
// the block -> bucket map from them (paper §IV-A). Both steps have a fast
// path (fim::mine_pairs_apriori, core::BlockMapper); this module holds the
// slow references they must match exactly: fim::mine_pairs_naive for the
// miner, and reference_placement() — the std::unordered_map rebuild with a
// per-candidate device-overlap loop — for the mapper.
#pragma once

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/block_mapper.hpp"
#include "decluster/allocation.hpp"
#include "fim/transaction.hpp"
#include "verify/invariants.hpp"

namespace flashqos::verify {

/// Block -> bucket placement of the frequent blocks.
using Placement = std::unordered_map<DataBlockId, BucketId>;

/// The reference placement: BlockMapper::rebuild's rule (highest support
/// first; least device overlap with the partner, then least usage, then
/// cyclic distance from the cursor), computed the slow way.
[[nodiscard]] Placement reference_placement(const decluster::AllocationScheme& scheme,
                                            std::span<const fim::FrequentPair> pairs);

/// Exact pair-list identity; on mismatch `why` names the first difference.
[[nodiscard]] bool pairs_match(std::span<const fim::FrequentPair> want,
                               std::span<const fim::FrequentPair> got,
                               std::string* why);

/// mapper.map(block) equals the reference for every block: the placed
/// bucket with matched = true, else block % buckets with matched = false.
[[nodiscard]] bool mapping_matches(const Placement& reference, std::size_t buckets,
                                   const core::BlockMapper& mapper,
                                   std::span<const DataBlockId> blocks,
                                   std::string* why);

/// One small reporting slice of a model workload: the transactions the
/// replay would mine from it (their items cover every block it reads).
struct ModelSlice {
  std::string name;
  fim::TransactionDb db;
};

/// An Exchange-like and a TPC-E-like slice, built once.
[[nodiscard]] const std::vector<ModelSlice>& model_slices();

/// Design-independent miner audit: mine_pairs_apriori equals
/// mine_pairs_naive at supports 1, 2 and 3 on every model slice.
[[nodiscard]] Report verify_miner();

}  // namespace flashqos::verify
