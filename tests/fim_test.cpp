// Unit + property tests for src/fim: apriori vs naive agreement, support
// semantics, pruning, canonical transaction form.
#include <gtest/gtest.h>

#include "fim/apriori.hpp"
#include "util/rng.hpp"
#include "verify/fim_oracle.hpp"

namespace flashqos::fim {
namespace {

TransactionDb tiny_db() {
  TransactionDb db;
  db.add({1, 2, 3});
  db.add({1, 2});
  db.add({2, 3});
  db.add({1, 2, 4});
  return db;
}

TEST(TransactionDb, CanonicalizesTransactions) {
  TransactionDb db;
  db.add({5, 3, 5, 1, 3});
  ASSERT_EQ(db.size(), 1u);
  const auto t = db.transaction(0);
  EXPECT_EQ(std::vector<Item>(t.begin(), t.end()), (std::vector<Item>{1, 3, 5}));
  EXPECT_EQ(db.total_items(), 3u);
}

TEST(TransactionDb, DropsEmptyTransactions) {
  TransactionDb db;
  db.add({});
  EXPECT_TRUE(db.empty());
}

TEST(Apriori, CountsSupportsExactly) {
  const auto res = mine_pairs_apriori(tiny_db(), 1);
  // Expected pairs: (1,2):3 (1,3):1 (2,3):2 (1,4):1 (2,4):1
  ASSERT_EQ(res.pairs.size(), 5u);
  EXPECT_EQ(res.pairs[0], (FrequentPair{1, 2, 3}));
  EXPECT_EQ(res.pairs[1], (FrequentPair{1, 3, 1}));
  EXPECT_EQ(res.pairs[2], (FrequentPair{1, 4, 1}));
  EXPECT_EQ(res.pairs[3], (FrequentPair{2, 3, 2}));
  EXPECT_EQ(res.pairs[4], (FrequentPair{2, 4, 1}));
}

TEST(Apriori, MinSupportFilters) {
  const auto res = mine_pairs_apriori(tiny_db(), 2);
  ASSERT_EQ(res.pairs.size(), 2u);
  EXPECT_EQ(res.pairs[0], (FrequentPair{1, 2, 3}));
  EXPECT_EQ(res.pairs[1], (FrequentPair{2, 3, 2}));
}

TEST(Apriori, PassOnePrunesInfrequentItems) {
  const auto res = mine_pairs_apriori(tiny_db(), 3);
  // Only items 1 (support 3) and 2 (support 4) survive pass 1.
  EXPECT_EQ(res.frequent_items, 2u);
  ASSERT_EQ(res.pairs.size(), 1u);
  EXPECT_EQ(res.pairs[0], (FrequentPair{1, 2, 3}));
}

TEST(Apriori, EmptyDb) {
  const auto res = mine_pairs_apriori(TransactionDb{}, 1);
  EXPECT_TRUE(res.pairs.empty());
  EXPECT_EQ(res.transactions, 0u);
}

TEST(Apriori, ZeroSupportTreatedAsOne) {
  const auto res = mine_pairs_apriori(tiny_db(), 0);
  EXPECT_EQ(res.pairs.size(), 5u);
}

TEST(Apriori, ReportsInstrumentation) {
  const auto res = mine_pairs_apriori(tiny_db(), 1);
  EXPECT_EQ(res.transactions, 4u);
  EXPECT_EQ(res.total_items, 10u);
}

// Property: on random databases, apriori == naive for every support level.
// The case keeps the name it had when Eclat was a third miner.
class MinerAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MinerAgreement, AllThreeMinersAgree) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  TransactionDb db;
  const std::size_t txs = 20 + rng.below(80);
  for (std::size_t t = 0; t < txs; ++t) {
    std::vector<Item> items;
    const std::size_t len = 1 + rng.below(8);
    for (std::size_t i = 0; i < len; ++i) items.push_back(rng.below(25));
    db.add(std::move(items));
  }
  for (const std::uint64_t support : {1u, 2u, 3u, 5u}) {
    const auto a = mine_pairs_apriori(db, support);
    EXPECT_EQ(a.pairs, mine_pairs_naive(db, support))
        << "apriori vs naive, support=" << support;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDbs, MinerAgreement,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// The random databases above draw from 25 items; a model TPC-E-like slice
// has thousands of distinct blocks, so the survivor table grows and the
// radix sort runs several passes.
TEST(MinerAgreement, ModelSliceAgrees) {
  const auto& slice = verify::model_slices().back();
  EXPECT_GT(mine_pairs_apriori(slice.db, 1).frequent_items, 512u);
  for (const std::uint64_t support : {1u, 2u, 3u}) {
    const auto a = mine_pairs_apriori(slice.db, support);
    EXPECT_FALSE(a.pairs.empty());
    EXPECT_EQ(a.pairs, mine_pairs_naive(slice.db, support))
        << slice.name << ", support=" << support;
  }
}

TEST(Apriori, LargeItemIdsSupported) {
  TransactionDb db;
  const Item big1 = 0xFFFFFFFF12345678ULL;
  const Item big2 = 0xFFFFFFFF12345679ULL;
  db.add({big1, big2});
  db.add({big1, big2});
  const auto res = mine_pairs_apriori(db, 2);
  ASSERT_EQ(res.pairs.size(), 1u);
  EXPECT_EQ(res.pairs[0].a, big1);
  EXPECT_EQ(res.pairs[0].b, big2);
  EXPECT_EQ(res.pairs[0].support, 2u);
}

TEST(Apriori, SupportCapsAtTransactionCount) {
  TransactionDb db;
  for (int i = 0; i < 10; ++i) db.add({7, 8});
  const auto res = mine_pairs_apriori(db, 1);
  ASSERT_EQ(res.pairs.size(), 1u);
  EXPECT_EQ(res.pairs[0].support, 10u);
}

}  // namespace
}  // namespace flashqos::fim
