#include "src/core/mfs.h"

#include <gtest/gtest.h>

#include <set>

#include "src/util/rng.h"

namespace spade {
namespace {

TEST(MfsTest, EmptyTransactions) {
  EXPECT_TRUE(MineMaximalFrequentSets({}, 1, 4).empty());
  EXPECT_TRUE(MineMaximalFrequentSets({{}, {}}, 1, 4).empty());
}

TEST(MfsTest, SingleItemset) {
  std::vector<std::vector<int>> tx = {{1, 2}, {1, 2}, {1, 2}};
  auto mfs = MineMaximalFrequentSets(tx, 3, 4);
  ASSERT_EQ(mfs.size(), 1u);
  EXPECT_EQ(mfs[0], (std::vector<int>{1, 2}));
}

TEST(MfsTest, MaximalityAbsorbsSubsets) {
  // {1,2,3} frequent => {1}, {2}, {1,2}, ... must not be reported.
  std::vector<std::vector<int>> tx = {{1, 2, 3}, {1, 2, 3}, {1, 2}};
  auto mfs = MineMaximalFrequentSets(tx, 2, 4);
  ASSERT_EQ(mfs.size(), 1u);
  EXPECT_EQ(mfs[0], (std::vector<int>{1, 2, 3}));
}

TEST(MfsTest, SplitsOnSupport) {
  // {1,2} and {1,3} each appear twice, {1,2,3} only once.
  std::vector<std::vector<int>> tx = {{1, 2}, {1, 2}, {1, 3}, {1, 3}, {1, 2, 3}};
  auto mfs = MineMaximalFrequentSets(tx, 3, 4);
  // support({1,2}) = 3, support({1,3}) = 3, support({1,2,3}) = 1.
  std::set<std::vector<int>> got(mfs.begin(), mfs.end());
  EXPECT_TRUE(got.count({1, 2}));
  EXPECT_TRUE(got.count({1, 3}));
  EXPECT_EQ(got.size(), 2u);
}

TEST(MfsTest, RespectsMaxItems) {
  std::vector<std::vector<int>> tx = {{1, 2, 3, 4}, {1, 2, 3, 4}};
  auto mfs = MineMaximalFrequentSets(tx, 2, 2);
  for (const auto& s : mfs) EXPECT_LE(s.size(), 2u);
  // All pairs of {1,2,3,4} are frequent and size-capped-maximal.
  EXPECT_EQ(mfs.size(), 6u);
}

TEST(MfsTest, RepeatedItemCountsOncePerTransaction) {
  // Item 1 is in one transaction, listed twice: support 1, not 2.
  std::vector<std::vector<int>> tx = {{1, 1}, {2}, {2}};
  auto mfs = MineMaximalFrequentSets(tx, 2, 4);
  ASSERT_EQ(mfs.size(), 1u);
  EXPECT_EQ(mfs[0], (std::vector<int>{2}));
}

TEST(MfsTest, MinSupportOfOne) {
  std::vector<std::vector<int>> tx = {{5}, {7, 9}};
  auto mfs = MineMaximalFrequentSets(tx, 1, 4);
  std::set<std::vector<int>> got(mfs.begin(), mfs.end());
  EXPECT_TRUE(got.count({5}));
  EXPECT_TRUE(got.count({7, 9}));
}

TEST(MfsTest, ResultIsAntichain) {
  std::vector<std::vector<int>> tx = {
      {1, 2, 3}, {1, 2}, {2, 3}, {1, 3}, {2, 3, 4}, {4}};
  auto mfs = MineMaximalFrequentSets(tx, 2, 4);
  for (const auto& a : mfs) {
    for (const auto& b : mfs) {
      if (&a == &b) continue;
      EXPECT_FALSE(std::includes(b.begin(), b.end(), a.begin(), a.end()))
          << "subset pair in result";
    }
  }
}

struct MfsRandomCase {
  uint64_t seed;
  size_t num_transactions;
  int num_items;
  double density;
  size_t min_support;
  size_t max_items;
};

class MfsPropertyTest : public ::testing::TestWithParam<MfsRandomCase> {};

TEST_P(MfsPropertyTest, MatchesBruteForce) {
  const auto& p = GetParam();
  Rng rng(p.seed);
  std::vector<std::vector<int>> tx(p.num_transactions);
  for (auto& t : tx) {
    for (int item = 0; item < p.num_items; ++item) {
      if (rng.Bernoulli(p.density)) t.push_back(item);
    }
  }
  auto fast = MineMaximalFrequentSets(tx, p.min_support, p.max_items);
  auto brute = MaximalFrequentSetsBruteForce(tx, p.min_support, p.max_items);
  EXPECT_EQ(fast, brute);
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, MfsPropertyTest,
    ::testing::Values(MfsRandomCase{1, 30, 8, 0.4, 5, 8},
                      MfsRandomCase{2, 50, 10, 0.3, 8, 10},
                      MfsRandomCase{3, 20, 6, 0.7, 4, 6},
                      MfsRandomCase{4, 40, 12, 0.2, 4, 12},
                      MfsRandomCase{5, 25, 9, 0.5, 2, 3},   // size-capped
                      MfsRandomCase{6, 60, 7, 0.6, 30, 7},  // high support
                      MfsRandomCase{7, 10, 10, 0.9, 9, 4},
                      MfsRandomCase{8, 35, 11, 0.35, 6, 2}));

}  // namespace
}  // namespace spade
