#ifndef SPADE_CORE_MFS_H_
#define SPADE_CORE_MFS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace spade {

/// \brief Maximal Frequent Set mining (Section 3, step 3b; Gouda & Zaki [25]).
///
/// Transactions are the facts of a CFS, items are the candidate-dimension
/// attributes a fact carries. A set of items is frequent if at least
/// `min_support` transactions contain all of them; it is maximal if no
/// frequent superset exists. Each maximal frequent set becomes the dimension
/// set of one lattice root.
///
/// The miner is an Eclat-style depth-first search over tidsets (transaction
/// id lists, intersected as the itemset grows) with GenMax-style maximality
/// checking against the result set. Items are explored in increasing support
/// order, which keeps tidsets small early.
///
/// `max_items` bounds the itemset size explored (the paper bounds lattice
/// dimensionality at N <= 4); a set is then reported when it has no frequent
/// extension *within the bound*. Results are sorted item lists; the result
/// list is antichain (no set contains another).
std::vector<std::vector<int>> MineMaximalFrequentSets(
    const std::vector<std::vector<int>>& transactions, size_t min_support,
    size_t max_items);

/// The same miner over the vertical layout it runs on: `item_tids[i]` is
/// the tidset of item i — the ascending, duplicate-free ids of the
/// transactions carrying it. Items are the indexes 0..item_tids.size()-1.
/// The pipeline's enumeration has these lists directly (one CFS scan per
/// candidate dimension), so it never builds per-fact transactions.
std::vector<std::vector<int>> MineMaximalFrequentSetsFromTidsets(
    std::vector<std::vector<uint32_t>> item_tids, size_t min_support,
    size_t max_items);

/// Reference implementation by exhaustive enumeration, for tests. Exponential
/// in the number of distinct items; only usable on small inputs.
std::vector<std::vector<int>> MaximalFrequentSetsBruteForce(
    const std::vector<std::vector<int>>& transactions, size_t min_support,
    size_t max_items);

}  // namespace spade

#endif  // SPADE_CORE_MFS_H_
