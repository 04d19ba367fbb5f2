#include "src/core/mfs.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <utility>

namespace spade {

namespace {

using Tidset = std::vector<uint32_t>;

Tidset Intersect(const Tidset& a, const Tidset& b) {
  Tidset out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

class MfsMiner {
 public:
  MfsMiner(std::vector<Tidset> item_tids, size_t min_support, size_t max_items)
      : min_support_(std::max<size_t>(min_support, 1)), max_items_(max_items) {
    // Keep the frequent single items.
    for (size_t item = 0; item < item_tids.size(); ++item) {
      if (item_tids[item].size() >= min_support_) {
        items_.push_back(static_cast<int>(item));
        item_tids_.push_back(std::move(item_tids[item]));
      }
    }
    // Increasing support order: small tidsets first prunes faster.
    std::vector<size_t> order(items_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
      if (item_tids_[a].size() != item_tids_[b].size()) {
        return item_tids_[a].size() < item_tids_[b].size();
      }
      return items_[a] < items_[b];
    });
    std::vector<int> items2;
    std::vector<Tidset> tids2;
    for (size_t i : order) {
      items2.push_back(items_[i]);
      tids2.push_back(std::move(item_tids_[i]));
    }
    items_ = std::move(items2);
    item_tids_ = std::move(tids2);
  }

  std::vector<std::vector<int>> Mine() {
    std::vector<int> prefix;
    std::vector<size_t> tail(items_.size());
    for (size_t i = 0; i < items_.size(); ++i) tail[i] = i;
    Tidset all;  // empty prefix: no tidset restriction
    Recurse(prefix, nullptr, tail);
    // Sort each set and the result list for deterministic output.
    for (auto& s : results_) std::sort(s.begin(), s.end());
    std::sort(results_.begin(), results_.end());
    return results_;
  }

 private:
  // prefix_tids == nullptr means "all transactions".
  void Recurse(std::vector<int>& prefix, const Tidset* prefix_tids,
               const std::vector<size_t>& tail) {
    bool extended = false;
    for (size_t ti = 0; ti < tail.size(); ++ti) {
      size_t item_idx = tail[ti];
      Tidset merged = (prefix_tids == nullptr)
                          ? item_tids_[item_idx]
                          : Intersect(*prefix_tids, item_tids_[item_idx]);
      if (merged.size() < min_support_) continue;
      extended = true;
      prefix.push_back(items_[item_idx]);
      if (prefix.size() >= max_items_) {
        // Size-capped: report if not covered by an existing result.
        Report(prefix);
      } else {
        std::vector<size_t> next_tail(tail.begin() + static_cast<long>(ti) + 1,
                                      tail.end());
        Recurse(prefix, &merged, next_tail);
      }
      prefix.pop_back();
    }
    if (!extended && !prefix.empty()) Report(prefix);
  }

  void Report(const std::vector<int>& candidate) {
    std::set<int> cand(candidate.begin(), candidate.end());
    // Maximality: drop if a superset was already reported. DFS order visits
    // supersets along one branch before backtracking, so checking both
    // directions keeps the result an antichain.
    for (const auto& r : results_) {
      if (r.size() >= cand.size() &&
          std::includes(r.begin(), r.end(), cand.begin(), cand.end())) {
        return;
      }
    }
    std::vector<int> sorted(cand.begin(), cand.end());
    // Remove any previously reported subset of the new set.
    results_.erase(
        std::remove_if(results_.begin(), results_.end(),
                       [&](const std::vector<int>& r) {
                         return r.size() <= sorted.size() &&
                                std::includes(sorted.begin(), sorted.end(),
                                              r.begin(), r.end());
                       }),
        results_.end());
    results_.push_back(std::move(sorted));
  }

  size_t min_support_;
  size_t max_items_;
  std::vector<int> items_;
  std::vector<Tidset> item_tids_;
  std::vector<std::vector<int>> results_;  // each sorted ascending
};

}  // namespace

std::vector<std::vector<int>> MineMaximalFrequentSetsFromTidsets(
    std::vector<std::vector<uint32_t>> item_tids, size_t min_support,
    size_t max_items) {
  if (max_items == 0) return {};
  MfsMiner miner(std::move(item_tids), min_support, max_items);
  return miner.Mine();
}

std::vector<std::vector<int>> MineMaximalFrequentSets(
    const std::vector<std::vector<int>>& transactions, size_t min_support,
    size_t max_items) {
  // Dense indexes for the distinct items, in ascending item order: the
  // mapping is monotonic, so the miner's order and output map back as is.
  std::vector<int> items;
  for (const auto& t : transactions) items.insert(items.end(), t.begin(), t.end());
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  std::vector<Tidset> item_tids(items.size());
  for (uint32_t tid = 0; tid < transactions.size(); ++tid) {
    for (int item : transactions[tid]) {
      Tidset& tids = item_tids[static_cast<size_t>(
          std::lower_bound(items.begin(), items.end(), item) - items.begin())];
      if (tids.empty() || tids.back() != tid) tids.push_back(tid);
    }
  }
  std::vector<std::vector<int>> sets = MineMaximalFrequentSetsFromTidsets(
      std::move(item_tids), min_support, max_items);
  for (auto& set : sets) {
    for (int& index : set) index = items[static_cast<size_t>(index)];
  }
  return sets;
}

std::vector<std::vector<int>> MaximalFrequentSetsBruteForce(
    const std::vector<std::vector<int>>& transactions, size_t min_support,
    size_t max_items) {
  min_support = std::max<size_t>(min_support, 1);
  // Collect distinct items.
  std::set<int> item_set;
  for (const auto& t : transactions) item_set.insert(t.begin(), t.end());
  std::vector<int> items(item_set.begin(), item_set.end());
  if (items.size() > 20) return {};  // guard: test-only helper

  // Enumerate all subsets up to max_items, keep frequent ones.
  std::vector<std::vector<int>> frequent;
  size_t n = items.size();
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    std::vector<int> subset;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) subset.push_back(items[i]);
    }
    if (subset.size() > max_items) continue;
    size_t support = 0;
    for (const auto& t : transactions) {
      std::set<int> tt(t.begin(), t.end());
      bool all = true;
      for (int item : subset) all &= tt.count(item) > 0;
      support += all;
    }
    if (support >= min_support) frequent.push_back(subset);
  }
  // Keep maximal ones.
  std::vector<std::vector<int>> maximal;
  for (const auto& a : frequent) {
    bool is_max = true;
    for (const auto& b : frequent) {
      if (b.size() > a.size() &&
          std::includes(b.begin(), b.end(), a.begin(), a.end())) {
        is_max = false;
        break;
      }
    }
    if (is_max) maximal.push_back(a);
  }
  std::sort(maximal.begin(), maximal.end());
  return maximal;
}

}  // namespace spade
