#include "src/core/arm.h"

#include <algorithm>

namespace spade {

bool Arm::IsEvaluated(const AggregateKey& key) const {
  return index_.count(key) > 0;
}

Arm::Handle Arm::Register(const AggregateKey& key) {
  auto [it, inserted] = index_.try_emplace(key, entries_.size());
  if (!inserted) return kInvalidHandle;
  Entry entry;
  entry.key = key;
  entries_.push_back(std::move(entry));
  return it->second;
}

Arm::Handle Arm::Find(const AggregateKey& key) const {
  auto it = index_.find(key);
  if (it == index_.end()) return kInvalidHandle;
  return it->second;
}

void Arm::AddGroup(Handle handle, const std::vector<TermId>& dim_values,
                   double value) {
  Entry& entry = entries_[handle];
  entry.moments.Add(value);
  if (entry.groups.size() < max_stored_groups_) {
    entry.groups.push_back(GroupResult{dim_values, value});
  }
}

void Arm::Absorb(Arm&& shard) {
  for (Entry& entry : shard.entries_) {
    auto [it, inserted] = index_.try_emplace(entry.key, entries_.size());
    (void)it;
    if (!inserted) continue;
    entries_.push_back(std::move(entry));
  }
  shard.entries_.clear();
  shard.index_.clear();
}

std::vector<Arm::Ranked> Arm::TopK(size_t k, InterestingnessKind kind,
                                   size_t min_groups) const {
  std::vector<std::pair<double, size_t>> scored;
  scored.reserve(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].moments.count() < min_groups) continue;
    scored.emplace_back(entries_[i].moments.Score(kind), i);
  }
  std::sort(scored.begin(), scored.end(), [this](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return entries_[a.second].key < entries_[b.second].key;
  });
  if (scored.size() > k) scored.resize(k);

  std::vector<Ranked> out;
  out.reserve(scored.size());
  for (const auto& [score, idx] : scored) {
    Ranked r;
    r.key = entries_[idx].key;
    r.score = score;
    r.num_groups = entries_[idx].moments.count();
    r.groups = entries_[idx].groups;
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace spade
