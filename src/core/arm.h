#ifndef SPADE_CORE_ARM_H_
#define SPADE_CORE_ARM_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "src/core/aggregate.h"
#include "src/core/interestingness.h"

namespace spade {

/// \brief Aggregate Result Manager (Section 3, steps 4-5).
///
/// Cube algorithms stream (group, value) pairs into the ARM, which
/// (a) deduplicates MDAs shared across lattices — an aggregate registered
///     twice is evaluated once and reused ("Spade ensures that the results of
///     evaluated MDAs are reused, not recomputed");
/// (b) incrementally maintains the statistics the interestingness functions
///     need (streaming central moments, min/max), so scoring is O(1) per MDA
///     at top-k time;
/// (c) keeps up to `max_stored_groups` group tuples per MDA for presentation
///     of the winning aggregates (histograms / heat maps of Figure 6).
class Arm {
 public:
  using Handle = size_t;
  static constexpr Handle kInvalidHandle = static_cast<Handle>(-1);

  explicit Arm(size_t max_stored_groups = 512)
      : max_stored_groups_(max_stored_groups) {}

  /// True if `key` has already been registered (the caller should skip
  /// re-evaluating it).
  bool IsEvaluated(const AggregateKey& key) const;

  /// Register a new MDA for result collection. Returns kInvalidHandle if the
  /// key is already registered.
  Handle Register(const AggregateKey& key);

  /// Look up the handle of a registered key.
  Handle Find(const AggregateKey& key) const;

  /// Append one group tuple of the MDA. Each group must be added exactly
  /// once (the cube algorithms' flush discipline guarantees this). The dims
  /// are copied only when the group is among the stored ones. Calls on
  /// distinct handles touch disjoint entries, so they may run concurrently
  /// (MVDCube's emit feeds each entry from one task).
  void AddGroup(Handle handle, const std::vector<TermId>& dim_values,
                double value);

  size_t num_aggregates() const { return entries_.size(); }

  const AggregateKey& key(Handle handle) const { return entries_[handle].key; }
  size_t num_groups(Handle handle) const { return entries_[handle].moments.count(); }
  const OnlineMoments& moments(Handle handle) const {
    return entries_[handle].moments;
  }
  const std::vector<GroupResult>& stored_groups(Handle handle) const {
    return entries_[handle].groups;
  }

  /// Interestingness score of one MDA under `kind`.
  double Score(Handle handle, InterestingnessKind kind) const {
    return entries_[handle].moments.Score(kind);
  }

  /// A scored aggregate in the final ranking.
  struct Ranked {
    AggregateKey key;
    double score = 0;
    size_t num_groups = 0;
    std::vector<GroupResult> groups;  ///< stored subset, for display
  };

  /// Step 5: score every evaluated MDA with at least `min_groups` groups and
  /// return the k best, ties broken by key for determinism.
  std::vector<Ranked> TopK(size_t k, InterestingnessKind kind,
                           size_t min_groups = 2) const;

  /// Rewrite every entry's key through `fn`, preserving entry order, and
  /// rebuild the key index. The incremental-maintenance cache uses this to
  /// retag a retained CFS shard after a delta changed the CFS's id and the
  /// store's attribute ids (the shard's data is unchanged — only the key
  /// coordinates moved). `fn` must be injective over the stored keys.
  template <typename Fn>
  void RemapKeys(Fn&& fn) {
    index_.clear();
    for (Handle h = 0; h < entries_.size(); ++h) {
      entries_[h].key = fn(entries_[h].key);
      index_.emplace(entries_[h].key, h);
    }
  }

  /// Move every entry of `shard` into this ARM, leaving `shard` empty.
  ///
  /// The parallel pipeline gives each CFS its own ARM shard (AggregateKey
  /// embeds the cfs_id, so shards of distinct CFSs never share keys) and
  /// absorbs them in cfs_id order, which reproduces the serial entry order
  /// bit for bit. A key already present here wins over the shard's copy
  /// (the shard entry is dropped) — mirroring Register's first-writer-wins
  /// reuse semantics.
  void Absorb(Arm&& shard);

 private:
  struct Entry {
    AggregateKey key;
    OnlineMoments moments;
    std::vector<GroupResult> groups;
  };

  size_t max_stored_groups_;
  std::vector<Entry> entries_;
  std::map<AggregateKey, Handle> index_;
};

}  // namespace spade

#endif  // SPADE_CORE_ARM_H_
