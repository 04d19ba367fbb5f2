#ifndef SPADE_BITMAP_ROARING_H_
#define SPADE_BITMAP_ROARING_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace spade {

/// \brief Compressed bitmap over uint32 keys, after Lemire et al. [32].
///
/// MVDCube stores, in every cell of every lattice node, the set of candidate
/// facts that fall into that cell (Section 4.3). Cells are unioned as
/// dimensions are projected away, so the container needs fast OR, ordered
/// iteration (measure computation walks facts in ID order, aligned with the
/// pre-aggregated measure arrays), and a predictable memory bound.
///
/// The paper's Section 4.3 memory model, M_RB = 2*Z + 9*(u/65535 + 1) + 8
/// bytes for Z values drawn from [0, u), assumes the two classical Roaring
/// container kinds (2 bytes per value in arrays, 8 KiB bitsets). This
/// implementation adds the third Roaring kind — *run containers* — and an
/// inline small-set representation, both of which only ever undercut the
/// payload term of that bound: a contiguous fact range costs 4 bytes per
/// run regardless of length (the engine converts only when runs encode
/// smaller), and up to kInlineCapacity values live inside the bitmap object
/// with zero heap allocation. MemoryBytes() additionally reports the object
/// and per-container bookkeeping that the model's flat 8-byte header
/// abstracts away; the ablation bench prints measured bytes against the
/// payload bound.
///
/// Representations, chosen per 2^16-value chunk by size:
///   - *array container*: sorted uint16 vector, <= 4096 entries (2 B/value);
///   - *run container*: sorted list of (start, length-1) uint16 pairs,
///     disjoint and non-adjacent (canonical), used when 4 B/run beats both
///     the array and the bitset encodings;
///   - *bitset container*: fixed 8 KiB bitset, used beyond 4096 values when
///     runs do not compress (>= 2048 runs).
/// Below kInlineCapacity distinct values the bitmap holds them sorted in an
/// internal fixed array and owns no heap memory at all — the vast majority
/// of lattice cells never touch the allocator.
///
/// The pipeline's three access patterns each have a dedicated fast path:
/// ordered bulk build (`AppendOrdered`, O(1) amortized, no search), bulk
/// union (`UnionWith`, a single merge walk over both container lists), and
/// ordered bulk read (`DecodeInto` / `ForEachBlock`, filling dense uint32
/// buffers one container at a time instead of paying a callback per value).
class RoaringBitmap {
 public:
  /// Values stored inside the object before any heap allocation.
  static constexpr size_t kInlineCapacity = 8;

  RoaringBitmap() = default;
  RoaringBitmap(const RoaringBitmap&) = default;
  RoaringBitmap& operator=(const RoaringBitmap&) = default;
  /// Moves leave the source empty (not merely valid): the lattice fold
  /// moves cells through sorts and merges, and an inconsistent moved-from
  /// state (cached cardinality without containers) must never be observable.
  RoaringBitmap(RoaringBitmap&& other) noexcept { *this = std::move(other); }
  RoaringBitmap& operator=(RoaringBitmap&& other) noexcept {
    if (this == &other) return *this;
    for (size_t i = 0; i < other.inline_size_; ++i) {
      inline_vals_[i] = other.inline_vals_[i];
    }
    inline_size_ = other.inline_size_;
    spilled_ = other.spilled_;
    cardinality_ = other.cardinality_;
    containers_ = std::move(other.containers_);
    other.inline_size_ = 0;
    other.spilled_ = false;
    other.cardinality_ = 0;
    other.containers_.clear();
    return *this;
  }

  /// Insert one value (idempotent).
  void Add(uint32_t value);

  /// Ordered-append fast path: requires value >= every value already present
  /// (debug-asserted; equal is an idempotent no-op). The scaffold load loop
  /// feeds each cell facts in ascending id order, so the tail container is
  /// always the last one — no container search, and the in-container insert
  /// is a push_back / run extension. Falls back to Add on out-of-order input
  /// in release builds.
  void AppendOrdered(uint32_t value);

  /// True if `value` is present.
  bool Contains(uint32_t value) const;

  /// Number of values stored. Cached at the bitmap level and maintained by
  /// every mutator — O(1), safe to call per group on the emit path.
  uint64_t Cardinality() const { return cardinality_; }

  bool Empty() const { return cardinality_ == 0; }

  /// In-place union: *this |= other. Single merge walk over both sorted
  /// container lists building the output list once (no per-container
  /// re-search / vector insert); bitset unions are word-wise ORs.
  void UnionWith(const RoaringBitmap& other);

  /// In-place intersection: *this &= other.
  void IntersectWith(const RoaringBitmap& other);

  /// Remove every value (keeps no capacity; a cleared cell is cheap).
  void Clear();

  /// Visit values in increasing order. `fn` is called as fn(uint32_t).
  /// Prefer DecodeInto / ForEachBlock on hot paths: they fill a dense buffer
  /// per container instead of paying an (often uninlinable) call per value.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (!spilled_) {
      for (size_t i = 0; i < inline_size_; ++i) fn(inline_vals_[i]);
      return;
    }
    for (const auto& c : containers_) {
      uint32_t base = static_cast<uint32_t>(c.key) << 16;
      switch (c.kind) {
        case ContainerKind::kArray:
          for (uint16_t low : c.vals) fn(base | low);
          break;
        case ContainerKind::kRun:
          for (size_t r = 0; r + 1 < c.vals.size(); r += 2) {
            uint32_t v = c.vals[r];
            uint32_t end = v + c.vals[r + 1];
            for (; v <= end; ++v) fn(base | v);
          }
          break;
        case ContainerKind::kBitset:
          for (size_t w = 0; w < kWordsPerBitset; ++w) {
            uint64_t word = c.bits[w];
            while (word != 0) {
              int bit = __builtin_ctzll(word);
              fn(base | static_cast<uint32_t>(w * 64 + bit));
              word &= word - 1;
            }
          }
          break;
      }
    }
  }

  /// Batched decode: fill `out` with every value in ascending order
  /// (reserved then resized to the O(1) cached Cardinality(), so the buffer
  /// makes at most one exact-size allocation — no geometric regrowth). One
  /// tight per-container fill loop; the caller then iterates a dense uint32
  /// span. This is the span feeder of the measure fold (FoldMeasure in
  /// src/store/preagg.h): the whole cell as ONE dense strictly ascending
  /// block, so the fold's lane striding is a pure function of the stored
  /// set, independent of container/inline layout.
  void DecodeInto(std::vector<uint32_t>* out) const;

  /// Block-cursor decode: for each container (and for the inline set),
  /// materialize its values as a dense ascending uint32 span and call
  /// fn(const uint32_t* data, size_t n) once. `scratch` is caller-owned
  /// reusable storage — no allocation after it reaches the largest container
  /// cardinality (<= 65536). Blocks arrive in ascending order, so
  /// concatenating them reproduces ForEach order exactly.
  template <typename Fn>
  void ForEachBlock(std::vector<uint32_t>* scratch, Fn&& fn) const {
    if (!spilled_) {
      if (inline_size_ > 0) fn(inline_vals_, static_cast<size_t>(inline_size_));
      return;
    }
    for (const auto& c : containers_) {
      if (scratch->size() < c.card) scratch->resize(c.card);
      DecodeContainer(c, scratch->data());
      fn(scratch->data(), static_cast<size_t>(c.card));
    }
  }

  /// Materialize as a sorted vector (test/debug convenience).
  std::vector<uint32_t> ToVector() const;

  /// Heap bytes used (plus the object itself); the Section 4.3 memory-model
  /// accounting. An inline (non-spilled) bitmap reports sizeof(*this) only.
  /// Vector capacities and container kinds depend on how the set was built
  /// (ordered appends vs unions of partials), so equal sets may differ.
  uint64_t MemoryBytes() const;

  /// Bytes of the set's smallest encoding: the object, plus — past
  /// kInlineCapacity values — one container header per 2^16-value chunk and
  /// each chunk's cheapest legal payload (array at 2 B/value up to 4096
  /// values, runs at 4 B/run, or the 8 KiB bitset), at exact capacity. A
  /// pure function of the set, so equal sets report equal bytes however
  /// they were assembled — what a budget that must cut at the same group
  /// in every configuration accounts with.
  uint64_t CanonicalBytes() const;

  /// Paper upper bound on the bytes a Roaring bitmap needs for Z values drawn
  /// from [0, u): 2*Z + 9*(u/65535 + 1) + 8 (Section 4.3). Run containers
  /// and the inline representation only ever go below it.
  static uint64_t MemoryUpperBound(uint64_t z, uint64_t u) {
    return 2 * z + 9 * (u / 65535 + 1) + 8;
  }

  /// Value equality, compared container-wise: keys and cardinalities first,
  /// then per-pair content — word compares for bitset/bitset, vector
  /// compares for same-kind array/run, and containment checks (cardinality
  /// already equal) for mixed kinds. Representation differences (array vs
  /// run vs bitset vs inline) never make equal sets compare unequal.
  bool operator==(const RoaringBitmap& other) const;
  bool operator!=(const RoaringBitmap& other) const { return !(*this == other); }

 private:
  /// An array container converts at 4096 entries — to a run container when
  /// runs encode it smaller than the 8 KiB bitset, to a bitset otherwise.
  static constexpr size_t kArrayToBitsetThreshold = 4096;
  /// A run container with this many runs (4 B each) matches the 8 KiB bitset
  /// and converts.
  static constexpr size_t kRunToBitsetThreshold = 2048;
  static constexpr size_t kWordsPerBitset = 1024;  // 65536 bits

  enum class ContainerKind : uint8_t { kArray, kRun, kBitset };

  struct Container {
    uint16_t key = 0;  // high 16 bits of the values in this container
    ContainerKind kind = ContainerKind::kArray;
    uint32_t card = 0;  // values in this container, maintained by mutators
    /// kArray: sorted values. kRun: flattened (start, length-1) pairs,
    /// sorted by start, disjoint, non-adjacent (canonical form).
    std::vector<uint16_t> vals;
    std::vector<uint64_t> bits;  // kWordsPerBitset words, when kind == kBitset
  };

  // Inline small-set representation: sorted distinct values, used until the
  // set exceeds kInlineCapacity (spilled_ == false <=> containers_ empty).
  uint32_t inline_vals_[kInlineCapacity];
  uint8_t inline_size_ = 0;
  bool spilled_ = false;
  uint64_t cardinality_ = 0;

  // Containers sorted by key; binary search for lookup, tail access for the
  // ordered-append path.
  std::vector<Container> containers_;

  void Spill();
  /// Add into the container list (assumes spilled_). Returns true if the
  /// value was newly inserted.
  bool AddToContainers(uint32_t value);
  /// Ordered append into the container list (assumes spilled_ and value >=
  /// max). Returns true if newly inserted.
  bool AppendToContainers(uint32_t value);
  const Container* Find(uint16_t key) const;

  static bool ContainerContains(const Container& c, uint16_t low);
  static bool ArrayAdd(Container* c, uint16_t low);
  static bool RunAdd(Container* c, uint16_t low);
  static bool BitsetAdd(Container* c, uint16_t low);
  /// Array exceeded the threshold: convert to run or bitset, whichever is
  /// smaller.
  static void ConvertOversizedArray(Container* c);
  static void ArrayToBitset(Container* c);
  static void RunToBitset(Container* c);
  /// A freshly built run list: shrink to array if that is smaller (and
  /// legal), to bitset if the run count exceeds the threshold.
  static void NormalizeRunContainer(Container* c);
  /// dst |= src without rebuilding dst where possible: bitset targets take
  /// word/bit ORs in place, array/run merges go through a reused
  /// thread-local scratch (one assign, no per-call allocation once warm).
  static void UnionContainerInPlace(Container* dst, const Container& src);
  /// Merge the ascending interval streams of `a` and `b` (arrays read as
  /// length-1 intervals) into a canonical run list with its cardinality.
  static void MergeRunsInto(const Container& a, const Container& b,
                            std::vector<uint16_t>* out_runs,
                            uint32_t* out_card);
  static void IntersectPair(Container* dst, const Container& src);
  static bool ContainersEqual(const Container& a, const Container& b);
  static void DecodeContainer(const Container& c, uint32_t* out);
  static void SetBitRange(std::vector<uint64_t>* bits, uint32_t from,
                          uint32_t to);
  static uint32_t Popcount(const std::vector<uint64_t>& bits);
  /// Maximal runs of consecutive values in the container.
  static size_t CountRuns(const Container& c);
};

}  // namespace spade

#endif  // SPADE_BITMAP_ROARING_H_
