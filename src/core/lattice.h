#ifndef SPADE_CORE_LATTICE_H_
#define SPADE_CORE_LATTICE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/aggregate.h"
#include "src/exec/thread_pool.h"
#include "src/store/attribute_store.h"
#include "src/util/cancel.h"
#include "src/util/failpoint.h"
#include "src/util/rng.h"
#include "src/util/span.h"
#include "src/util/timer.h"

namespace spade {

/// \brief Value encoding of one dimension over one CFS.
///
/// The distinct values a dimension takes among the CFS facts are sorted and
/// coded 0..V-1; code V is the implicit `null` added to every dimension's
/// domain for facts missing it (Section 4.3, Data Translation). Each fact
/// maps to its sorted list of value codes — possibly several (multi-valued
/// dimension), possibly none (missing).
struct DimensionEncoding {
  AttrId attr = kInvalidAttr;
  std::vector<TermId> values;                    ///< code -> term
  std::vector<std::vector<int32_t>> fact_codes;  ///< FactId -> sorted codes
  size_t num_multi_facts = 0;                    ///< facts with >= 2 values

  int32_t null_code() const { return static_cast<int32_t>(values.size()); }
  int domain_size() const { return static_cast<int>(values.size()) + 1; }
  bool multi_valued() const { return num_multi_facts > 0; }
};

/// Build the encoding of `attr` over `cfs`.
DimensionEncoding BuildDimensionEncoding(const AttributeStore& db, const CfsIndex& cfs,
                                         AttrId attr);

/// \brief Physical layout of the multidimensional space: a dimension order
/// (position 0 varies slowest across partitions) and per-dimension chunking.
/// A partition is one combination of chunk coordinates, holding
/// chunk[0] x ... x chunk[N-1] cells (Section 4.1's "partitions").
struct CubeLayout {
  std::vector<int> order;       ///< order[k] = dim index at position k
  std::vector<int> pos;         ///< pos[dim] = position in `order`
  std::vector<int> extent;      ///< per dim: domain size incl. null
  std::vector<int> chunk;       ///< per dim: chunk size (<= extent)
  std::vector<int> num_chunks;  ///< per dim: ceil(extent / chunk)
  uint64_t num_partitions = 1;

  size_t num_dims() const { return extent.size(); }

  /// Partition id of the given per-dim chunk coordinates.
  uint64_t EncodePartition(const std::vector<int>& chunk_coords) const;
  /// Per-dim chunk coordinates of partition `p`.
  std::vector<int> DecodePartition(uint64_t p) const;
  /// Allocation-free DecodePartition into a caller-owned buffer (resized to
  /// num_dims); the scaffold's per-partition hot path.
  void DecodePartitionInto(uint64_t p, std::vector<int>* chunk_coords) const;
  /// Pack per-dim value coordinates into a cell id (radix = extents, in dim
  /// index order — independent of `order`).
  uint64_t PackCell(const std::vector<int32_t>& coords) const;
  std::vector<int32_t> UnpackCell(uint64_t cell) const;
};

/// \brief One node of the lattice in the Minimum-Memory Spanning Tree.
struct MmstNode {
  uint32_t mask = 0;        ///< subset of lattice dims (bit i = dim i)
  int parent = -1;          ///< node index of the MMST parent (-1 for root)
  int dropped_dim = -1;     ///< dim index dropped going parent -> this
  std::vector<int> children;
  /// Dims (ascending) present in `mask`.
  std::vector<int> dims;
  /// Bit i set => dim i is held at FULL extent in this node's memory; clear
  /// (and in mask) => held at chunk granularity. A dim needs full extent iff
  /// some missing dim with more than one chunk varies slower than it — its
  /// region would otherwise be revisited (Section 4.1 memory model).
  uint32_t full_mask = 0;
  /// Per `dims` position: local array extent and stride.
  std::vector<int> local_extent;
  std::vector<uint64_t> stride;
  uint64_t memory_cells = 1;
};

/// \brief The lattice of 2^N nodes plus its Minimum-Memory Spanning Tree.
///
/// ArrayCube [49] picks, per node, the parent minimizing the memory needed to
/// evaluate all aggregates in one pass; the memory depends on the dimension
/// order. With N <= 4 we search all N! orders exactly and keep the cheapest
/// (sum of per-node array sizes). Parents are then chosen to minimize the
/// size of the array each child must scan during propagation.
class Mmst {
 public:
  /// `extents`: per-dim domain sizes (incl. null); `target_chunk`: desired
  /// distinct values per dimension per partition.
  static Mmst Build(const std::vector<int>& extents, int target_chunk);

  const CubeLayout& layout() const { return layout_; }
  const std::vector<MmstNode>& nodes() const { return nodes_; }
  /// Node index for a dim subset; nodes are indexed by mask.
  const MmstNode& node(uint32_t mask) const { return nodes_[mask]; }
  size_t num_dims() const { return layout_.num_dims(); }
  int root() const { return static_cast<int>(nodes_.size()) - 1; }

  /// Sum of memory_cells over all nodes (the minimized objective). Cached at
  /// Build time.
  uint64_t total_memory_cells() const { return total_memory_cells_; }

  /// Node indexes in topological order: parents before children. Cached at
  /// Build time — CubeScaffold::Run and SetWantedNodes consume it per
  /// invocation and must not re-sort.
  const std::vector<int>& TopologicalOrder() const { return topo_order_; }

 private:
  CubeLayout layout_;
  std::vector<MmstNode> nodes_;  // indexed by mask; root = (1<<N)-1
  std::vector<int> topo_order_;
  uint64_t total_memory_cells_ = 0;
};

/// \brief Result of Data Translation (Section 4.3): the partitioned array
/// representation, plus — when sampling for early-stop — the exact
/// per-root-group fact counts and the stratified reservoir sample.
struct Translation {
  /// partitions[p] = (packed cell id, fact) pairs, facts of partition p.
  std::vector<std::vector<std::pair<uint64_t, FactId>>> partitions;
  /// Exact fact count per root cell (group sizes; Appendix B). Filled only
  /// when sampling: early-stop's sampler and planner are its only readers.
  std::unordered_map<uint64_t, uint32_t> root_group_count;
  /// Reservoir sample per root cell (present only when sampling enabled).
  std::unordered_map<uint64_t, std::vector<FactId>> reservoirs;
  /// Facts contributing to at least one cell.
  size_t num_facts_translated = 0;
  /// Combination explosion guard: combos dropped by the per-fact cap. Zero in
  /// every experiment of the paper's scale; reported, never silent.
  size_t num_dropped_combos = 0;
};

struct TranslationOptions {
  /// Cap on cells one fact may occupy (cross-product of its multi-values).
  size_t max_combos_per_fact = 4096;
  /// Reservoir capacity per root group; 0 disables sampling.
  size_t sample_capacity = 0;
  Rng* rng = nullptr;  ///< required when sample_capacity > 0
  /// Half-open fact-id range to translate; facts outside it are ignored.
  /// {0, kInvalidFact} (the default) means every fact. PrepareLattices
  /// translates each range on its own worker; sampling needs every fact
  /// (the reservoir RNG stream is sequential across all facts).
  FactId fact_begin = 0;
  FactId fact_end = kInvalidFact;
};

/// Translate the CFS facts into the partitioned array representation. A fact
/// with no value on any dimension is skipped; missing dimensions map to the
/// null code. Every partition lists its facts in ascending order.
Translation TranslateData(const std::vector<DimensionEncoding>& dims,
                          const CubeLayout& layout,
                          const TranslationOptions& options);

/// \brief Generic one-pass lattice evaluation engine.
///
/// Shared by MVDCube (cells = Roaring bitmaps of facts) and by the ArrayCube
/// baseline (cells = aggregate-value accumulators): the partition loop, the
/// region bookkeeping, the parent->child propagation cascade, and the flush
/// discipline are identical; only the cell payload and the merge/emit
/// operations differ.
///
/// Protocol per partition (in layout order):
///   1. the root's cells are loaded via `load(cell, fact)`;
///   2. Flush(root): for every child whose region completed, recursively
///      flush it, then merge the parent's cells down via `merge(dst, src)`;
///      finally `emit(node_mask, coords, cell)` is called for every non-empty
///      cell of the flushed node — exactly once per group over the whole run.
///
/// `merge`'s src is passed as a MUTABLE lvalue, so a MergeFn may take
/// `Cell&` and normalize src in place — ArrayCube uses this to lazily fold
/// root fact buffers through the measure fold on first touch. The
/// same src cell is merged into every child and then emitted before the
/// scaffold resets it, so mutations must preserve the cell's logical value
/// (convert representation, don't consume). Functors taking `const Cell&`
/// work unchanged.
///
/// `emit` receives global value coordinates (length N, null codes included,
/// -1 on absent dims) as a Span into scaffold-owned scratch, and a mutable
/// reference to the cell — the cell is cleared right after emit returns, so
/// the consumer may steal its contents (ParallelLatticeRun moves bitmaps out
/// instead of copying). The caller decides what to do with null groups
/// (MVDCube reports only null-free groups but propagates everything,
/// Section 4.3).
///
/// The load/merge/emit callables are template parameters, not std::function:
/// the per-fact and per-cell inner loops inline the functors instead of
/// paying an indirect dispatch per call, and the flush path reuses
/// scaffold-owned scratch buffers — no heap allocation per cell.
template <typename Cell>
class CubeScaffold {
 public:
  explicit CubeScaffold(const Mmst* mmst) : mmst_(mmst) {
    states_.resize(mmst_->nodes().size());
    subtree_needed_.assign(states_.size(), true);
  }

  /// Restrict work to the nodes whose results are consumed: a node is
  /// processed iff it, or some descendant in the MMST, has `wanted` set.
  /// Early-stop-pruned and ARM-reused nodes still propagate when a live
  /// descendant needs their cells, but nodes whose whole subtree is dead are
  /// skipped entirely.
  void SetWantedNodes(const std::vector<bool>& wanted) {
    subtree_needed_ = wanted;
    subtree_needed_.resize(states_.size(), true);
    // Iterate children before parents so every child's flag is final before
    // its parents aggregate it.
    const std::vector<int>& topo = mmst_->TopologicalOrder();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      for (int child : mmst_->nodes()[*it].children) {
        if (subtree_needed_[child]) subtree_needed_[*it] = true;
      }
    }
  }

  /// Peak cells resident after Run() (ablation / memory accounting).
  uint64_t allocated_cells() const {
    uint64_t total = 0;
    for (const auto& st : states_) total += st.cells.size();
    return total;
  }

  /// Stream every partition through the MMST (the sequential protocol).
  template <typename LoadFn, typename MergeFn, typename EmitFn>
  void Run(const Translation& data, const LoadFn& load, const MergeFn& merge,
           const EmitFn& emit, const CancelCheck* cancel = nullptr) {
    Run(data, 0, mmst_->layout().num_partitions, load, merge, emit, cancel);
  }

  /// Process only partitions [p_begin, p_end) — one contiguous slice of the
  /// full sequence. A contiguous slice of a non-revisiting partition
  /// sequence is itself non-revisiting, so the flush discipline (each group
  /// emitted at most once per Run) is preserved; groups whose region spans a
  /// slice boundary are emitted by several slices with partial cells, which
  /// ParallelLatticeRun reconciles by merging. The final cascade drains
  /// whatever regions remain open at the slice boundary.
  /// `cancel` (optional): checked once per partition. On AbortNow() the run
  /// returns without the final cascade — partially emitted output is only
  /// meaningful to callers that discard aborted results wholesale
  /// (ParallelLatticeRun's callers drop the whole CFS on a hard abort).
  template <typename LoadFn, typename MergeFn, typename EmitFn>
  void Run(const Translation& data, uint64_t p_begin, uint64_t p_end,
           const LoadFn& load, const MergeFn& merge, const EmitFn& emit,
           const CancelCheck* cancel = nullptr) {
    const CubeLayout& layout = mmst_->layout();
    size_t n = layout.num_dims();
    if (!subtree_needed_[mmst_->root()]) return;  // nothing to compute at all
    partition_scratch_.assign(n, 0);
    load_coords_.assign(n, 0);
    for (uint64_t p = p_begin; p < p_end; ++p) {
      if (cancel != nullptr && cancel->AbortNow()) return;
      if (p < data.partitions.size() && data.partitions[p].empty()) continue;
      layout.DecodePartitionInto(p, &partition_scratch_);
      // Load the partition into the root.
      int root_idx = mmst_->root();
      NodeState& root = states_[root_idx];
      SetRegion(root_idx, partition_scratch_);
      if (p < data.partitions.size()) {
        for (const auto& [cell_id, fact] : data.partitions[p]) {
          UnpackInto(layout, cell_id, &load_coords_);
          uint64_t off = LocalOffset(root_idx, load_coords_.data());
          if (root.cells[off].Empty()) root.occupied.push_back(off);
          load(&root.cells[off], fact);
        }
      }
      Flush(root_idx, merge, emit);
    }
    // Final cascade: parents before children so every node drains downward.
    for (int idx : mmst_->TopologicalOrder()) {
      if (idx == mmst_->root()) continue;  // root flushed per partition
      if (states_[idx].has_region) Flush(idx, merge, emit);
    }
  }

 private:
  struct NodeState {
    std::vector<Cell> cells;          ///< allocated once, reused per region
    std::vector<uint64_t> occupied;   ///< offsets of non-empty cells
    std::vector<int> region;          ///< per-dim chunk coords (-1 on full dims)
    /// Flat [occupied x num_dims] decode buffer, reused across flushes of
    /// this node. Per-node (not scaffold-wide) because Flush recurses into
    /// children between decoding and consuming the coordinates.
    std::vector<int32_t> coord_scratch;
    bool has_region = false;
  };

  void SetRegion(int idx, const std::vector<int>& pc) {
    const MmstNode& node = mmst_->nodes()[idx];
    NodeState& st = states_[idx];
    if (!st.has_region) {
      if (st.cells.size() != node.memory_cells) {
        st.cells.assign(node.memory_cells, Cell());
      }
      st.region.assign(mmst_->layout().num_dims(), -1);
      st.has_region = true;
    }
    for (int d : node.dims) {
      if (!(node.full_mask & (1u << d))) st.region[d] = pc[d];
    }
  }

  /// Target region of node `idx` induced by parent region `parent_region`;
  /// true if it differs from the node's current region.
  bool RegionChanged(int idx, const std::vector<int>& parent_region) const {
    const MmstNode& node = mmst_->nodes()[idx];
    const NodeState& st = states_[idx];
    if (!st.has_region) return false;
    for (int d : node.dims) {
      if (node.full_mask & (1u << d)) continue;
      if (st.region[d] != parent_region[d]) return true;
    }
    return false;
  }

  uint64_t LocalOffset(int idx, const int32_t* coords) const {
    const MmstNode& node = mmst_->nodes()[idx];
    const NodeState& st = states_[idx];
    const CubeLayout& layout = mmst_->layout();
    uint64_t offset = 0;
    for (size_t k = 0; k < node.dims.size(); ++k) {
      int d = node.dims[k];
      int32_t comp = coords[d];
      if (!(node.full_mask & (1u << d))) {
        comp -= st.region[d] * layout.chunk[d];
      }
      offset += static_cast<uint64_t>(comp) * node.stride[k];
    }
    return offset;
  }

  /// Global coords of a local cell offset, written into `out` (length
  /// num_dims): -1 where dims are absent, value codes elsewhere.
  void GlobalCoordsInto(int idx, uint64_t offset, int32_t* out) const {
    const MmstNode& node = mmst_->nodes()[idx];
    const NodeState& st = states_[idx];
    const CubeLayout& layout = mmst_->layout();
    for (size_t d = 0; d < layout.num_dims(); ++d) out[d] = -1;
    for (size_t k = 0; k < node.dims.size(); ++k) {
      int d = node.dims[k];
      int32_t comp = static_cast<int32_t>((offset / node.stride[k]) %
                                          static_cast<uint64_t>(node.local_extent[k]));
      if (!(node.full_mask & (1u << d))) {
        comp += st.region[d] * layout.chunk[d];
      }
      out[d] = comp;
    }
  }

  template <typename MergeFn, typename EmitFn>
  void Flush(int idx, const MergeFn& merge, const EmitFn& emit) {
    const MmstNode& node = mmst_->nodes()[idx];
    NodeState& st = states_[idx];
    if (!st.has_region) return;
    const size_t n = mmst_->layout().num_dims();

    // Decode each occupied cell's coordinates once.
    st.coord_scratch.resize(st.occupied.size() * n);
    for (size_t i = 0; i < st.occupied.size(); ++i) {
      GlobalCoordsInto(idx, st.occupied[i], st.coord_scratch.data() + i * n);
    }

    // Propagate to children first (their regions derive from ours).
    for (int child_idx : node.children) {
      if (!subtree_needed_[child_idx]) continue;
      if (RegionChanged(child_idx, st.region)) {
        Flush(child_idx, merge, emit);
      }
      // region_scratch_ is scaffold-wide: it is written after any recursive
      // child flush returns and consumed immediately by SetRegion.
      region_scratch_.assign(st.region.begin(), st.region.end());
      for (size_t i = 0; i < region_scratch_.size(); ++i) {
        if (region_scratch_[i] < 0) region_scratch_[i] = 0;
      }
      SetRegion(child_idx, region_scratch_);
      // Merge every non-empty cell downward.
      NodeState& child = states_[child_idx];
      for (size_t i = 0; i < st.occupied.size(); ++i) {
        uint64_t child_off =
            LocalOffset(child_idx, st.coord_scratch.data() + i * n);
        if (child.cells[child_off].Empty()) child.occupied.push_back(child_off);
        merge(&child.cells[child_off], st.cells[st.occupied[i]]);
      }
    }

    // Emit completed cells (mutable: cleared right below, so emit may steal).
    for (size_t i = 0; i < st.occupied.size(); ++i) {
      emit(node.mask, Span<int32_t>(st.coord_scratch.data() + i * n, n),
           st.cells[st.occupied[i]]);
    }

    // Clear only the touched cells; keep the array allocated for reuse.
    for (uint64_t off : st.occupied) st.cells[off] = Cell();
    st.occupied.clear();
    st.has_region = false;
  }

  const Mmst* mmst_;
  std::vector<NodeState> states_;
  std::vector<bool> subtree_needed_;
  std::vector<int> partition_scratch_;   ///< DecodePartitionInto buffer
  std::vector<int32_t> load_coords_;     ///< UnpackInto buffer (root loading)
  std::vector<int> region_scratch_;      ///< child-region buffer (Flush)

  static void UnpackInto(const CubeLayout& layout, uint64_t cell,
                         std::vector<int32_t>* coords) {
    for (size_t i = layout.num_dims(); i-- > 0;) {
      (*coords)[i] = static_cast<int32_t>(cell % layout.extent[i]);
      cell /= layout.extent[i];
    }
  }
};

/// Pack a node's global coordinates into the canonical group id: absent dims
/// (mask bit clear, coordinate -1) pack as 0, so ids are unique within a
/// node and ascending id order is lexicographic over the present dims in
/// dim-index significance. The radix is the full extents — independent of
/// the layout order, so the id is stable across chunkings.
inline uint64_t PackCellMasked(const CubeLayout& layout, uint32_t mask,
                               Span<int32_t> coords) {
  uint64_t cell = 0;
  for (size_t i = 0; i < layout.extent.size(); ++i) {
    int32_t c = (mask & (1u << i)) ? coords[i] : 0;
    cell = cell * static_cast<uint64_t>(layout.extent[i]) +
           static_cast<uint64_t>(c);
  }
  return cell;
}

/// Inverse of PackCellMasked: writes value codes on present dims and -1 on
/// absent dims (matching the scaffold's emit convention).
inline void UnpackCellMaskedInto(const CubeLayout& layout, uint32_t mask,
                                 uint64_t cell, int32_t* coords) {
  for (size_t i = layout.extent.size(); i-- > 0;) {
    int32_t c = static_cast<int32_t>(cell % static_cast<uint64_t>(layout.extent[i]));
    cell /= static_cast<uint64_t>(layout.extent[i]);
    coords[i] = (mask & (1u << i)) ? c : -1;
  }
}

/// One worker's contiguous share of the partition sequence.
struct PartitionSlice {
  uint64_t begin = 0;
  uint64_t end = 0;  ///< half-open
};

/// Split [0, num_partitions) into at most `num_slices` contiguous slices,
/// balanced by translated (cell, fact) pair count. The slicing is a pure
/// function of its inputs; it affects only wall-clock, never results
/// (ParallelLatticeRun's merge is slicing-independent).
std::vector<PartitionSlice> MakePartitionSlices(const Translation& data,
                                                uint64_t num_partitions,
                                                size_t num_slices);

/// Instrumentation of one ParallelLatticeRun.
struct ParallelLatticeStats {
  size_t num_slices = 0;
  /// Whole run: slices + per-node fold. EvaluateLatticeMvd adds the wall of
  /// its canonical emit, so for MVDCube this is the lattice's whole wall.
  double wall_ms = 0;
  /// Per-task time summed: the slices, plus (added by EvaluateLatticeMvd)
  /// the emit's serial pre-pass and its per-(node, column) tasks.
  double work_ms = 0;
  double merge_ms = 0;  ///< per-node fold of the slice partials (single wall)
  /// (node, group) partial cells collected across all slices before the
  /// merge — the memory price of partition parallelism over streaming emit.
  uint64_t peak_partial_cells = 0;
};

/// One lattice node's groups in canonical order: (packed cell id, cell)
/// pairs, cell ids ascending and unique (see PackCellMasked).
template <typename Cell>
using NodeGroups = std::vector<std::pair<uint64_t, Cell>>;

/// \brief Partition-parallel lattice computation (the PR 3 tentpole).
///
/// The partition sequence is split into contiguous slices, one
/// CubeScaffold per slice run concurrently on `scheduler`. Instead of
/// emitting, each slice collects per-node partial results keyed by the
/// canonical packed cell id; a group whose region spans a slice boundary is
/// collected by several slices with partial cells. The partials are then
/// folded per node — concatenated in ascending slice order, stable-sorted
/// by cell id, duplicates combined with `merge` — and returned indexed by
/// node mask. Walking the result node mask ascending, then list order, is
/// the canonical group order; UnpackCellMaskedInto turns a cell id back
/// into the scaffold's coordinates.
///
/// Determinism: with set-semantics cells (MVDCube's fact bitmaps) the fold
/// is a set union, so the merged cell of every group equals the sequential
/// scaffold's cell exactly, for ANY slicing, and the lists' order is a pure
/// function of the group ids. Downstream FP accumulation (bitmap decodes
/// scan fact ids ascending; each ARM entry sees its groups in list order)
/// is therefore bit-identical at every worker count. With FP-accumulator
/// cells the fold order is ascending-slice, deterministic for a fixed
/// worker count but not across counts (ArrayCube keeps the sequential
/// scaffold).
///
/// `keep(mask, coords)` filters at collection time (nodes with no consumer,
/// null-coordinate groups). `wanted` is forwarded to every slice's
/// SetWantedNodes (nullptr = all nodes). On AbortNow() the lists are
/// partial and only fit for discarding.
template <typename Cell, typename LoadFn, typename MergeFn, typename KeepFn>
std::vector<NodeGroups<Cell>> ParallelLatticeRun(
    const Mmst& mmst, const Translation& data, const std::vector<bool>* wanted,
    size_t num_workers, TaskScheduler* scheduler, const LoadFn& load,
    const MergeFn& merge, const KeepFn& keep,
    ParallelLatticeStats* stats = nullptr, const CancelCheck* cancel = nullptr) {
  const CubeLayout& layout = mmst.layout();
  const size_t num_nodes = mmst.nodes().size();
  Timer wall;

  std::vector<PartitionSlice> slices = MakePartitionSlices(
      data, layout.num_partitions, std::max<size_t>(1, num_workers));

  // Stage 1: one scaffold per slice, collecting (cell id, Cell) partials
  // per node. Within a slice each group is emitted at most once (flush
  // discipline), so the per-node sort key is unique.
  std::vector<std::vector<NodeGroups<Cell>>> partials(slices.size());
  std::vector<double> slice_ms(slices.size(), 0.0);
  auto by_cell_id = [](const std::pair<uint64_t, Cell>& a,
                       const std::pair<uint64_t, Cell>& b) {
    return a.first < b.first;
  };
  auto run_slice = [&](size_t s) {
    Timer t;
    SPADE_FAILPOINT("core.lattice.slice");
    std::vector<NodeGroups<Cell>>& mine = partials[s];
    mine.resize(num_nodes);
    CubeScaffold<Cell> scaffold(&mmst);
    if (wanted != nullptr) scaffold.SetWantedNodes(*wanted);
    scaffold.Run(data, slices[s].begin, slices[s].end, load, merge,
                 [&](uint32_t mask, Span<int32_t> coords, Cell& cell) {
                   if (!keep(mask, coords)) return;
                   mine[mask].emplace_back(PackCellMasked(layout, mask, coords),
                                           std::move(cell));
                 },
                 cancel);
    for (NodeGroups<Cell>& p : mine) std::sort(p.begin(), p.end(), by_cell_id);
    slice_ms[s] = t.ElapsedMillis();
  };
  if (scheduler != nullptr && slices.size() > 1) {
    scheduler->ParallelFor(slices.size(), run_slice, cancel);
  } else {
    for (size_t s = 0; s < slices.size(); ++s) {
      if (cancel != nullptr && cancel->AbortNow()) break;
      run_slice(s);
    }
  }

  uint64_t partial_cells = 0;
  for (const auto& slice_partials : partials) {
    for (const NodeGroups<Cell>& p : slice_partials) partial_cells += p.size();
  }

  // Stage 2: fold the slices per node. Nodes are independent, so the fold
  // fans out too; the per-node result is slicing-independent for
  // set-semantics merges (see class comment).
  Timer merge_timer;
  std::vector<NodeGroups<Cell>> merged(num_nodes);
  if (slices.size() == 1) {
    merged = std::move(partials[0]);  // sorted, duplicate-free already
    merged.resize(num_nodes);  // the slice left it empty if it aborted first
  } else {
    auto fold_node = [&](size_t mask) {
      if (cancel != nullptr && cancel->AbortNow()) return;
      NodeGroups<Cell>& out = merged[mask];
      size_t total = 0;
      for (const auto& sp : partials) total += sp[mask].size();
      if (total == 0) return;
      out.reserve(total);
      for (auto& sp : partials) {
        for (auto& kv : sp[mask]) out.push_back(std::move(kv));
      }
      // Stable: duplicates stay in ascending slice order for the merge.
      std::stable_sort(out.begin(), out.end(), by_cell_id);
      size_t w = 0;
      for (size_t r = 1; r < out.size(); ++r) {
        if (out[r].first == out[w].first) {
          merge(&out[w].second, out[r].second);
        } else if (++w != r) {  // guard the no-gap case: self-move clears
          out[w] = std::move(out[r]);
        }
      }
      out.resize(w + 1);
    };
    if (scheduler != nullptr && scheduler->parallel() && num_nodes > 1) {
      scheduler->ParallelFor(num_nodes, fold_node);
    } else {
      for (size_t mask = 0; mask < num_nodes; ++mask) fold_node(mask);
    }
  }

  if (stats != nullptr) {
    double work_ms = 0;
    for (double ms : slice_ms) work_ms += ms;
    // Plain assignment throughout: the struct always describes this one run
    // (callers aggregate across runs via EvalStats::MergeLattice).
    stats->num_slices = slices.size();
    stats->wall_ms = wall.ElapsedMillis();
    stats->work_ms = work_ms;
    stats->merge_ms = merge_timer.ElapsedMillis();
    stats->peak_partial_cells = partial_cells;
  }
  return merged;
}

}  // namespace spade

#endif  // SPADE_CORE_LATTICE_H_
