#ifndef SPADE_CORE_MVDCUBE_H_
#define SPADE_CORE_MVDCUBE_H_

#include <map>
#include <set>
#include <vector>

#include "src/core/arm.h"
#include "src/core/lattice.h"
#include "src/store/preagg.h"
#include "src/util/rng.h"

namespace spade {

/// Per-CFS cache of measure vectors: MVDCube shares loaded measures across
/// every lattice of a CFS (Section 4.3, Measure Loading), one of its two
/// structural advantages over PGCube (the other being single evaluation of
/// nodes shared between lattices, enforced via the ARM).
class MeasureCache {
 public:
  /// The vector of `attr`, built on first use (ArrayCube and early-stop's
  /// planner load lazily).
  const MeasureVector& Get(const AttributeStore& db, const CfsIndex& cfs, AttrId attr);
  /// The vector of `attr`; it must already be loaded (PrepareLattices loads
  /// every measure of its lattices). Throws std::out_of_range otherwise.
  const MeasureVector& At(AttrId attr) const { return cache_.at(attr); }
  bool Contains(AttrId attr) const { return cache_.count(attr) > 0; }
  /// Insert a pre-built vector (PrepareLattices fills measure vectors range
  /// by range). First writer wins, like Get.
  void Put(AttrId attr, MeasureVector mv);
  size_t num_loads() const { return cache_.size(); }

 private:
  std::map<AttrId, MeasureVector> cache_;
};

/// Tuning knobs of the MVDCube evaluator.
struct MvdCubeOptions {
  /// Distinct values per dimension per partition (ArrayCube's chunk size).
  int partition_chunk = 16;
  /// Cap on cells a single fact may occupy (multi-value cross product).
  size_t max_combos_per_fact = 4096;
  /// Resident-bitmap budget for one CFS, in bytes; 0 = unlimited. Checked in
  /// the emit's serial canonical pre-pass against the running
  /// bitmap_bytes_peak sum (plus
  /// `budget_bytes_used` carried in from earlier lattices of the CFS): the
  /// group that would push the sum past the budget is not admitted, and no
  /// later group of the CFS is either. The cut point is a pure function of
  /// the canonical group stream, so it is identical at every
  /// thread/shard/worker count.
  uint64_t max_bitmap_bytes = 0;
};

/// Statistics of one lattice evaluation, reported by benches and tests.
struct MvdCubeStats {
  size_t num_nodes = 0;
  size_t num_mdas_evaluated = 0;  ///< MDA keys newly evaluated
  size_t num_mdas_reused = 0;     ///< keys already in the ARM (shared nodes)
  size_t num_mdas_pruned = 0;     ///< keys skipped by early-stop
  size_t num_groups_emitted = 0;
  /// Summed RoaringBitmap::CanonicalBytes() of every collected group cell.
  /// The emit's canonical pre-pass walks the merged partials, which all
  /// coexist at that point, so this is a lower bound on the lattice's peak
  /// resident bitmap footprint (Section 4.3 memory accounting) — cells
  /// filtered before emit (null-coordinate groups, unconsumed nodes),
  /// not-yet-folded duplicate slice partials and vector slack are resident
  /// too but not counted. It depends only on the groups' fact sets, so it
  /// is the same at every thread/shard/worker count.
  uint64_t bitmap_bytes_peak = 0;
  /// True when the bitmap budget tripped during this lattice's emit; the
  /// groups after the cut are counted in num_groups_skipped, not emitted.
  bool budget_truncated = false;
  size_t num_groups_skipped = 0;
  /// Partition-parallel lattice computation (ParallelLatticeRun).
  ParallelLatticeStats lattice;
};

/// \brief One lattice's inputs to Lattice Computation: its dimension
/// encodings, the MMST over their extents, and the facts translated into
/// the MMST's partitioned layout (Section 4.3, Data Translation).
struct PreparedLattice {
  std::vector<DimensionEncoding> encodings;
  Mmst mmst;
  Translation translation;
};

/// \brief Section 4.3's first two steps for every lattice of one CFS: Data
/// Translation and Measure Loading, fanned out on `scheduler` (null runs
/// inline). `num_ranges` contiguous fact ranges (MakeFactShards) split the
/// per-fact work:
///   - one task per (lattice, dimension) builds the encodings, then each
///     lattice's MMST is built from their extents;
///   - one task per (lattice, fact range) translates that range. A serial
///     prefix sum over the partial sizes, in ascending range order, sizes
///     every partition (`*sizing_ms` gets its time), and one task per
///     (lattice, fact range) copies its pairs to its offsets. Each range
///     lists its facts ascending, so the result is byte-identical to the
///     one-range translation at every range count, with nothing merged;
///   - one task per (measure attribute, fact range) fills the measure
///     vectors `measures` does not hold yet. Slot f depends on fact f's
///     rows only, and the table-wide flags AND-combine exactly.
///
/// With `sample_capacity` > 0 (early-stop) the translations instead run
/// serially, in lattice order, over all facts: the lattices' stratified
/// reservoirs draw from the one `rng` stream (Section 5.3), so only that
/// order reproduces them. On AbortNow() the result is partial and only fit
/// for discarding.
std::vector<PreparedLattice> PrepareLattices(
    const AttributeStore& db, const CfsIndex& cfs,
    const std::vector<LatticeSpec>& lattices, const MvdCubeOptions& options,
    MeasureCache* measures, TaskScheduler* scheduler = nullptr,
    size_t num_ranges = 1, const CancelCheck* cancel = nullptr,
    size_t sample_capacity = 0, Rng* rng = nullptr,
    double* sizing_ms = nullptr);

/// \brief MVDCube (Section 4.3): correct one-pass lattice evaluation.
///
/// `prepared` and `measures` come from PrepareLattices: Data Translation
/// laid the facts into the partitioned array (cells addressed by dimension
/// value codes, multi-valued facts in several cells, missing values on the
/// added null coordinate) and Measure Loading fetched the per-fact
/// pre-aggregated measures. Lattice Computation streams partitions through
/// the MMST, cells carrying Roaring bitmaps of fact ids. Bitmaps are ORed
/// downward as dimensions are projected away, so a fact that occupies
/// several parent cells (multi-valued dimension) is consolidated — counted
/// once — in the child cell. When a node's region completes, its cells are
/// scanned once: the bitmap is intersected against the measure arrays (both
/// ordered by fact id) and every (measure, function) MDA of the node is
/// computed simultaneously; null-coordinate groups are propagated but not
/// reported.
///
/// `pruned` contains MDA keys early-stop decided to skip (their nodes still
/// propagate). Results stream into `arm`; keys already evaluated there are
/// reused, not recomputed.
///
/// Lattice computation runs the partition-parallel protocol
/// (ParallelLatticeRun) at every configuration: `lattice_workers` contiguous
/// partition slices evaluated concurrently on `scheduler` (one slice,
/// inline, by default), partial fact bitmaps merged by union into per-node
/// group lists in canonical order. One serial pass over the lists does the
/// byte accounting and the budget cut; the decode, fold and ARM feed then
/// run as one `scheduler` task per (node, measure column), each walking its
/// node's list in order. Every ARM entry belongs to one task and sees its
/// groups in canonical order, so the ARM contents are identical at every
/// worker count: `lattice_workers` and `scheduler` only change wall-clock.
MvdCubeStats EvaluateLatticeMvd(uint32_t cfs_id, const LatticeSpec& spec,
                                const PreparedLattice& prepared,
                                const MeasureCache& measures,
                                const MvdCubeOptions& options, Arm* arm,
                                const std::set<AggregateKey>* pruned = nullptr,
                                TaskScheduler* scheduler = nullptr,
                                size_t lattice_workers = 1,
                                const CancelCheck* cancel = nullptr,
                                uint64_t budget_bytes_used = 0);

/// Build the MMST for a lattice spec (ArrayCube, and tests and benches that
/// drive the scaffold or early-stop's planner directly).
Mmst BuildMmstForSpec(const AttributeStore& db, const CfsIndex& cfs,
                      const LatticeSpec& spec,
                      std::vector<DimensionEncoding>* encodings,
                      int partition_chunk);

}  // namespace spade

#endif  // SPADE_CORE_MVDCUBE_H_
