#ifndef SPADE_EXEC_CUBE_EVALUATOR_H_
#define SPADE_EXEC_CUBE_EVALUATOR_H_

#include <memory>
#include <set>
#include <vector>

#include "src/core/arm.h"
#include "src/core/earlystop.h"
#include "src/core/mvdcube.h"
#include "src/exec/thread_pool.h"
#include "src/stats/attr_stats.h"

namespace spade {

/// Which Aggregate Evaluation module the online pipeline uses (Section 6
/// compares them; MVDCube is the system default, ArrayCube is the classical
/// relational baseline of Section 4.2).
enum class EvalAlgorithm : uint8_t {
  kMvdCube = 0,
  kPgCubeStar,      ///< PostgreSQL-style cube, count(*)
  kPgCubeDistinct,  ///< PostgreSQL-style cube, count(distinct)
  kArrayCube,       ///< Zhao et al. one-pass baseline (incorrect on
                    ///< multi-valued dims, Lemma 1)
};

const char* EvalAlgorithmName(EvalAlgorithm algo);

/// Evaluation knobs shared by every cube algorithm; Spade builds this from
/// SpadeOptions so the exec layer never depends on the pipeline header.
struct CubeEvalOptions {
  EvalAlgorithm algorithm = EvalAlgorithm::kMvdCube;
  MvdCubeOptions mvd;
  EarlyStopOptions earlystop;
  bool enable_earlystop = false;
  InterestingnessKind interestingness = InterestingnessKind::kVariance;
  size_t top_k = 10;
  uint64_t seed = 42;
  /// Fact-id ranges MVDCube's Prepare splits one CFS's translation and
  /// measure loading into (resolved count, >= 1; callers translate "auto"
  /// through ResolveShardCount, which gives early-stop one range: its
  /// stratified reservoirs draw from one sequential RNG stream). Results
  /// are bit-identical at every count.
  size_t num_shards = 1;
};

/// Everything a cube algorithm needs to evaluate one CFS: the store, the
/// dense fact index, the enumerated lattices and the offline statistics
/// (early-stop min/max CIs). All pointers are borrowed and must outlive the
/// evaluator.
struct CubeEvalInputs {
  const AttributeStore* db = nullptr;
  uint32_t cfs_id = 0;
  const CfsIndex* cfs = nullptr;
  const std::vector<LatticeSpec>* lattices = nullptr;
  const std::vector<AttrStats>* offline_stats = nullptr;
  /// Cooperative cancellation for this CFS's evaluation; null = never
  /// cancelled. Deadline/external cancel aborts between (and inside)
  /// lattices; a bitmap-budget trip only stops admitting new groups (see
  /// CancelCheck's two-predicate contract).
  const CancelCheck* cancel = nullptr;
};

/// Aggregate-evaluation outcome of one CFS, merged into SpadeReport.
struct EvalStats {
  size_t num_mdas_evaluated = 0;  ///< MDA keys newly evaluated
  size_t num_mdas_reused = 0;     ///< keys already in the ARM (shared nodes)
  size_t num_mdas_pruned = 0;     ///< unique keys skipped by early-stop
  size_t num_groups_emitted = 0;
  double earlystop_ms = 0;  ///< CI planning time, inside evaluation wall-clock
  /// Fact-id ranges of MVDCube's Prepare (empty / zero with one range):
  /// facts owned by each range, and the serial step that sizes every
  /// translation partition from the ranges' partial sizes.
  std::vector<size_t> shard_fact_counts;
  double shard_merge_ms = 0;
  /// Partition-parallel lattice computation (MVDCube path; zero elsewhere):
  /// partition slices actually used (max over lattices — small lattices may
  /// have fewer partitions than workers), wall-clock and summed per-worker
  /// work time of the parallel runs, and the peak count of partial
  /// (node, group) cells held before the canonical merge.
  size_t lattice_workers_used = 0;
  double lattice_wall_ms = 0;
  double lattice_work_ms = 0;
  uint64_t lattice_peak_partial_cells = 0;
  /// Fact-bitmap bytes of the largest single lattice evaluation's collected
  /// group cells (MVDCube path; zero elsewhere) — the Section 4.3 memory
  /// model taken from the live cells' fact sets rather than bounded by
  /// formula. A lower bound on the true resident peak, the same at every
  /// configuration (see MvdCubeStats::bitmap_bytes_peak).
  uint64_t peak_bitmap_bytes = 0;
  /// The bitmap budget (MvdCubeOptions::max_bitmap_bytes) tripped while
  /// evaluating this CFS: the emitted groups are a canonical-order prefix
  /// and num_groups_skipped counts the refused remainder.
  bool budget_truncated = false;
  size_t num_groups_skipped = 0;
  /// A deadline / external cancel aborted this CFS mid-evaluation. Unlike a
  /// budget trip, the partial output is timing-dependent, so callers must
  /// discard the CFS's results wholesale (Spade's commit rule does).
  bool aborted = false;

  /// Fold one lattice's parallel-run counters into this CFS's stats.
  void MergeLattice(const ParallelLatticeStats& ls) {
    lattice_workers_used = std::max(lattice_workers_used, ls.num_slices);
    lattice_wall_ms += ls.wall_ms;
    lattice_work_ms += ls.work_ms;
    lattice_peak_partial_cells =
        std::max(lattice_peak_partial_cells, ls.peak_partial_cells);
  }
};

/// \brief Uniform operator interface over the cube algorithms (MVDCube,
/// PGCube*, PGCube_d, ArrayCube) — the runtime layer's unit of scheduling.
///
/// Lifecycle: one evaluator instance per CFS. Prepare() builds per-CFS
/// shared state (dimension encodings, MMSTs, translations, the early-stop
/// prune set); independent per-lattice work inside it may be fanned out on
/// `scheduler`. EvaluateLattice() then streams lattice `li`'s results into
/// `arm` and must be called in ascending `li` order on a single thread —
/// the ARM's register/reuse discipline (an MDA shared by two lattices is
/// evaluated by the first and reused by the second) is what makes results
/// deterministic, and it is inherently order-dependent.
///
/// `arm` is a per-CFS scope: AggregateKey embeds the cfs_id, so distinct
/// CFSs never share keys and each CFS's shard can be evaluated on its own
/// thread and merged into the global ARM afterwards (Arm::Absorb).
class CubeEvaluator {
 public:
  virtual ~CubeEvaluator() = default;

  virtual const char* name() const = 0;

  /// Build per-CFS shared state. `arm` provides exact scores of
  /// already-evaluated aggregates of this CFS (empty on the standard
  /// pipeline path); `scheduler` may be null (serial).
  virtual void Prepare(const CubeEvalInputs& in, const Arm& arm,
                       TaskScheduler* scheduler, EvalStats* stats);

  /// Evaluate lattice `li` of `in.lattices` into `arm`. See class comment
  /// for the ordering contract — calls stay in ascending `li` order on one
  /// thread; `scheduler` (may be null) lets the implementation parallelize
  /// *inside* the lattice (MVDCube's partition-parallel computation), which
  /// never changes results, only wall-clock.
  virtual void EvaluateLattice(const CubeEvalInputs& in, size_t li, Arm* arm,
                               TaskScheduler* scheduler, EvalStats* stats) = 0;

  /// Convenience driver: Prepare + every lattice in order.
  EvalStats EvaluateCfs(const CubeEvalInputs& in, Arm* arm,
                        TaskScheduler* scheduler);
};

/// Resolve the lattice-computation worker count: one partition slice per
/// compute thread of the scheduler (1 when serial). Results are
/// worker-count-independent by construction (ParallelLatticeRun's canonical
/// merge-and-emit), so this is purely a wall-clock knob.
size_t ResolveLatticeWorkers(const TaskScheduler* scheduler);

/// Resolve the within-CFS fact-range count: 0 = auto (one per worker
/// thread); configurations that cannot split — non-MVDCube algorithms and
/// early-stop (sequential reservoir RNG stream) — resolve to 1. The single
/// definition of range eligibility, shared by the pipeline's evaluation and
/// its reporting so the two can never drift.
size_t ResolveShardCount(EvalAlgorithm algorithm, bool enable_earlystop,
                         size_t requested_shards, size_t num_threads);

/// The factory replacing Spade::EvaluateCfs's algorithm switch.
std::unique_ptr<CubeEvaluator> MakeCubeEvaluator(const CubeEvalOptions& options);

}  // namespace spade

#endif  // SPADE_EXEC_CUBE_EVALUATOR_H_
