#include "src/exec/cube_evaluator.h"

#include <algorithm>
#include <utility>

#include "src/core/arraycube.h"
#include "src/core/pgcube.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace spade {

const char* EvalAlgorithmName(EvalAlgorithm algo) {
  switch (algo) {
    case EvalAlgorithm::kMvdCube:
      return "MVDCube";
    case EvalAlgorithm::kPgCubeStar:
      return "PGCube*";
    case EvalAlgorithm::kPgCubeDistinct:
      return "PGCube_d";
    case EvalAlgorithm::kArrayCube:
      return "ArrayCube";
  }
  return "?";
}

void CubeEvaluator::Prepare(const CubeEvalInputs& /*in*/, const Arm& /*arm*/,
                            TaskScheduler* /*scheduler*/, EvalStats* /*stats*/) {}

EvalStats CubeEvaluator::EvaluateCfs(const CubeEvalInputs& in, Arm* arm,
                                     TaskScheduler* scheduler) {
  EvalStats stats;
  Prepare(in, *arm, scheduler, &stats);
  for (size_t li = 0; li < in.lattices->size(); ++li) {
    if (in.cancel != nullptr && in.cancel->AbortNow()) {
      stats.aborted = true;
      return stats;
    }
    if (stats.budget_truncated) break;  // budget: keep the prefix, stop here
    EvaluateLattice(in, li, arm, scheduler, &stats);
  }
  // A deadline that expired inside the last lattice left a timing-dependent
  // partial emit; make sure the caller sees the abort and discards it.
  if (in.cancel != nullptr && in.cancel->AbortNow()) stats.aborted = true;
  return stats;
}

size_t ResolveLatticeWorkers(const TaskScheduler* scheduler) {
  return scheduler != nullptr ? scheduler->num_threads() : 1;
}

namespace {

/// \brief MVDCube behind the uniform interface.
///
/// Prepare() builds every lattice's encodings, MMST and translation and
/// loads its measures through PrepareLattices, over `num_shards` fact
/// ranges; the prepared inputs are byte-identical at every range and thread
/// count. With early-stop the translations sample, serially in lattice
/// order (the stratified reservoirs draw from one sequential RNG stream),
/// and the CI planner then picks the MDAs to prune.
class MvdCubeEvaluator : public CubeEvaluator {
 public:
  explicit MvdCubeEvaluator(const CubeEvalOptions& options)
      : options_(options) {}

  const char* name() const override { return "MVDCube"; }

  void Prepare(const CubeEvalInputs& in, const Arm& arm,
               TaskScheduler* scheduler, EvalStats* stats) override {
    const std::vector<LatticeSpec>& lattices = *in.lattices;
    const size_t num_ranges = std::max<size_t>(1, options_.num_shards);
    if (num_ranges > 1) {
      for (const FactRange& r : MakeFactShards(in.cfs->size(), num_ranges)) {
        stats->shard_fact_counts.push_back(r.size());
      }
    }
    const bool sample = options_.enable_earlystop;
    EarlyStopOptions es_options = options_.earlystop;
    es_options.kind = options_.interestingness;
    es_options.top_k = std::max(es_options.top_k, options_.top_k);
    Rng rng(options_.seed ^ (0x9e3779b97f4a7c15ULL * (in.cfs_id + 1)));
    prepared_ = PrepareLattices(*in.db, *in.cfs, lattices, options_.mvd,
                                &measures_, scheduler, num_ranges, in.cancel,
                                sample ? es_options.sample_size : 0,
                                sample ? &rng : nullptr,
                                &stats->shard_merge_ms);
    // An aborted build has holes; the pipeline discards this CFS anyway.
    if (!sample || (in.cancel != nullptr && in.cancel->AbortNow())) return;
    Timer es_timer;
    EarlyStopPlanner planner(in.db, in.cfs_id, in.cfs, in.offline_stats,
                             es_options);
    for (size_t li = 0; li < lattices.size(); ++li) {
      const PreparedLattice& p = prepared_[li];
      planner.AddLattice(lattices[li], p.encodings, p.mmst.layout(),
                         p.translation, &measures_);
    }
    // `arm` is the per-CFS shard — empty here on the pipeline path. The
    // seed passed the global ARM, whose other-CFS exact scores tightened
    // the k-th-best threshold; that coupling made pruning depend on CFS
    // evaluation order, so the per-CFS scope trades a little pruning
    // power for thread-count-independent results (ARCHITECTURE.md,
    // "Determinism under parallelism").
    EarlyStopResult es = planner.Plan(arm);
    pruned_ = std::move(es.pruned);
    // Unique pruned MDA keys (a shared node would otherwise be counted
    // once per lattice).
    stats->num_mdas_pruned += pruned_.size();
    stats->earlystop_ms += es_timer.ElapsedMillis();
  }

  void EvaluateLattice(const CubeEvalInputs& in, size_t li, Arm* arm,
                       TaskScheduler* scheduler, EvalStats* stats) override {
    MvdCubeStats s = EvaluateLatticeMvd(
        in.cfs_id, (*in.lattices)[li], prepared_[li], measures_, options_.mvd,
        arm, pruned_.empty() ? nullptr : &pruned_, scheduler,
        ResolveLatticeWorkers(scheduler), in.cancel, budget_bytes_used_);
    budget_bytes_used_ += s.bitmap_bytes_peak;
    stats->num_mdas_evaluated += s.num_mdas_evaluated;
    stats->num_mdas_reused += s.num_mdas_reused;
    stats->num_groups_emitted += s.num_groups_emitted;
    stats->num_groups_skipped += s.num_groups_skipped;
    if (s.budget_truncated) stats->budget_truncated = true;
    stats->peak_bitmap_bytes =
        std::max(stats->peak_bitmap_bytes, s.bitmap_bytes_peak);
    stats->MergeLattice(s.lattice);
  }

 private:
  CubeEvalOptions options_;
  MeasureCache measures_;
  std::set<AggregateKey> pruned_;
  std::vector<PreparedLattice> prepared_;
  /// Bitmap bytes admitted by earlier lattices of this CFS — the budget is
  /// per CFS, not per lattice (one evaluator instance per CFS).
  uint64_t budget_bytes_used_ = 0;
};

/// PGCube shares nothing across lattices (each is one "query"), so its
/// evaluator is stateless between EvaluateLattice calls.
class PgCubeEvaluator : public CubeEvaluator {
 public:
  explicit PgCubeEvaluator(PgCubeVariant variant) : variant_(variant) {}

  const char* name() const override {
    return variant_ == PgCubeVariant::kStar ? "PGCube*" : "PGCube_d";
  }

  void EvaluateLattice(const CubeEvalInputs& in, size_t li, Arm* arm,
                       TaskScheduler* /*scheduler*/, EvalStats* stats) override {
    PgCubeStats s;
    EvaluateLatticePgCube(*in.db, in.cfs_id, *in.cfs, (*in.lattices)[li],
                          variant_, arm, &s);
    stats->num_mdas_evaluated += s.num_mdas_evaluated;
    stats->num_groups_emitted += s.num_groups_emitted;
  }

 private:
  PgCubeVariant variant_;
};

/// ArrayCube baseline behind the interface: evaluates each lattice with the
/// classical one-pass algorithm and streams the (deliberately incorrect on
/// multi-valued dimensions) results into the ARM, reusing keys shared
/// across lattices like MVDCube does.
class ArrayCubeEvaluator : public CubeEvaluator {
 public:
  explicit ArrayCubeEvaluator(const MvdCubeOptions& options)
      : options_(options) {}

  const char* name() const override { return "ArrayCube"; }

  void EvaluateLattice(const CubeEvalInputs& in, size_t li, Arm* arm,
                       TaskScheduler* /*scheduler*/, EvalStats* stats) override {
    std::vector<AggregateResult> results = EvaluateLatticeArrayCube(
        *in.db, in.cfs_id, *in.cfs, (*in.lattices)[li], options_, &measures_);
    for (AggregateResult& result : results) {
      Arm::Handle handle = arm->Register(result.key);
      if (handle == Arm::kInvalidHandle) {
        ++stats->num_mdas_reused;
        continue;
      }
      ++stats->num_mdas_evaluated;
      for (const GroupResult& group : result.groups) {
        arm->AddGroup(handle, group.dim_values, group.value);
        ++stats->num_groups_emitted;
      }
    }
  }

 private:
  MvdCubeOptions options_;
  MeasureCache measures_;
};

}  // namespace

size_t ResolveShardCount(EvalAlgorithm algorithm, bool enable_earlystop,
                         size_t requested_shards, size_t num_threads) {
  if (algorithm != EvalAlgorithm::kMvdCube || enable_earlystop) return 1;
  size_t shards = requested_shards == 0 ? num_threads : requested_shards;
  return std::max<size_t>(1, shards);
}

std::unique_ptr<CubeEvaluator> MakeCubeEvaluator(const CubeEvalOptions& options) {
  switch (options.algorithm) {
    case EvalAlgorithm::kMvdCube:
      return std::make_unique<MvdCubeEvaluator>(options);
    case EvalAlgorithm::kPgCubeStar:
      return std::make_unique<PgCubeEvaluator>(PgCubeVariant::kStar);
    case EvalAlgorithm::kPgCubeDistinct:
      return std::make_unique<PgCubeEvaluator>(PgCubeVariant::kDistinct);
    case EvalAlgorithm::kArrayCube:
      return std::make_unique<ArrayCubeEvaluator>(options.mvd);
  }
  return std::make_unique<MvdCubeEvaluator>(options);
}

}  // namespace spade
