#include "src/exec/cube_evaluator.h"

#include <algorithm>
#include <utility>

#include "src/core/arraycube.h"
#include "src/core/pgcube.h"
#include "src/exec/sharded_evaluator.h"
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
/// Prepare() builds the per-lattice encodings / MMSTs / translations. With
/// early-stop enabled it additionally runs the CI planner — serially, since
/// the stratified reservoirs draw from one sequential RNG stream (bit-equal
/// results across thread counts). Without early-stop the per-lattice
/// pre-builds are independent pure functions and fan out on the scheduler.
class MvdCubeEvaluator : public CubeEvaluator {
 public:
  explicit MvdCubeEvaluator(const CubeEvalOptions& options)
      : options_(options) {}

  const char* name() const override { return "MVDCube"; }

  void Prepare(const CubeEvalInputs& in, const Arm& arm,
               TaskScheduler* scheduler, EvalStats* stats) override {
    const std::vector<LatticeSpec>& lattices = *in.lattices;
    encodings_.assign(lattices.size(), {});
    mmsts_.assign(lattices.size(), {});
    translations_.assign(lattices.size(), {});

    if (options_.enable_earlystop) {
      Timer es_timer;
      Rng rng(options_.seed ^ (0x9e3779b97f4a7c15ULL * (in.cfs_id + 1)));
      EarlyStopOptions es_options = options_.earlystop;
      es_options.kind = options_.interestingness;
      es_options.top_k = std::max(es_options.top_k, options_.top_k);
      EarlyStopPlanner planner(in.db, in.cfs_id, in.cfs, in.offline_stats,
                               es_options);
      for (size_t li = 0; li < lattices.size(); ++li) {
        BuildLattice(in, li, es_options.sample_size, &rng);
        planner.AddLattice(lattices[li], encodings_[li], mmsts_[li].layout(),
                           translations_[li], &measures_);
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
      pre_built_ = true;
      return;
    }

    // No early-stop: the pre-builds are independent per lattice (no shared
    // RNG), identical to what EvaluateLatticeMvd would build internally.
    // Fan them out when a scheduler is available; a lone lattice or serial
    // scheduler falls through to EvaluateLatticeMvd's internal build.
    if (scheduler != nullptr && scheduler->parallel() && lattices.size() > 1) {
      // Cancellation may skip individual builds; the aborted CFS's results
      // are discarded wholesale by the driver, so a hole is harmless.
      scheduler->ParallelFor(
          lattices.size(),
          [&](size_t li) {
            BuildLattice(in, li, /*sample_capacity=*/0, /*rng=*/nullptr);
          },
          in.cancel);
      pre_built_ = true;
    }
  }

  void EvaluateLattice(const CubeEvalInputs& in, size_t li, Arm* arm,
                       TaskScheduler* scheduler, EvalStats* stats) override {
    MvdCubeStats s = EvaluateLatticeMvd(
        *in.db, in.cfs_id, *in.cfs, (*in.lattices)[li], options_.mvd, arm,
        &measures_, pruned_.empty() ? nullptr : &pruned_,
        pre_built_ ? &translations_[li] : nullptr,
        pre_built_ ? &mmsts_[li] : nullptr,
        pre_built_ ? &encodings_[li] : nullptr, scheduler,
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
  /// Pre-build lattice `li`'s encoding, MMST and translation — the one
  /// definition both Prepare branches share, and the bit-identical twin of
  /// EvaluateLatticeMvd's internal build (plus optional reservoir sampling
  /// for early-stop).
  void BuildLattice(const CubeEvalInputs& in, size_t li,
                    size_t sample_capacity, Rng* rng) {
    mmsts_[li] = BuildMmstForSpec(*in.db, *in.cfs, (*in.lattices)[li],
                                  &encodings_[li],
                                  options_.mvd.partition_chunk);
    TranslationOptions topt;
    topt.max_combos_per_fact = options_.mvd.max_combos_per_fact;
    topt.sample_capacity = sample_capacity;
    topt.rng = rng;
    translations_[li] = TranslateData(encodings_[li], mmsts_[li].layout(), topt);
  }

  CubeEvalOptions options_;
  MeasureCache measures_;
  std::set<AggregateKey> pruned_;
  std::vector<std::vector<DimensionEncoding>> encodings_;
  std::vector<Mmst> mmsts_;
  std::vector<Translation> translations_;
  bool pre_built_ = false;
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
      if (ResolveShardCount(options.algorithm, options.enable_earlystop,
                            options.num_shards, /*num_threads=*/1) > 1) {
        return MakeShardedMvdCubeEvaluator(options);
      }
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
