// Tests of the execution layer: ThreadPool / TaskScheduler semantics, the
// CubeEvaluator factory, and — the contract the parallel pipeline stands on —
// bit-identical results at every thread count.

#include "src/exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "src/core/mvdcube.h"
#include "src/core/spade.h"
#include "src/datagen/realworld.h"
#include "src/datagen/synthetic.h"
#include "src/exec/cube_evaluator.h"

namespace spade {
namespace {

// --- ThreadPool / TaskScheduler ------------------------------------------

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 1000; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // Destructor drains the queues before joining.
  }
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPoolTest, HardwareConcurrencyIsPositive) {
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1u);
}

TEST(ThreadPoolTest, TasksSubmittedByTasksAreDrainedBeforeDestruction) {
  // Nested submissions join the queue while the destructor may already be
  // stopping the workers; the drain contract has to cover the whole spawn
  // chain.
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter, &pool] {
        counter.fetch_add(1);
        pool.Submit([&counter] { counter.fetch_add(1); });
      });
    }
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolStressTest, NestedFineGrainedTasksAllRunExactlyOnce) {
  // Contention-heavy by construction: the external thread and every worker
  // submit at once — each task immediately spawns tiny children — so the
  // queue's lock is fought over from all sides. Microsecond-scale bodies
  // keep it churning. (The TSan CI job runs this; it is the data-race check
  // on the pool.)
  constexpr int kRounds = 200;
  constexpr int kChildren = 16;
  std::vector<std::atomic<int>> hits(kRounds * kChildren);
  for (auto& h : hits) h.store(0);
  {
    ThreadPool pool(8);
    for (int r = 0; r < kRounds; ++r) {
      pool.Submit([&hits, &pool, r] {
        for (int c = 0; c < kChildren; ++c) {
          pool.Submit([&hits, r, c] {
            hits[r * kChildren + c].fetch_add(1, std::memory_order_relaxed);
          });
        }
      });
    }
  }
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolStressTest, ParallelForUnderContention) {
  // Many short ParallelFor rounds on a pool bigger than the work: workers
  // spend most of their time going to sleep and waking up, the regression
  // surface for lost-wakeup bugs (a hang here is the failure mode).
  ThreadPool pool(8);
  TaskScheduler scheduler(&pool);
  std::atomic<int64_t> total{0};
  for (int round = 0; round < 300; ++round) {
    scheduler.ParallelFor(5, [&](size_t i) {
      total.fetch_add(static_cast<int64_t>(i), std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 300 * (0 + 1 + 2 + 3 + 4));
}

TEST(TaskSchedulerTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  TaskScheduler scheduler(&pool);
  std::vector<std::atomic<int>> hits(500);
  scheduler.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(TaskSchedulerTest, NullPoolRunsInlineInOrder) {
  TaskScheduler scheduler(nullptr);
  EXPECT_FALSE(scheduler.parallel());
  std::vector<size_t> order;
  scheduler.ParallelFor(5, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(TaskSchedulerTest, NestedParallelForMakesProgress) {
  // Outer loop over "CFSs", inner loop over "lattices" on the same
  // scheduler — the shape Spade::RunOnline produces. A pool smaller than
  // the outer fan-out must not deadlock (callers participate).
  ThreadPool pool(2);
  TaskScheduler scheduler(&pool);
  std::atomic<int> total{0};
  scheduler.ParallelFor(8, [&](size_t) {
    scheduler.ParallelFor(8, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(TaskSchedulerTest, PropagatesTheFirstException) {
  ThreadPool pool(4);
  TaskScheduler scheduler(&pool);
  EXPECT_THROW(scheduler.ParallelFor(100,
                                     [&](size_t i) {
                                       if (i == 37) {
                                         throw std::runtime_error("boom");
                                       }
                                     }),
               std::runtime_error);
}

// --- CubeEvaluator factory ------------------------------------------------

TEST(CubeEvaluatorTest, FactoryCoversEveryAlgorithm) {
  for (EvalAlgorithm algo :
       {EvalAlgorithm::kMvdCube, EvalAlgorithm::kPgCubeStar,
        EvalAlgorithm::kPgCubeDistinct, EvalAlgorithm::kArrayCube}) {
    CubeEvalOptions options;
    options.algorithm = algo;
    auto evaluator = MakeCubeEvaluator(options);
    ASSERT_NE(evaluator, nullptr);
    EXPECT_STREQ(evaluator->name(), EvalAlgorithmName(algo));
  }
}

// --- Pipeline determinism across thread counts ----------------------------

SpadeOptions BaseOptions() {
  SpadeOptions options;
  options.cfs.min_size = 20;
  options.enumeration.max_dims = 3;
  options.enumeration.max_lattices_per_cfs = 8;
  options.enumeration.max_measures_per_lattice = 3;
  options.top_k = 8;
  return options;
}

struct RunOutcome {
  std::vector<Insight> insights;
  SpadeReport report;
};

RunOutcome RunPipeline(Graph* graph, SpadeOptions options, size_t threads) {
  options.num_threads = threads;
  Spade spade(graph, options);
  EXPECT_TRUE(spade.RunOffline().ok());
  auto insights = spade.RunOnline();
  EXPECT_TRUE(insights.ok()) << insights.status().ToString();
  return RunOutcome{std::move(*insights), spade.report()};
}

/// Bit-identical comparison of a parallel run against the serial baseline:
/// same top-k keys, scores (exact doubles), group counts, stored groups,
/// and the same evaluated / reused / pruned aggregate counts.
void ExpectIdentical(const RunOutcome& serial, const RunOutcome& parallel,
                     size_t threads) {
  SCOPED_TRACE("num_threads = " + std::to_string(threads));
  EXPECT_EQ(serial.report.num_cfs, parallel.report.num_cfs);
  EXPECT_EQ(serial.report.num_lattices, parallel.report.num_lattices);
  EXPECT_EQ(serial.report.num_candidate_aggregates,
            parallel.report.num_candidate_aggregates);
  EXPECT_EQ(serial.report.num_evaluated_aggregates,
            parallel.report.num_evaluated_aggregates);
  EXPECT_EQ(serial.report.num_reused_aggregates,
            parallel.report.num_reused_aggregates);
  EXPECT_EQ(serial.report.num_pruned_aggregates,
            parallel.report.num_pruned_aggregates);

  ASSERT_EQ(serial.insights.size(), parallel.insights.size());
  for (size_t i = 0; i < serial.insights.size(); ++i) {
    const Arm::Ranked& a = serial.insights[i].ranked;
    const Arm::Ranked& b = parallel.insights[i].ranked;
    EXPECT_TRUE(a.key == b.key) << "insight " << i;
    EXPECT_EQ(a.score, b.score) << "insight " << i;  // exact, not approximate
    EXPECT_EQ(a.num_groups, b.num_groups) << "insight " << i;
    ASSERT_EQ(a.groups.size(), b.groups.size()) << "insight " << i;
    for (size_t g = 0; g < a.groups.size(); ++g) {
      EXPECT_EQ(a.groups[g].dim_values, b.groups[g].dim_values);
      EXPECT_EQ(a.groups[g].value, b.groups[g].value);
    }
    EXPECT_EQ(serial.insights[i].cfs_name, parallel.insights[i].cfs_name);
    EXPECT_EQ(serial.insights[i].description, parallel.insights[i].description);
    EXPECT_EQ(serial.insights[i].sparql, parallel.insights[i].sparql);
  }
}

void CheckDeterminism(const std::function<std::unique_ptr<Graph>()>& make_graph,
                      SpadeOptions options) {
  auto baseline_graph = make_graph();
  RunOutcome serial = RunPipeline(baseline_graph.get(), options, 1);
  EXPECT_FALSE(serial.insights.empty());
  for (size_t threads : {2u, 4u, 8u}) {
    auto graph = make_graph();
    RunOutcome parallel = RunPipeline(graph.get(), options, threads);
    ExpectIdentical(serial, parallel, threads);
  }
}

TEST(ParallelPipelineTest, CeosDeterministicAcrossThreadCounts) {
  CheckDeterminism([] { return GenerateCeos(42, 0.25); }, BaseOptions());
}

TEST(ParallelPipelineTest, SyntheticDeterministicAcrossThreadCounts) {
  SyntheticOptions sopts;
  sopts.num_facts = 4000;
  sopts.dim_cardinality = {40, 25, 12};
  sopts.num_measures = 3;
  sopts.sparsity = 0.15;
  CheckDeterminism([&] { return GenerateSynthetic(sopts); }, BaseOptions());
}

TEST(ParallelPipelineTest, EarlyStopDeterministicAcrossThreadCounts) {
  SpadeOptions options = BaseOptions();
  options.enable_earlystop = true;
  options.earlystop.sample_size = 60;
  options.earlystop.num_batches = 2;
  CheckDeterminism([] { return GenerateCeos(7, 0.25); }, options);
}

TEST(ParallelPipelineTest, PgCubeDeterministicAcrossThreadCounts) {
  SpadeOptions options = BaseOptions();
  options.algorithm = EvalAlgorithm::kPgCubeStar;
  CheckDeterminism([] { return GenerateCeos(42, 0.2); }, options);
}

TEST(ParallelPipelineTest, ArrayCubeRunsEndToEnd) {
  SpadeOptions options = BaseOptions();
  options.algorithm = EvalAlgorithm::kArrayCube;
  CheckDeterminism([] { return GenerateCeos(42, 0.2); }, options);
}

TEST(ParallelPipelineTest, ZeroMeansHardwareConcurrency) {
  auto graph = GenerateCeos(42, 0.15);
  RunOutcome out = RunPipeline(graph.get(), BaseOptions(), 0);
  EXPECT_EQ(out.report.num_threads_used, ThreadPool::HardwareConcurrency());
  EXPECT_FALSE(out.insights.empty());
}

// --- Within-CFS sharding --------------------------------------------------

TEST(ShardedEvaluatorTest, FactoryDispatchesOnShardsAlgorithmAndEarlyStop) {
  CubeEvalOptions options;
  options.num_shards = 4;
  EXPECT_STREQ(MakeCubeEvaluator(options)->name(), "MVDCube/sharded");
  // Early-stop falls back: its reservoir RNG stream is sequential.
  options.enable_earlystop = true;
  EXPECT_STREQ(MakeCubeEvaluator(options)->name(), "MVDCube");
  options.enable_earlystop = false;
  options.num_shards = 1;
  EXPECT_STREQ(MakeCubeEvaluator(options)->name(), "MVDCube");
  options.num_shards = 4;
  options.algorithm = EvalAlgorithm::kPgCubeStar;
  EXPECT_STREQ(MakeCubeEvaluator(options)->name(), "PGCube*");
}

// The exactness core of the sharded path: translating ascending disjoint
// fact ranges and merging in shard order reproduces the unsharded
// translation bit for bit — partition vectors, root-group counts, counters.
TEST(ShardedEvaluatorTest, MergedShardTranslationsEqualUnsharded) {
  // Two dimensions over 7 facts: multi-valued, missing, and single values.
  std::vector<DimensionEncoding> dims(2);
  dims[0].values = {100, 101, 102};  // domain 3 (+null)
  dims[0].fact_codes = {{0}, {1, 2}, {}, {0, 1}, {2}, {1}, {0}};
  dims[1].values = {200, 201, 202, 203};  // domain 4 (+null)
  dims[1].fact_codes = {{3}, {0}, {1, 2}, {}, {0, 3}, {2}, {}};
  for (auto& d : dims) {
    for (const auto& codes : d.fact_codes) {
      if (codes.size() >= 2) ++d.num_multi_facts;
    }
  }
  Mmst mmst = Mmst::Build({4, 5}, 2);

  TranslationOptions topt;
  Translation full = TranslateData(dims, mmst.layout(), topt);

  for (size_t k : {1u, 2u, 3u, 4u, 8u}) {
    SCOPED_TRACE("num_shards = " + std::to_string(k));
    std::vector<Translation> partials;
    for (const FactRange& r : MakeFactShards(7, k)) {
      TranslationOptions shard_opt;
      shard_opt.fact_begin = r.begin;
      shard_opt.fact_end = r.end;
      partials.push_back(TranslateData(dims, mmst.layout(), shard_opt));
    }
    Translation merged = MergeShardTranslations(std::move(partials));
    ASSERT_EQ(merged.partitions.size(), full.partitions.size());
    for (size_t p = 0; p < full.partitions.size(); ++p) {
      EXPECT_EQ(merged.partitions[p], full.partitions[p]) << "partition " << p;
    }
    EXPECT_EQ(merged.root_group_count.size(), full.root_group_count.size());
    for (const auto& [cell, count] : full.root_group_count) {
      auto it = merged.root_group_count.find(cell);
      ASSERT_NE(it, merged.root_group_count.end());
      EXPECT_EQ(it->second, count);
    }
    EXPECT_EQ(merged.num_facts_translated, full.num_facts_translated);
    EXPECT_EQ(merged.num_dropped_combos, full.num_dropped_combos);
  }
}

// The acceptance contract of within-CFS sharding: bit-identical top-k
// insights for sharded vs unsharded evaluation at every (shards, threads)
// combination — same keys, exact double scores, same group tuples.
TEST(ShardedPipelineTest, BitIdenticalToUnshardedAcrossShardAndThreadCounts) {
  auto make_graph = [] { return GenerateCeos(42, 0.25); };
  SpadeOptions options = BaseOptions();
  options.num_shards = 1;  // the unsharded baseline, serial
  auto baseline_graph = make_graph();
  RunOutcome unsharded = RunPipeline(baseline_graph.get(), options, 1);
  EXPECT_FALSE(unsharded.insights.empty());
  for (size_t shards : {1u, 2u, 4u}) {
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE("num_shards = " + std::to_string(shards));
      options.num_shards = shards;
      auto graph = make_graph();
      RunOutcome sharded = RunPipeline(graph.get(), options, threads);
      EXPECT_EQ(sharded.report.num_shards_used, shards);
      ExpectIdentical(unsharded, sharded, threads);
    }
  }
}

// Same contract on a synthetic workload dense in multi-valued dimensions
// (the case where per-fact combination explosion and the per-fact cap must
// shard without drift).
TEST(ShardedPipelineTest, SyntheticBitIdenticalToUnsharded) {
  SyntheticOptions sopts;
  sopts.num_facts = 3000;
  sopts.dim_cardinality = {30, 20, 10};
  sopts.num_measures = 2;
  sopts.sparsity = 0.2;
  auto make_graph = [&] { return GenerateSynthetic(sopts); };
  SpadeOptions options = BaseOptions();
  options.num_shards = 1;
  auto baseline_graph = make_graph();
  RunOutcome unsharded = RunPipeline(baseline_graph.get(), options, 1);
  EXPECT_FALSE(unsharded.insights.empty());
  for (size_t shards : {2u, 4u}) {
    SCOPED_TRACE("num_shards = " + std::to_string(shards));
    options.num_shards = shards;
    auto graph = make_graph();
    RunOutcome sharded = RunPipeline(graph.get(), options, 4);
    ExpectIdentical(unsharded, sharded, 4);
  }
}

TEST(ShardedPipelineTest, AutoShardsFollowResolvedThreads) {
  auto graph = GenerateCeos(42, 0.15);
  SpadeOptions options = BaseOptions();
  options.num_shards = 0;  // auto: one shard per worker thread
  RunOutcome out = RunPipeline(graph.get(), options, 4);
  EXPECT_EQ(out.report.num_shards_used, 4u);
  // Per-CFS shard fact counts were recorded and sum to the total facts the
  // sharded evaluations covered.
  EXPECT_EQ(out.report.shard_fact_counts.size(), 4u);
  EXPECT_FALSE(out.insights.empty());
}

// --- Partition-parallel lattice computation -------------------------------

// The acceptance contract of the parallel lattice: bit-identical top-k
// insights across every (threads, shards, simd) combination — the lattice
// worker count follows the resolved thread count, so this matrix exercises
// lattice workers {1, 2, 4, 8} x shards {1, 2, 4} x fold kernel
// {dispatched, forced-scalar}. partition_chunk = 2 forces many partitions
// per lattice, so multi-slice runs really happen (the default chunk of 16
// often leaves small lattices with a single partition). The serial baseline
// runs with the scalar kernel, so on AVX2/NEON hosts every 'auto' run is a
// genuine scalar-vs-vector bit comparison.
TEST(LatticeParallelPipelineTest, ManyPartitionsBitIdenticalAcrossWorkersShardsAndSimd) {
  SyntheticOptions sopts;
  sopts.num_facts = 3000;
  sopts.dim_cardinality = {40, 25, 12};
  sopts.num_measures = 2;
  sopts.sparsity = 0.15;
  auto make_graph = [&] { return GenerateSynthetic(sopts); };
  SpadeOptions options = BaseOptions();
  options.mvd.partition_chunk = 2;
  options.num_shards = 1;
  options.mvd.simd = simd::SimdMode::kScalar;
  auto baseline_graph = make_graph();
  RunOutcome serial = RunPipeline(baseline_graph.get(), options, 1);
  EXPECT_FALSE(serial.insights.empty());
  for (simd::SimdMode mode : {simd::SimdMode::kAuto, simd::SimdMode::kScalar}) {
    for (size_t shards : {1u, 2u, 4u}) {
      for (size_t threads : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(std::string("simd = ") + simd::SimdModeName(mode) +
                     ", num_shards = " + std::to_string(shards));
        options.mvd.simd = mode;
        options.num_shards = shards;
        auto graph = make_graph();
        RunOutcome parallel = RunPipeline(graph.get(), options, threads);
        ExpectIdentical(serial, parallel, threads);
        EXPECT_GE(parallel.report.lattice_workers_used, 1u);
        EXPECT_LE(parallel.report.lattice_workers_used, threads);
      }
    }
  }
}

// Early-stop shares the parallel lattice path (pruning only shrinks the
// wanted-node set); its determinism contract must survive at many
// partitions too.
TEST(LatticeParallelPipelineTest, EarlyStopManyPartitionsDeterministic) {
  SpadeOptions options = BaseOptions();
  options.mvd.partition_chunk = 2;
  options.enable_earlystop = true;
  options.earlystop.sample_size = 60;
  options.earlystop.num_batches = 2;
  CheckDeterminism([] { return GenerateCeos(7, 0.25); }, options);
}

TEST(LatticeParallelPipelineTest, LatticeStatsReported) {
  auto graph = GenerateCeos(42, 0.25);
  SpadeOptions options = BaseOptions();
  options.mvd.partition_chunk = 2;
  RunOutcome out = RunPipeline(graph.get(), options, 4);
  ASSERT_FALSE(out.insights.empty());
  // MVDCube ran: the parallel lattice protocol reports its slice count and
  // the partial-cell high-water mark (>= one cell per emitted group of the
  // largest lattice).
  EXPECT_GE(out.report.lattice_workers_used, 1u);
  EXPECT_LE(out.report.lattice_workers_used, 4u);
  EXPECT_GT(out.report.lattice_peak_partial_cells, 0u);
  EXPECT_GE(out.report.lattice_wall_ms, 0.0);
  EXPECT_GE(out.report.lattice_work_ms, 0.0);
}

// --- ARM stream vs bitmap-free reference -----------------------------------

// The bitmap engine must be invisible in the results: the exact sequence of
// (key, group, value) tuples MVDCube streams into the ARM has to match an
// implementation that never touches RoaringBitmap — std::set cells run
// through the same canonical ParallelLatticeRun protocol and the same
// measure fold. This pins the ARM stream across bitmap-layer rewrites
// (ordered append, run containers, inline sets, batched decode), at every
// lattice worker count.

struct SetRefCell {
  std::set<uint32_t> facts;
  bool Empty() const { return facts.empty(); }
};

void EvaluateLatticeWithSetCells(const AttributeStore& db, uint32_t cfs_id,
                                 const CfsIndex& cfs, const LatticeSpec& spec,
                                 int partition_chunk, Arm* arm) {
  std::vector<DimensionEncoding> encodings;
  Mmst mmst = BuildMmstForSpec(db, cfs, spec, &encodings, partition_chunk);
  Translation tr =
      TranslateData(encodings, mmst.layout(), TranslationOptions());
  size_t n = spec.dims.size();
  std::vector<MeasureVector> loaded(spec.measures.size());
  for (size_t m = 0; m < spec.measures.size(); ++m) {
    if (!spec.measures[m].is_count_star()) {
      loaded[m] = BuildMeasureVector(db, cfs, spec.measures[m].attr);
    }
  }
  size_t num_nodes = size_t{1} << n;
  std::vector<std::vector<std::pair<size_t, Arm::Handle>>> node_mdas(num_nodes);
  for (uint32_t mask = 0; mask < num_nodes; ++mask) {
    std::vector<AttrId> dims;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) dims.push_back(spec.dims[i]);
    }
    for (size_t m = 0; m < spec.measures.size(); ++m) {
      AggregateKey key;
      key.cfs_id = cfs_id;
      key.dims = dims;
      key.measure = spec.measures[m];
      node_mdas[mask].push_back({m, arm->Register(key)});
    }
  }
  auto load = [](SetRefCell* cell, FactId fact) { cell->facts.insert(fact); };
  auto merge = [](SetRefCell* dst, const SetRefCell& src) {
    dst->facts.insert(src.facts.begin(), src.facts.end());
  };
  auto keep = [&](uint32_t mask, Span<int32_t> coords) {
    for (size_t d = 0; d < n; ++d) {
      if ((mask & (1u << d)) && coords[d] >= encodings[d].null_code()) {
        return false;
      }
    }
    return true;
  };
  using Acc = simd::FoldResult;
  std::vector<TermId> dim_values;
  auto emit = [&](uint32_t mask, Span<int32_t> coords, SetRefCell& cell) {
    dim_values.clear();
    for (size_t d = 0; d < n; ++d) {
      if (!(mask & (1u << d))) continue;
      dim_values.push_back(encodings[d].values[coords[d]]);
    }
    // std::set iterates ascending — the same span the bitmap decodes. The
    // fold goes through the (portable) scalar kernel: the engine's fixed
    // lane-strided fold order IS the spec now, and the engine must hit it
    // bit-exactly from set cells at every worker/shard/simd configuration.
    std::vector<uint32_t> span(cell.facts.begin(), cell.facts.end());
    std::vector<Acc> accs(spec.measures.size());
    simd::FoldAcc lanes;
    for (size_t m = 0; m < spec.measures.size(); ++m) {
      if (spec.measures[m].is_count_star()) continue;
      const MeasureVector& mv = loaded[m];
      lanes.Reset();
      simd::FoldMeasureScalar(span.data(), span.size(), mv.count.data(),
                              mv.sum.data(), mv.min.data(), mv.max.data(),
                              &lanes);
      accs[m] = simd::Reduce(lanes);
    }
    for (const auto& [m, handle] : node_mdas[mask]) {
      const MeasureSpec& ms = spec.measures[m];
      double value = 0;
      if (ms.is_count_star()) {
        value = static_cast<double>(cell.facts.size());
      } else {
        const Acc& acc = accs[m];
        if (acc.count == 0) continue;
        switch (ms.func) {
          case sparql::AggFunc::kCount:
            value = acc.count;
            break;
          case sparql::AggFunc::kSum:
            value = acc.sum;
            break;
          case sparql::AggFunc::kAvg:
            value = acc.sum / acc.count;
            break;
          case sparql::AggFunc::kMin:
            value = acc.min;
            break;
          case sparql::AggFunc::kMax:
            value = acc.max;
            break;
        }
      }
      arm->AddGroup(handle, dim_values, value);
    }
  };
  std::vector<bool> wanted(num_nodes, true);
  ParallelLatticeRun<SetRefCell>(mmst, tr, &wanted, /*num_workers=*/1,
                                 /*scheduler=*/nullptr, load, merge, keep,
                                 emit, nullptr);
}

void ExpectSameArmStream(const Arm& expected, const Arm& got) {
  ASSERT_EQ(expected.num_aggregates(), got.num_aggregates());
  for (Arm::Handle h = 0; h < expected.num_aggregates(); ++h) {
    SCOPED_TRACE("handle " + std::to_string(h));
    EXPECT_TRUE(expected.key(h) == got.key(h));
    ASSERT_EQ(expected.num_groups(h), got.num_groups(h));
    EXPECT_EQ(expected.Score(h, InterestingnessKind::kVariance),
              got.Score(h, InterestingnessKind::kVariance));  // exact doubles
    const std::vector<GroupResult>& ge = expected.stored_groups(h);
    const std::vector<GroupResult>& gg = got.stored_groups(h);
    ASSERT_EQ(ge.size(), gg.size());
    for (size_t g = 0; g < ge.size(); ++g) {
      EXPECT_EQ(ge[g].dim_values, gg[g].dim_values);
      EXPECT_EQ(ge[g].value, gg[g].value);  // exact, not approximate
    }
  }
}

TEST(ArmStreamTest, BitmapEngineMatchesSetCellReferenceAtEveryWorkerCount) {
  SyntheticOptions sopts;
  sopts.num_facts = 3000;
  sopts.dim_cardinality = {25, 12, 8};
  sopts.num_measures = 2;
  sopts.multi_valued_dims = {0, 1};
  sopts.multi_value_prob = 0.3;
  sopts.sparsity = 0.15;
  auto graph = GenerateSynthetic(sopts);
  AttributeStore db(graph.get());
  db.BuildDirectAttributes();
  TermId type = graph->dict().InternIri(synth::kFactType);
  CfsIndex cfs(graph->NodesOfType(type));

  LatticeSpec spec;
  for (int d = 0; d < 3; ++d) {
    spec.dims.push_back(*db.FindAttribute("dim" + std::to_string(d)));
  }
  std::sort(spec.dims.begin(), spec.dims.end());
  spec.measures.push_back(MeasureSpec{});  // count(*)
  AttrId m0 = *db.FindAttribute("measure0");
  AttrId m1 = *db.FindAttribute("measure1");
  spec.measures.push_back(MeasureSpec{m0, sparql::AggFunc::kSum});
  spec.measures.push_back(MeasureSpec{m0, sparql::AggFunc::kAvg});
  spec.measures.push_back(MeasureSpec{m1, sparql::AggFunc::kMin});
  spec.measures.push_back(MeasureSpec{m1, sparql::AggFunc::kMax});

  constexpr size_t kStoreAll = 1u << 20;
  constexpr int kChunk = 2;  // many partitions: real multi-slice runs
  Arm reference(kStoreAll);
  EvaluateLatticeWithSetCells(db, 0, cfs, spec, kChunk, &reference);
  ASSERT_GT(reference.num_aggregates(), 0u);

  MvdCubeOptions options;
  options.partition_chunk = kChunk;
  // simd axis: the reference folded through the scalar kernel, so the kAuto
  // leg pins the dispatched vector kernel (AVX2 here, NEON on ARM) to the
  // exact same bits — the no-tolerance scalar-vs-SIMD contract, end to end.
  for (simd::SimdMode mode : {simd::SimdMode::kScalar, simd::SimdMode::kAuto}) {
    for (size_t workers : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(std::string("simd = ") + simd::SimdModeName(mode) +
                   ", workers = " + std::to_string(workers));
      options.simd = mode;
      ThreadPool pool(workers);
      TaskScheduler scheduler(&pool);
      Arm arm(kStoreAll);
      MeasureCache measures;
      EvaluateLatticeMvd(db, 0, cfs, spec, options, &arm, &measures,
                         /*pruned=*/nullptr, /*pre_translated=*/nullptr,
                         /*pre_built=*/nullptr, /*pre_encodings=*/nullptr,
                         &scheduler, workers);
      ExpectSameArmStream(reference, arm);
    }
  }
}

// --- Arm::Absorb ----------------------------------------------------------

TEST(ArmAbsorbTest, MovesEntriesAndKeepsFirstWriter) {
  Arm target(8);
  Arm shard(8);
  AggregateKey k1{0, {1}, MeasureSpec{}};
  AggregateKey k2{1, {2}, MeasureSpec{}};
  Arm::Handle h1 = target.Register(k1);
  target.AddGroup(h1, {10}, 1.0);
  Arm::Handle h2 = shard.Register(k2);
  shard.AddGroup(h2, {20}, 2.0);
  // Duplicate of k1 in the shard: the target's entry must win.
  Arm::Handle dup = shard.Register(k1);
  shard.AddGroup(dup, {30}, 99.0);

  target.Absorb(std::move(shard));
  EXPECT_EQ(target.num_aggregates(), 2u);
  Arm::Handle f1 = target.Find(k1);
  ASSERT_NE(f1, Arm::kInvalidHandle);
  ASSERT_EQ(target.stored_groups(f1).size(), 1u);
  EXPECT_EQ(target.stored_groups(f1)[0].value, 1.0);
  EXPECT_NE(target.Find(k2), Arm::kInvalidHandle);
}

}  // namespace
}  // namespace spade
