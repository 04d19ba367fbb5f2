// Tests of the execution layer: ThreadPool / TaskScheduler / TaskGroup
// semantics, the CubeEvaluator factory, and — the contract the parallel
// pipeline stands on — bit-identical results at every thread count.

#include "src/exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
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

// --- TaskGroup --------------------------------------------------------------

/// Rethrows what `group.Wait()` throws as its message ("" if nothing).
std::string WaitError(TaskGroup* group) {
  try {
    group->Wait();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(TaskGroupTest, WaitRethrowsTheFirstErrorAfterEveryTaskFinished) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    std::atomic<int> finished{0};
    std::unique_ptr<ThreadPool> pool = MakeWorkerPool(threads);
    TaskScheduler scheduler(pool.get());
    TaskGroup group(&scheduler);
    group.Run([] { throw std::runtime_error("first"); });
    group.WaitPendingBelow(1);  // the first error is captured before the rest
    for (int i = 0; i < 16; ++i) {
      group.Run([&finished, i] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        finished.fetch_add(1);
        if (i % 4 == 0) throw std::runtime_error("later");
      });
    }
    EXPECT_EQ(WaitError(&group), "first");
    EXPECT_EQ(finished.load(), 16);  // Wait() returned only after all of them
    EXPECT_EQ(WaitError(&group), "");  // the error is handed out once
  }
}

TEST(TaskGroupTest, WaitPendingBelowReturnsWithFewerThanCapPending) {
  // Tasks block until the test hands out tokens. With five tokens exactly
  // five of eight tasks can finish, which leaves three pending: below a cap
  // of four, so WaitPendingBelow(4) returns, and no task beyond those five
  // can have finished when it does.
  constexpr int kTasks = 8;
  std::mutex mu;
  std::condition_variable cv;
  int tokens = 0;  // guarded by mu
  std::atomic<int> finished{0};
  std::unique_ptr<ThreadPool> pool = MakeWorkerPool(4);
  TaskScheduler scheduler(pool.get());
  TaskGroup group(&scheduler);
  for (int i = 0; i < kTasks; ++i) {
    group.Run([&] {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return tokens > 0; });
      --tokens;
      finished.fetch_add(1);
    });
  }
  auto release = [&](int n) {
    {
      std::lock_guard<std::mutex> lock(mu);
      tokens += n;
    }
    cv.notify_all();
  };
  release(5);
  group.WaitPendingBelow(4);
  EXPECT_EQ(finished.load(), 5);
  release(kTasks - 5);
  group.Wait();
  EXPECT_EQ(finished.load(), kTasks);
}

TEST(TaskGroupTest, SerialRunExecutesInlineWithTheSameErrorContract) {
  TaskScheduler serial(nullptr);
  TaskGroup group(&serial);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  group.Run([&] {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(1);
  });
  EXPECT_EQ(order, (std::vector<int>{1}));  // ran before Run() returned
  // A throwing task is captured, not propagated, and later tasks still run.
  EXPECT_NO_THROW(group.Run([] { throw std::runtime_error("first"); }));
  EXPECT_NO_THROW(group.Run([] { throw std::runtime_error("second"); }));
  group.Run([&] { order.push_back(2); });
  group.WaitPendingBelow(1);  // nothing is ever pending: returns at once
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(WaitError(&group), "first");
  EXPECT_EQ(WaitError(&group), "");
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

TEST(ShardedEvaluatorTest, OneMvdCubeEvaluatorAtEveryShardCount) {
  CubeEvalOptions options;
  for (size_t shards : {1u, 4u}) {
    for (bool earlystop : {false, true}) {
      options.num_shards = shards;
      options.enable_earlystop = earlystop;
      EXPECT_STREQ(MakeCubeEvaluator(options)->name(), "MVDCube");
    }
  }
  options.algorithm = EvalAlgorithm::kPgCubeStar;
  EXPECT_STREQ(MakeCubeEvaluator(options)->name(), "PGCube*");
}

// The exactness core of the fact-range split: PrepareLattices translates
// ascending disjoint ranges and copies each into its place in pre-sized
// partitions, which must reproduce the one-range translation bit for bit at
// every range and thread count. Two dimensions over 7 facts: multi-valued,
// missing, and single values.
TEST(ShardedEvaluatorTest, PreparedTranslationEqualsOneRangeTranslation) {
  const std::vector<std::vector<std::vector<int>>> codes = {
      {{0}, {1, 2}, {}, {0, 1}, {2}, {1}, {0}},   // dim 0: domain 3 (+null)
      {{3}, {0}, {1, 2}, {}, {0, 3}, {2}, {}}};  // dim 1: domain 4 (+null)
  Graph g;
  Dictionary& dict = g.dict();
  std::vector<TermId> facts;
  for (int f = 0; f < 7; ++f) {
    facts.push_back(dict.InternIri("http://x/f" + std::to_string(f)));
  }
  auto value = [&](size_t d, int c) {
    return dict.InternString("d" + std::to_string(d) + "v" + std::to_string(c));
  };
  // Interned in code order, so each dimension's sorted term ids are its codes.
  for (size_t d = 0; d < codes.size(); ++d) {
    for (int c = 0; c < 4; ++c) value(d, c);
  }
  for (size_t d = 0; d < codes.size(); ++d) {
    TermId property = dict.InternIri("http://x/d" + std::to_string(d));
    for (size_t f = 0; f < facts.size(); ++f) {
      for (int c : codes[d][f]) g.Add(facts[f], property, value(d, c));
    }
  }
  g.Freeze();
  AttributeStore db(&g);
  db.BuildDirectAttributes();
  CfsIndex cfs(facts);
  LatticeSpec spec;
  spec.dims = {*db.FindAttribute("d0"), *db.FindAttribute("d1")};
  spec.measures = {MeasureSpec{}};
  MvdCubeOptions options;
  options.partition_chunk = 2;

  MeasureCache one_cache;
  std::vector<PreparedLattice> one =
      PrepareLattices(db, cfs, {spec}, options, &one_cache);
  // The store reproduces the fixture: the same code lists per fact.
  ASSERT_EQ(one[0].encodings.size(), 2u);
  for (size_t d = 0; d < codes.size(); ++d) {
    for (size_t f = 0; f < facts.size(); ++f) {
      EXPECT_EQ(one[0].encodings[d].fact_codes[f],
                std::vector<int32_t>(codes[d][f].begin(), codes[d][f].end()));
    }
  }
  const Translation full = TranslateData(
      one[0].encodings, one[0].mmst.layout(), TranslationOptions());
  ASSERT_EQ(full.partitions.size(), 6u);  // extents {4, 5}: 2 x 3 chunks of 2

  for (size_t threads : {1u, 4u}) {
    ThreadPool pool(threads - 1);
    TaskScheduler scheduler(&pool);
    for (size_t ranges : {1u, 2u, 3u, 4u, 8u}) {
      SCOPED_TRACE("ranges = " + std::to_string(ranges) +
                   ", threads = " + std::to_string(threads));
      MeasureCache cache;
      std::vector<PreparedLattice> prepared = PrepareLattices(
          db, cfs, {spec}, options, &cache, &scheduler, ranges);
      const Translation& got = prepared[0].translation;
      ASSERT_EQ(got.partitions.size(), full.partitions.size());
      for (size_t p = 0; p < full.partitions.size(); ++p) {
        EXPECT_EQ(got.partitions[p], full.partitions[p]) << "partition " << p;
      }
      EXPECT_EQ(got.num_facts_translated, full.num_facts_translated);
      EXPECT_EQ(got.num_dropped_combos, full.num_dropped_combos);
      EXPECT_TRUE(got.root_group_count.empty());  // filled only to sample
    }
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
// insights across every (threads, shards) combination — the lattice worker
// count follows the resolved thread count, so this matrix exercises lattice
// workers {1, 2, 4, 8} x shards {1, 2, 4}. partition_chunk = 2 forces many
// partitions per lattice, so multi-slice runs really happen (the default
// chunk of 16 often leaves small lattices with a single partition).
TEST(LatticeParallelPipelineTest, ManyPartitionsBitIdenticalAcrossWorkersAndShards) {
  SyntheticOptions sopts;
  sopts.num_facts = 3000;
  sopts.dim_cardinality = {40, 25, 12};
  sopts.num_measures = 2;
  sopts.sparsity = 0.15;
  auto make_graph = [&] { return GenerateSynthetic(sopts); };
  SpadeOptions options = BaseOptions();
  options.mvd.partition_chunk = 2;
  options.num_shards = 1;
  auto baseline_graph = make_graph();
  RunOutcome serial = RunPipeline(baseline_graph.get(), options, 1);
  EXPECT_FALSE(serial.insights.empty());
  for (size_t shards : {1u, 2u, 4u}) {
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE("num_shards = " + std::to_string(shards));
      options.num_shards = shards;
      auto graph = make_graph();
      RunOutcome parallel = RunPipeline(graph.get(), options, threads);
      ExpectIdentical(serial, parallel, threads);
      EXPECT_GE(parallel.report.lattice_workers_used, 1u);
      EXPECT_LE(parallel.report.lattice_workers_used, threads);
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
// (group, value) tuples MVDCube streams into each ARM entry has to match an
// implementation that never touches RoaringBitmap — std::set cells run
// through the same canonical ParallelLatticeRun protocol and the same
// measure fold, fed into the ARM by one serial walk of the canonical
// lists. This pins the ARM stream across bitmap-layer rewrites (ordered
// append, run containers, inline sets, batched decode) and across the
// engine's per-(node, measure column) emit fan-out, at every lattice worker
// count.

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
  std::vector<TermId> dim_values;
  auto emit = [&](uint32_t mask, Span<int32_t> coords, const SetRefCell& cell) {
    dim_values.clear();
    for (size_t d = 0; d < n; ++d) {
      if (!(mask & (1u << d))) continue;
      dim_values.push_back(encodings[d].values[coords[d]]);
    }
    // std::set iterates ascending — the same span the bitmap decodes. The
    // fold's fixed lane-strided order is the spec, and the engine must hit
    // it bit-exactly from set cells at every worker/shard configuration.
    std::vector<uint32_t> span(cell.facts.begin(), cell.facts.end());
    std::vector<FoldResult> accs(spec.measures.size());
    for (size_t m = 0; m < spec.measures.size(); ++m) {
      if (spec.measures[m].is_count_star()) continue;
      accs[m] = FoldMeasure(span, loaded[m]);
    }
    for (const auto& [m, handle] : node_mdas[mask]) {
      const MeasureSpec& ms = spec.measures[m];
      double value = 0;
      if (ms.is_count_star()) {
        value = static_cast<double>(cell.facts.size());
      } else {
        const FoldResult& acc = accs[m];
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
  std::vector<NodeGroups<SetRefCell>> lists = ParallelLatticeRun<SetRefCell>(
      mmst, tr, &wanted, /*num_workers=*/1, /*scheduler=*/nullptr, load, merge,
      keep);
  // One serial walk in canonical order: node mask ascending, list order.
  std::vector<int32_t> coords(n);
  for (uint32_t mask = 0; mask < num_nodes; ++mask) {
    for (const auto& [cell_id, cell] : lists[mask]) {
      UnpackCellMaskedInto(mmst.layout(), mask, cell_id, coords.data());
      emit(mask, Span<int32_t>(coords.data(), n), cell);
    }
  }
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
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("workers = " + std::to_string(workers));
    ThreadPool pool(workers);
    TaskScheduler scheduler(&pool);
    Arm arm(kStoreAll);
    MeasureCache measures;
    // Prepared over as many fact ranges as there are workers, as the
    // pipeline's auto range count does.
    std::vector<PreparedLattice> prepared = PrepareLattices(
        db, cfs, {spec}, options, &measures, &scheduler, workers);
    EvaluateLatticeMvd(0, spec, prepared[0], measures, options, &arm,
                       /*pruned=*/nullptr, &scheduler, workers);
    ExpectSameArmStream(reference, arm);
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
