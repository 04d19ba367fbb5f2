// Cooperative cancellation, deadlines and resource budgets: a cancelled or
// budget-limited run must return a canonical-order prefix of the full result
// stream — bit-identical at every thread and shard count — and mark itself
// truncated with the right reason, while the pipeline object stays usable.

#include "src/util/cancel.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/spade.h"
#include "src/datagen/synthetic.h"
#include "src/exec/thread_pool.h"
#include "src/util/timer.h"

namespace spade {
namespace {

SyntheticOptions MediumCorpus() {
  SyntheticOptions sopts;
  sopts.num_facts = 4000;
  sopts.dim_cardinality.assign(3, 20);
  sopts.num_measures = 3;
  sopts.num_fact_types = 4;
  return sopts;
}

SpadeOptions BaseOptions() {
  SpadeOptions options;
  options.cfs.min_size = 20;
  options.enumeration.max_dims = 2;
  options.enumeration.max_lattices_per_cfs = 4;
  options.enumeration.max_measures_per_lattice = 2;
  options.top_k = 8;
  return options;
}

/// Flatten an insight list to a comparable fingerprint (keys + exact scores:
/// the determinism contract is bit-identical, not approximately equal).
std::vector<std::pair<AggregateKey, double>> Fingerprint(
    const std::vector<Insight>& insights) {
  std::vector<std::pair<AggregateKey, double>> out;
  out.reserve(insights.size());
  for (const Insight& i : insights) {
    out.emplace_back(i.ranked.key, i.ranked.score);
  }
  return out;
}

TEST(CancelTokenTest, FirstReasonWins) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
  token.Cancel(CancelReason::kDeadline);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
  token.Cancel(CancelReason::kCancelled);  // loses: already cancelled
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
  token.Reset();
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelTokenTest, DeadlineExpiryAndLatch) {
  EXPECT_FALSE(Deadline::Never().expired());
  EXPECT_TRUE(Deadline::After(0).expired());
  EXPECT_TRUE(Deadline::After(-5).expired());
  EXPECT_FALSE(Deadline::After(60000).expired());

  // An expired deadline latches its reason into the token via AbortNow.
  CancelToken token;
  CancelCheck check(&token, Deadline::After(0));
  EXPECT_TRUE(check.AbortNow());
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
  EXPECT_TRUE(check.SkipNewWork());

  // Default-constructed check never fires (the no-cancellation fast path).
  CancelCheck none;
  EXPECT_FALSE(none.AbortNow());
  EXPECT_FALSE(none.SkipNewWork());

  // A budget-cancelled token skips new work but does not abort running work.
  CancelToken budget;
  budget.Cancel(CancelReason::kBudget);
  CancelCheck bcheck(&budget, Deadline::Never());
  EXPECT_FALSE(bcheck.AbortNow());
  EXPECT_TRUE(bcheck.SkipNewWork());
}

TEST(CancelTokenTest, DeadlinesPastTheClockNeverExpireAndNanIsExpired) {
  // The steady clock counts int64 nanoseconds, about 9.2e12 ms: a longer
  // wait (infinity included) never expires instead of wrapping around.
  EXPECT_FALSE(Deadline::After(1e13).expired());
  EXPECT_TRUE(Deadline::After(1e13).never());
  EXPECT_TRUE(Deadline::After(1e300).never());
  EXPECT_TRUE(Deadline::After(std::numeric_limits<double>::infinity()).never());
  // Not above zero, NaN included, is already expired.
  EXPECT_TRUE(Deadline::After(std::nan("")).expired());
  EXPECT_TRUE(
      Deadline::After(-std::numeric_limits<double>::infinity()).expired());
  // A year is an ordinary deadline inside the range.
  const Deadline year = Deadline::After(365.0 * 24 * 3600 * 1000);
  EXPECT_FALSE(year.expired());
  EXPECT_FALSE(year.never());

  // End to end: a pipeline deadline past the clock runs to completion.
  auto graph = GenerateSynthetic(MediumCorpus());
  SpadeOptions options = BaseOptions();
  options.deadline_ms = 1e13;
  Spade spade(graph.get(), options);
  ASSERT_TRUE(spade.RunOffline().ok());
  auto insights = spade.RunOnline();
  ASSERT_TRUE(insights.ok()) << insights.status().ToString();
  EXPECT_FALSE(spade.report().truncated);
  EXPECT_FALSE(insights->empty());
}

TEST(CancelTest, ZeroDeadlineReturnsImmediatelyAndIdenticallyEverywhere) {
  // deadline 0 = already expired: no CFS is admitted, the result is empty
  // and marked truncated(deadline), at every thread x shard combination.
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (size_t shards : {size_t{1}, size_t{4}}) {
      auto graph = GenerateSynthetic(MediumCorpus());
      SpadeOptions options = BaseOptions();
      options.num_threads = threads;
      options.num_shards = shards;
      options.deadline_ms = 0;  // 0 = none at the pipeline level...
      Spade spade(graph.get(), options);
      ASSERT_TRUE(spade.RunOffline().ok());
      ASSERT_TRUE(spade.PrepareFactSets().ok());

      // ...but an explicit request deadline of 0 means "already expired".
      ExploreRequest req;
      req.deadline_ms = 0;
      std::unique_ptr<ThreadPool> pool;
      if (threads > 1) pool = std::make_unique<ThreadPool>(threads - 1);
      TaskScheduler scheduler(pool.get());
      auto outcome = spade.Explore(req, &scheduler);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      EXPECT_TRUE(outcome->truncated);
      EXPECT_EQ(outcome->cancel_reason, CancelReason::kDeadline);
      EXPECT_EQ(outcome->num_cfs_completed, 0u);
      EXPECT_TRUE(outcome->insights.empty());

      // The pipeline object survives and still answers in full.
      ExploreRequest full;
      auto complete = spade.Explore(full, &scheduler);
      ASSERT_TRUE(complete.ok());
      EXPECT_FALSE(complete->truncated);
      EXPECT_FALSE(complete->insights.empty());
    }
  }
}

TEST(CancelTest, PreCancelledTokenYieldsEmptyTruncatedResult) {
  auto graph = GenerateSynthetic(MediumCorpus());
  Spade spade(graph.get(), BaseOptions());
  ASSERT_TRUE(spade.RunOffline().ok());
  ASSERT_TRUE(spade.PrepareFactSets().ok());
  CancelToken token;
  token.Cancel(CancelReason::kCancelled);
  ExploreRequest req;
  req.cancel = &token;
  auto outcome = spade.Explore(req, /*scheduler=*/nullptr);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->truncated);
  EXPECT_EQ(outcome->cancel_reason, CancelReason::kCancelled);
  EXPECT_TRUE(outcome->insights.empty());
}

TEST(CancelTest, BudgetTruncationIsIdenticalAtEveryThreadAndShardCount) {
  // A per-CFS bitmap budget trips at a cut that is a pure function of the
  // canonical group stream (the emit's serial pre-pass computes it, ahead
  // of the per-(node, column) fan-out), and the commit rule absorbs full
  // CFSs in cfs_id order up to the first truncated one — so the whole
  // truncated result, its byte accounting included, is bit-identical
  // across configurations.
  std::vector<std::pair<AggregateKey, double>> reference;
  size_t reference_completed = 0;
  size_t reference_skipped = 0;
  size_t reference_emitted = 0;
  uint64_t reference_peak = 0;
  bool first = true;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    for (size_t shards : {size_t{1}, size_t{4}}) {
      auto graph = GenerateSynthetic(MediumCorpus());
      SpadeOptions options = BaseOptions();
      options.num_threads = threads;
      options.num_shards = shards;
      options.max_bitmap_bytes = 16 * 1024;  // small enough to trip mid-run
      Spade spade(graph.get(), options);
      ASSERT_TRUE(spade.RunOffline().ok());
      auto insights = spade.RunOnline();
      ASSERT_TRUE(insights.ok()) << insights.status().ToString();
      const SpadeReport& report = spade.report();
      EXPECT_TRUE(report.truncated);
      EXPECT_EQ(report.cancel_reason, CancelReason::kBudget);
      EXPECT_GT(report.num_groups_skipped, 0u);
      if (first) {
        reference = Fingerprint(*insights);
        reference_completed = report.num_cfs_completed;
        reference_skipped = report.num_groups_skipped;
        reference_emitted = report.num_groups_emitted;
        reference_peak = report.peak_bitmap_bytes;
        first = false;
        continue;
      }
      EXPECT_EQ(Fingerprint(*insights), reference)
          << threads << " threads, " << shards << " shards";
      EXPECT_EQ(report.num_cfs_completed, reference_completed);
      EXPECT_EQ(report.num_groups_skipped, reference_skipped);
      EXPECT_EQ(report.num_groups_emitted, reference_emitted);
      EXPECT_EQ(report.peak_bitmap_bytes, reference_peak);
    }
  }
}

TEST(CancelTest, ExternalCancelCommitsACanonicalPrefix) {
  // Cancel from another thread mid-run: where the run stops is timing-
  // dependent, but what it commits must be a prefix — the first
  // num_cfs_completed CFSs, whose insights match a fresh full evaluation
  // of exactly those CFSs.
  auto graph = GenerateSynthetic(MediumCorpus());
  SpadeOptions options = BaseOptions();
  options.num_threads = 4;
  CancelToken token;
  options.cancel = &token;
  Spade spade(graph.get(), options);
  ASSERT_TRUE(spade.RunOffline().ok());
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    token.Cancel(CancelReason::kCancelled);
  });
  auto insights = spade.RunOnline();
  canceller.join();
  ASSERT_TRUE(insights.ok()) << insights.status().ToString();
  const SpadeReport& report = spade.report();
  if (!report.truncated) {
    GTEST_SKIP() << "run finished before the cancel landed";
  }
  EXPECT_EQ(report.cancel_reason, CancelReason::kCancelled);
  ASSERT_LE(report.num_cfs_completed, spade.fact_sets().size());

  // Reference: evaluate exactly the committed prefix, uncancelled.
  std::vector<std::string> prefix_names;
  for (size_t i = 0; i < report.num_cfs_completed; ++i) {
    prefix_names.push_back(spade.fact_sets()[i].name);
  }
  auto graph2 = GenerateSynthetic(MediumCorpus());
  SpadeOptions clean = BaseOptions();
  Spade reference(graph2.get(), clean);
  ASSERT_TRUE(reference.RunOffline().ok());
  ASSERT_TRUE(reference.PrepareFactSets().ok());
  ExploreRequest req;
  req.cfs_names = prefix_names;
  if (prefix_names.empty()) {
    EXPECT_TRUE(insights->empty());
    return;
  }
  auto outcome = reference.Explore(req, /*scheduler=*/nullptr);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(Fingerprint(*insights), Fingerprint(outcome->insights));
}

TEST(CancelTest, DeadlineTruncatesWithinABoundedOvershoot) {
  // Loose timing contract: with a deadline well under the uncancelled wall
  // clock, the run must come back truncated(deadline) without running to
  // completion anyway. Generous bounds keep this stable on slow CI machines.
  SyntheticOptions corpus = MediumCorpus();
  corpus.num_facts = 30000;  // heavy enough that the full run takes > 40 ms
  corpus.dim_cardinality.assign(4, 40);
  auto graph = GenerateSynthetic(corpus);
  SpadeOptions options = BaseOptions();
  options.enumeration.max_dims = 3;
  options.enumeration.max_lattices_per_cfs = 12;
  options.num_threads = 2;
  Spade timed(graph.get(), options);
  ASSERT_TRUE(timed.RunOffline().ok());
  Timer wall;
  auto full = timed.RunOnline();
  ASSERT_TRUE(full.ok());
  const double full_ms = wall.ElapsedMillis();
  if (full_ms < 40) {
    GTEST_SKIP() << "corpus evaluates too fast to cut reliably (" << full_ms
                 << " ms)";
  }
  auto graph2 = GenerateSynthetic(corpus);
  SpadeOptions dopt = options;
  dopt.deadline_ms = full_ms / 4;
  Spade spade(graph2.get(), dopt);
  ASSERT_TRUE(spade.RunOffline().ok());
  Timer timer;
  auto insights = spade.RunOnline();
  const double elapsed = timer.ElapsedMillis();
  ASSERT_TRUE(insights.ok()) << insights.status().ToString();
  EXPECT_TRUE(spade.report().truncated);
  EXPECT_EQ(spade.report().cancel_reason, CancelReason::kDeadline);
  // Cooperative, not preemptive: allow slack, but nowhere near a full run.
  EXPECT_LT(elapsed, full_ms * 0.9) << "deadline did not cut the run short";
}

}  // namespace
}  // namespace spade
