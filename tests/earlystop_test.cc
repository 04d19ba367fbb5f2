#include "src/core/earlystop.h"

#include <gtest/gtest.h>

#include "src/core/reference.h"
#include "tests/test_helpers.h"

namespace spade {
namespace {

using testing_helpers::DimSpec;
using testing_helpers::MakeRandomAnalysis;
using testing_helpers::MeasureShape;
using testing_helpers::PrepareAndEvaluate;
using testing_helpers::RandomAnalysis;

TEST(EstimateScoreTest, DegenerateGroups) {
  ScoreEstimate est = EstimateScore(InterestingnessKind::kVariance, {}, {}, 0.05);
  EXPECT_EQ(est.score, 0.0);
  EXPECT_EQ(est.num_groups, 0u);
  est = EstimateScore(InterestingnessKind::kVariance, {{1.0, 2.0}}, {1.0}, 0.05);
  EXPECT_EQ(est.score, 0.0);  // one group: no spread to measure
}

TEST(EstimateScoreTest, ZeroVarianceSamplesGiveTightInterval) {
  // Each group's sample is constant: the estimator has no sampling noise.
  std::vector<std::vector<double>> values = {{5, 5, 5}, {9, 9, 9}};
  ScoreEstimate est =
      EstimateScore(InterestingnessKind::kVariance, values, {1, 1}, 0.05);
  EXPECT_DOUBLE_EQ(est.score, Variance({5, 9}));
  EXPECT_DOUBLE_EQ(est.lower, est.score);
  EXPECT_DOUBLE_EQ(est.upper, est.score);
}

TEST(EstimateScoreTest, WiderSamplesWidenInterval) {
  std::vector<std::vector<double>> tight = {{5, 5.1, 4.9}, {9, 9.1, 8.9}};
  std::vector<std::vector<double>> loose = {{1, 9, 5}, {3, 15, 9}};
  ScoreEstimate t =
      EstimateScore(InterestingnessKind::kVariance, tight, {1, 1}, 0.05);
  ScoreEstimate l =
      EstimateScore(InterestingnessKind::kVariance, loose, {1, 1}, 0.05);
  EXPECT_LT(t.upper - t.lower, l.upper - l.lower);
}

TEST(EstimateScoreTest, ScaleAppliesToGroupEstimates) {
  // Sum estimation (Appendix B): group means scaled by the group size.
  std::vector<std::vector<double>> values = {{2, 2}, {3, 3}};
  ScoreEstimate est =
      EstimateScore(InterestingnessKind::kVariance, values, {10, 100}, 0.05);
  EXPECT_DOUBLE_EQ(est.score, Variance({20, 300}));
}

TEST(EstimateScoreTest, CoverageOfTrueScore) {
  // Statistical test of Theorem 2: the 95% CI on the variance-of-averages
  // must contain the true interestingness in roughly 95% of resamples.
  Rng rng(17);
  const size_t kGroups = 8, kPopulation = 2000, kSample = 60, kTrials = 300;
  // A fixed population per group.
  std::vector<std::vector<double>> population(kGroups);
  std::vector<double> true_means(kGroups);
  for (size_t g = 0; g < kGroups; ++g) {
    double center = 10.0 * static_cast<double>(g);
    double sum = 0;
    for (size_t i = 0; i < kPopulation; ++i) {
      double v = center + 5.0 * rng.NextGaussian();
      population[g].push_back(v);
      sum += v;
    }
    true_means[g] = sum / kPopulation;
  }
  double true_score = Variance(true_means);

  size_t covered = 0;
  for (size_t trial = 0; trial < kTrials; ++trial) {
    std::vector<std::vector<double>> samples(kGroups);
    for (size_t g = 0; g < kGroups; ++g) {
      for (size_t i = 0; i < kSample; ++i) {
        samples[g].push_back(population[g][rng.Uniform(kPopulation)]);
      }
    }
    ScoreEstimate est =
        EstimateScore(InterestingnessKind::kVariance, samples,
                      std::vector<double>(kGroups, 1.0), 0.05);
    if (true_score >= est.lower && true_score <= est.upper) ++covered;
  }
  double coverage = static_cast<double>(covered) / kTrials;
  EXPECT_GE(coverage, 0.88) << "large-sample CI badly undercovers";
}

class EstimateScoreKindTest
    : public ::testing::TestWithParam<InterestingnessKind> {};

TEST_P(EstimateScoreKindTest, EstimateNearTruthForLargeSamples) {
  InterestingnessKind kind = GetParam();
  Rng rng(29);
  const size_t kGroups = 10, kSample = 500;
  std::vector<double> true_means;
  std::vector<std::vector<double>> samples(kGroups);
  for (size_t g = 0; g < kGroups; ++g) {
    double center = (g == 0) ? 50.0 : static_cast<double>(g);  // skewed means
    true_means.push_back(center);
    for (size_t i = 0; i < kSample; ++i) {
      samples[g].push_back(center + 0.5 * rng.NextGaussian());
    }
  }
  ScoreEstimate est = EstimateScore(kind, samples,
                                    std::vector<double>(kGroups, 1.0), 0.05);
  double truth = Interestingness(kind, true_means);
  EXPECT_NEAR(est.score, truth, 0.05 * std::max(1.0, truth));
  EXPECT_LE(est.lower, est.score);
  EXPECT_GE(est.upper, est.score);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, EstimateScoreKindTest,
                         ::testing::Values(InterestingnessKind::kVariance,
                                           InterestingnessKind::kSkewness,
                                           InterestingnessKind::kKurtosis));

class PlannerFixture {
 public:
  /// Graph with two dimensions: dimA induces a wildly varying count per
  /// group (interesting), dimB is perfectly uniform (boring).
  explicit PlannerFixture(uint64_t seed) : rng_(seed) {
    Dictionary& d = g.dict();
    TermId dim_a = d.InternIri("dimA");
    TermId dim_b = d.InternIri("dimB");
    TermId measure = d.InternIri("m");
    size_t next = 0;
    auto fact = [&]() { return d.InternIri("f" + std::to_string(next++)); };
    // dimA: group g has ~10*(g+1)^2 members => high count variance.
    for (int ga = 0; ga < 5; ++ga) {
      size_t count = 10 * static_cast<size_t>((ga + 1) * (ga + 1));
      for (size_t i = 0; i < count; ++i) {
        TermId f = fact();
        members.push_back(f);
        g.Add(f, dim_a, d.InternString("a" + std::to_string(ga)));
        // dimB: uniform assignment, uniform measure.
        g.Add(f, dim_b, d.InternString("b" + std::to_string(next % 5)));
        g.Add(f, measure, d.InternDouble(100.0 + 0.001 * (next % 7)));
      }
    }
    g.Freeze();
    db = std::make_unique<AttributeStore>(&g);
    db->BuildDirectAttributes();
    cfs = std::make_unique<CfsIndex>(members);
    for (AttrId a = 0; a < db->num_attributes(); ++a) {
      offline.push_back(ComputeAttrStats(*db, a));
    }
    spec.dims = {*db->FindAttribute("dimA"), *db->FindAttribute("dimB")};
    std::sort(spec.dims.begin(), spec.dims.end());
    spec.measures = {MeasureSpec{kInvalidAttr, sparql::AggFunc::kCount},
                     MeasureSpec{*db->FindAttribute("m"), sparql::AggFunc::kAvg}};
  }

  EarlyStopResult Run(const EarlyStopOptions& options) {
    MeasureCache cache;
    std::vector<DimensionEncoding> encodings;
    Mmst mmst = BuildMmstForSpec(*db, *cfs, spec, &encodings, 16);
    TranslationOptions topt;
    topt.sample_capacity = options.sample_size;
    topt.rng = &rng_;
    Translation tr = TranslateData(encodings, mmst.layout(), topt);
    EarlyStopPlanner planner(db.get(), 0, cfs.get(), &offline, options);
    planner.AddLattice(spec, encodings, mmst.layout(), tr, &cache);
    Arm arm;
    return planner.Plan(arm);
  }

  Graph g;
  std::unique_ptr<AttributeStore> db;
  std::unique_ptr<CfsIndex> cfs;
  std::vector<TermId> members;
  std::vector<AttrStats> offline;
  LatticeSpec spec;
  Rng rng_;
};

TEST(EarlyStopPlannerTest, PrunesBoringKeepsInteresting) {
  PlannerFixture fx(5);
  EarlyStopOptions options;
  options.top_k = 1;
  options.sample_size = 60;
  options.num_batches = 2;
  EarlyStopResult result = fx.Run(options);
  EXPECT_GT(result.num_candidates, 0u);
  EXPECT_FALSE(result.pruned.empty());

  // The most interesting candidate — count(*) by dimA — must survive.
  AggregateKey star_by_a;
  star_by_a.cfs_id = 0;
  star_by_a.dims = {*fx.db->FindAttribute("dimA")};
  star_by_a.measure = MeasureSpec{kInvalidAttr, sparql::AggFunc::kCount};
  EXPECT_EQ(result.pruned.count(star_by_a), 0u);

  // The uniform avg(m) by dimB is a prime pruning target.
  AggregateKey avg_by_b;
  avg_by_b.cfs_id = 0;
  avg_by_b.dims = {*fx.db->FindAttribute("dimB")};
  avg_by_b.measure =
      MeasureSpec{*fx.db->FindAttribute("m"), sparql::AggFunc::kAvg};
  EXPECT_EQ(result.pruned.count(avg_by_b), 1u);
}

TEST(EarlyStopPlannerTest, LargeKPrunesNothing) {
  PlannerFixture fx(6);
  EarlyStopOptions options;
  options.top_k = 10000;  // everything is within the top k
  EarlyStopResult result = fx.Run(options);
  EXPECT_TRUE(result.pruned.empty());
}

TEST(EarlyStopPlannerTest, EndToEndAccuracyAgainstExhaustive) {
  // Table 4's accuracy metric: prune with ES, evaluate the survivors, and
  // compare the top-k with the exhaustive top-k.
  PlannerFixture fx(7);
  EarlyStopOptions options;
  options.top_k = 3;
  EarlyStopResult es = fx.Run(options);

  Arm exhaustive;
  MeasureCache cache1;
  PrepareAndEvaluate(*fx.db, *fx.cfs, fx.spec, MvdCubeOptions(), &exhaustive,
                     &cache1);
  Arm pruned_arm;
  MeasureCache cache2;
  PrepareAndEvaluate(*fx.db, *fx.cfs, fx.spec, MvdCubeOptions(), &pruned_arm,
                     &cache2, &es.pruned);

  auto top_full = exhaustive.TopK(3, InterestingnessKind::kVariance);
  auto top_es = pruned_arm.TopK(3, InterestingnessKind::kVariance);
  ASSERT_EQ(top_full.size(), top_es.size());
  for (size_t i = 0; i < top_full.size(); ++i) {
    EXPECT_TRUE(top_full[i].key == top_es[i].key) << "rank " << i;
    EXPECT_DOUBLE_EQ(top_full[i].score, top_es[i].score);
  }
}

TEST(EarlyStopPlannerTest, CountStarEstimatesAreRootExact) {
  // For count(*) the planner uses the exact per-group sizes from the
  // translation: the root-node count aggregate's CI collapses to the truth.
  PlannerFixture fx(8);
  EarlyStopOptions options;
  options.top_k = 1;
  options.num_batches = 1;
  EarlyStopResult result = fx.Run(options);
  // The root count(*) by {dimA, dimB} is computable exactly; combined with
  // count-by-dimA being extreme, at least one count aggregate must survive.
  size_t count_star_pruned = 0;
  for (const auto& key : result.pruned) {
    count_star_pruned += key.measure.is_count_star();
  }
  EXPECT_LT(count_star_pruned, 4u);  // not all four count MDAs pruned
}

}  // namespace
}  // namespace spade

namespace spade {
namespace {

TEST(EstimateScoreTest, IntervalWidthMonotoneInConfidence) {
  Rng rng(41);
  std::vector<std::vector<double>> samples(6);
  for (auto& s : samples) {
    for (int i = 0; i < 40; ++i) s.push_back(rng.NextGaussian() * 3);
  }
  std::vector<double> scales(6, 1.0);
  double prev_width = 0;
  for (double alpha : {0.5, 0.2, 0.1, 0.05, 0.01}) {
    ScoreEstimate est =
        EstimateScore(InterestingnessKind::kVariance, samples, scales, alpha);
    double width = est.upper - est.lower;
    EXPECT_GE(width, prev_width);  // higher confidence -> wider interval
    prev_width = width;
  }
}

TEST(EstimateScoreTest, RLimitPrefixMatchesExplicitPrefix) {
  Rng rng(43);
  std::vector<std::vector<double>> full(4), prefix(4);
  for (size_t gidx = 0; gidx < 4; ++gidx) {
    for (int i = 0; i < 50; ++i) full[gidx].push_back(rng.NextDouble() * 10);
    prefix[gidx] =
        std::vector<double>(full[gidx].begin(), full[gidx].begin() + 20);
  }
  std::vector<double> scales(4, 1.0);
  ScoreEstimate a = EstimateScore(InterestingnessKind::kVariance, full, scales,
                                  0.05, /*r_limit=*/20);
  ScoreEstimate b =
      EstimateScore(InterestingnessKind::kVariance, prefix, scales, 0.05);
  EXPECT_DOUBLE_EQ(a.score, b.score);
  EXPECT_DOUBLE_EQ(a.lower, b.lower);
  EXPECT_DOUBLE_EQ(a.upper, b.upper);
}

}  // namespace
}  // namespace spade
