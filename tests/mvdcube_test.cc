#include "src/core/mvdcube.h"

#include <gtest/gtest.h>

#include "src/core/reference.h"
#include "tests/test_helpers.h"

namespace spade {
namespace {

using testing_helpers::ArmResult;
using testing_helpers::DimSpec;
using testing_helpers::MakeRandomAnalysis;
using testing_helpers::MeasureShape;
using testing_helpers::PrepareAndEvaluate;
using testing_helpers::RandomAnalysis;
using testing_helpers::SameResult;

void ExpectMatchesReference(const RandomAnalysis& ra, int chunk) {
  Arm arm(1 << 20);
  MeasureCache cache;
  MvdCubeOptions options;
  options.partition_chunk = chunk;
  MvdCubeStats stats =
      PrepareAndEvaluate(*ra.db, *ra.cfs, ra.spec, options, &arm, &cache);
  EXPECT_EQ(stats.num_nodes, size_t{1} << ra.spec.dims.size());

  std::vector<AggregateResult> expected =
      EvaluateReference(*ra.db, 0, *ra.cfs, ra.spec);
  for (const auto& ref : expected) {
    AggregateResult got = ArmResult(arm, ref.key);
    EXPECT_TRUE(SameResult(ref, got))
        << "dims=" << ref.key.dims.size()
        << " measure=" << ref.key.measure.attr << " func="
        << static_cast<int>(ref.key.measure.func);
  }
}

TEST(MvdCubeTest, Figure1Example) {
  // The paper's running example: counts by nationality/gender/area must be
  // the *correct* ones (2 Manufacturer CEOs, 1 female CEO).
  Graph g;
  Dictionary& d = g.dict();
  auto add = [&](const std::string& s, const std::string& p,
                 const std::string& o) {
    g.Add(d.InternIri(s), d.InternIri("http://x/" + p), d.InternString(o));
  };
  add("n1", "nationality", "Angola");
  add("n1", "gender", "Female");
  add("n1", "companyArea", "Diamond");
  add("n1", "companyArea", "Manufacturer");
  add("n1", "companyArea", "NaturalGas");
  add("n2", "nationality", "Brazil");
  add("n2", "nationality", "France");
  add("n2", "nationality", "Lebanon");
  add("n2", "nationality", "Nigeria");
  add("n2", "companyArea", "Automotive");
  add("n2", "companyArea", "Manufacturer");
  g.Freeze();
  AttributeStore db(&g);
  db.BuildDirectAttributes();
  CfsIndex cfs({d.InternIri("n1"), d.InternIri("n2")});

  LatticeSpec spec;
  spec.dims = {*db.FindAttribute("nationality"), *db.FindAttribute("gender"),
               *db.FindAttribute("companyArea")};
  std::sort(spec.dims.begin(), spec.dims.end());
  spec.measures.push_back(MeasureSpec{kInvalidAttr, sparql::AggFunc::kCount});

  Arm arm;
  MeasureCache cache;
  PrepareAndEvaluate(db, cfs, spec, MvdCubeOptions{.partition_chunk = 2}, &arm,
                     &cache);

  // count of CEOs by companyArea: Manufacturer -> 2 (not 5, the A4 bug).
  AggregateKey by_area;
  by_area.cfs_id = 0;
  by_area.dims = {*db.FindAttribute("companyArea")};
  by_area.measure = MeasureSpec{kInvalidAttr, sparql::AggFunc::kCount};
  AggregateResult area_result = ArmResult(arm, by_area);
  ASSERT_EQ(area_result.groups.size(), 4u);
  for (const auto& grp : area_result.groups) {
    const std::string& area = d.Get(grp.dim_values[0]).lexical;
    EXPECT_DOUBLE_EQ(grp.value, area == "Manufacturer" ? 2.0 : 1.0) << area;
  }

  // count of CEOs by gender: Female -> 1 (not 3, the A3 bug).
  AggregateKey by_gender;
  by_gender.cfs_id = 0;
  by_gender.dims = {*db.FindAttribute("gender")};
  by_gender.measure = MeasureSpec{kInvalidAttr, sparql::AggFunc::kCount};
  AggregateResult gender_result = ArmResult(arm, by_gender);
  ASSERT_EQ(gender_result.groups.size(), 1u);  // null gender not reported
  EXPECT_DOUBLE_EQ(gender_result.groups[0].value, 1.0);
}

TEST(MvdCubeTest, Variation1SumNetWorth) {
  // Variation 1: sum(netWorth) by area must count each CEO once.
  Graph g;
  Dictionary& d = g.dict();
  auto node = [&](const std::string& s) { return d.InternIri(s); };
  TermId nat = d.InternIri("nat"), area = d.InternIri("area"),
         nw = d.InternIri("netWorth");
  g.Add(node("n1"), nat, d.InternString("Angola"));
  g.Add(node("n1"), area, d.InternString("Manufacturer"));
  g.Add(node("n1"), nw, d.InternDouble(2.8e9));
  for (const char* n : {"Brazil", "France", "Lebanon", "Nigeria"}) {
    g.Add(node("n2"), nat, d.InternString(n));
  }
  g.Add(node("n2"), area, d.InternString("Automotive"));
  g.Add(node("n2"), area, d.InternString("Manufacturer"));
  g.Add(node("n2"), nw, d.InternDouble(1.2e8));
  g.Freeze();
  AttributeStore db(&g);
  db.BuildDirectAttributes();
  CfsIndex cfs({node("n1"), node("n2")});
  LatticeSpec spec;
  spec.dims = {*db.FindAttribute("nat"), *db.FindAttribute("area")};
  std::sort(spec.dims.begin(), spec.dims.end());
  spec.measures.push_back(
      MeasureSpec{*db.FindAttribute("netWorth"), sparql::AggFunc::kSum});
  spec.measures.push_back(
      MeasureSpec{*db.FindAttribute("netWorth"), sparql::AggFunc::kAvg});

  Arm arm;
  MeasureCache cache;
  PrepareAndEvaluate(db, cfs, spec, MvdCubeOptions{.partition_chunk = 2}, &arm,
                     &cache);
  AggregateKey key;
  key.cfs_id = 0;
  key.dims = {*db.FindAttribute("area")};
  key.measure = MeasureSpec{*db.FindAttribute("netWorth"), sparql::AggFunc::kSum};
  AggregateResult result = ArmResult(arm, key);
  for (const auto& grp : result.groups) {
    const std::string& a = d.Get(grp.dim_values[0]).lexical;
    if (a == "Manufacturer") {
      EXPECT_DOUBLE_EQ(grp.value, 2.8e9 + 1.2e8);  // not 2.8e9 + 4 * 1.2e8
    }
  }
}

struct MvdCase {
  uint64_t seed;
  size_t facts;
  std::vector<DimSpec> dims;
  std::vector<MeasureShape> measures;
  int chunk;
};

class MvdCubeReferenceTest : public ::testing::TestWithParam<MvdCase> {};

TEST_P(MvdCubeReferenceTest, MatchesReferenceExactly) {
  const MvdCase& c = GetParam();
  RandomAnalysis ra = MakeRandomAnalysis(c.seed, c.facts, c.dims, c.measures);
  ExpectMatchesReference(ra, c.chunk);
}

INSTANTIATE_TEST_SUITE_P(
    Heterogeneity, MvdCubeReferenceTest,
    ::testing::Values(
        // Single-valued, complete data (relational-like).
        MvdCase{1, 300, {{4, 0, 0}, {3, 0, 0}}, {{0, 0}}, 2},
        // Multi-valued dimensions.
        MvdCase{2, 300, {{4, 0.5, 0}, {3, 0.4, 0}}, {{0, 0}}, 2},
        // Missing dimension values.
        MvdCase{3, 300, {{4, 0, 0.3}, {3, 0, 0.4}}, {{0, 0}}, 2},
        // Multi-valued + missing dims, multi-valued + missing measures.
        MvdCase{4, 400, {{5, 0.4, 0.2}, {4, 0.3, 0.3}}, {{0.5, 0.3}}, 3},
        // Three dimensions, mixed shapes.
        MvdCase{5, 350, {{4, 0.3, 0.2}, {3, 0, 0.5}, {5, 0.6, 0}}, {{0.2, 0.2}}, 2},
        // Four dimensions (max N), stress the MMST.
        MvdCase{6, 250, {{3, 0.3, 0.2}, {3, 0.2, 0.2}, {2, 0, 0.3}, {4, 0.5, 0.1}},
                {{0.3, 0.4}}, 2},
        // Large single dimension with small chunks (many partitions).
        MvdCase{7, 500, {{40, 0.4, 0.1}}, {{0.3, 0.2}}, 4},
        // Chunk size 1 (maximum partitioning).
        MvdCase{8, 200, {{6, 0.5, 0.2}, {5, 0.4, 0.3}}, {{0.4, 0.3}}, 1},
        // Chunk larger than every domain (single partition).
        MvdCase{9, 200, {{6, 0.5, 0.2}, {5, 0.4, 0.3}}, {{0.4, 0.3}}, 64},
        // Two measures.
        MvdCase{10, 300, {{5, 0.4, 0.2}, {4, 0.2, 0.2}}, {{0.3, 0.2}, {0, 0.5}}, 3}));

TEST(MvdCubeTest, SharedNodesEvaluatedOnce) {
  RandomAnalysis ra =
      MakeRandomAnalysis(42, 200, {{4, 0.3, 0.1}, {3, 0.2, 0.2}}, {{0, 0}});
  Arm arm;
  MeasureCache cache;
  MvdCubeOptions options;
  MvdCubeStats first =
      PrepareAndEvaluate(*ra.db, *ra.cfs, ra.spec, options, &arm, &cache);
  EXPECT_GT(first.num_mdas_evaluated, 0u);
  EXPECT_EQ(first.num_mdas_reused, 0u);

  // A second lattice sharing dimension 0: its shared nodes must be reused.
  LatticeSpec sub;
  sub.dims = {ra.spec.dims[0]};
  sub.measures = ra.spec.measures;
  MvdCubeStats second =
      PrepareAndEvaluate(*ra.db, *ra.cfs, sub, options, &arm, &cache);
  EXPECT_EQ(second.num_mdas_evaluated, 0u);  // {dim0} and {} already done
  EXPECT_EQ(second.num_mdas_reused, sub.measures.size() * 2);
}

TEST(MvdCubeTest, MeasureCacheSharedAcrossLattices) {
  RandomAnalysis ra =
      MakeRandomAnalysis(7, 100, {{3, 0, 0}, {3, 0, 0}}, {{0, 0}});
  Arm arm;
  MeasureCache cache;
  PrepareAndEvaluate(*ra.db, *ra.cfs, ra.spec, MvdCubeOptions(), &arm, &cache);
  size_t loads_after_first = cache.num_loads();
  LatticeSpec sub;
  sub.dims = {ra.spec.dims[1]};
  sub.measures = ra.spec.measures;
  PrepareAndEvaluate(*ra.db, *ra.cfs, sub, MvdCubeOptions(), &arm, &cache);
  EXPECT_EQ(cache.num_loads(), loads_after_first);  // no reload
}

TEST(MvdCubeTest, PrunedKeysAreSkipped) {
  RandomAnalysis ra = MakeRandomAnalysis(13, 150, {{3, 0.2, 0.1}}, {{0, 0}});
  std::set<AggregateKey> pruned;
  AggregateKey key;
  key.cfs_id = 0;
  key.dims = ra.spec.dims;
  key.measure = ra.spec.measures[0];
  pruned.insert(key);

  Arm arm;
  MeasureCache cache;
  MvdCubeStats stats = PrepareAndEvaluate(*ra.db, *ra.cfs, ra.spec,
                                          MvdCubeOptions(), &arm, &cache,
                                          &pruned);
  EXPECT_EQ(stats.num_mdas_pruned, 1u);
  EXPECT_FALSE(arm.IsEvaluated(key));
}

TEST(MvdCubeTest, EmptyCfs) {
  RandomAnalysis ra = MakeRandomAnalysis(3, 50, {{3, 0, 0}}, {});
  CfsIndex empty(std::vector<TermId>{});
  Arm arm;
  MeasureCache cache;
  MvdCubeStats stats = PrepareAndEvaluate(*ra.db, empty, ra.spec,
                                          MvdCubeOptions(), &arm, &cache);
  EXPECT_EQ(stats.num_groups_emitted, 0u);
}

TEST(MvdCubeTest, FactsWithNoDimensionValuesExcluded) {
  // A fact carrying only measures joins no cell (Section 4.3 translation).
  Graph g;
  Dictionary& d = g.dict();
  TermId dim = d.InternIri("dim"), m = d.InternIri("m");
  g.Add(d.InternIri("a"), dim, d.InternString("x"));
  g.Add(d.InternIri("a"), m, d.InternDouble(1));
  g.Add(d.InternIri("b"), m, d.InternDouble(100));  // no dim value
  g.Freeze();
  AttributeStore db(&g);
  db.BuildDirectAttributes();
  CfsIndex cfs({d.InternIri("a"), d.InternIri("b")});
  LatticeSpec spec;
  spec.dims = {*db.FindAttribute("dim")};
  spec.measures = {MeasureSpec{*db.FindAttribute("m"), sparql::AggFunc::kSum}};
  Arm arm;
  MeasureCache cache;
  PrepareAndEvaluate(db, cfs, spec, MvdCubeOptions(), &arm, &cache);
  AggregateKey key;
  key.cfs_id = 0;
  key.dims = spec.dims;
  key.measure = spec.measures[0];
  AggregateResult result = ArmResult(arm, key);
  ASSERT_EQ(result.groups.size(), 1u);
  EXPECT_DOUBLE_EQ(result.groups[0].value, 1.0);  // b's 100 not included
}

}  // namespace
}  // namespace spade

namespace spade {
namespace {

TEST(MvdCubeTest, ReferenceNodeMatchesFullReference) {
  // EvaluateReferenceNode (single node) and EvaluateReference (whole
  // lattice) must agree — they share semantics but not code paths.
  RandomAnalysis ra =
      MakeRandomAnalysis(77, 200, {{4, 0.4, 0.2}, {3, 0.3, 0.3}}, {{0.3, 0.2}});
  auto all = EvaluateReference(*ra.db, 0, *ra.cfs, ra.spec);
  for (const auto& ref : all) {
    AggregateResult single = EvaluateReferenceNode(
        *ra.db, 0, *ra.cfs, ra.spec, ref.key.dims, ref.key.measure);
    EXPECT_TRUE(SameResult(ref, single));
  }
}

TEST(MvdCubeTest, SingleDimensionLattice) {
  RandomAnalysis ra = MakeRandomAnalysis(78, 250, {{6, 0.5, 0.3}}, {{0.4, 0.3}});
  ExpectMatchesReference(ra, 2);
  ExpectMatchesReference(ra, 7);
}

TEST(MvdCubeTest, DimensionWithSingleDistinctValue) {
  // Degenerate: one distinct value + nulls still forms a valid lattice.
  Graph g;
  Dictionary& d = g.dict();
  TermId dim = d.InternIri("dim"), m = d.InternIri("m");
  std::vector<TermId> members;
  for (int i = 0; i < 40; ++i) {
    TermId f = d.InternIri("f" + std::to_string(i));
    members.push_back(f);
    if (i % 3 != 0) g.Add(f, dim, d.InternString("only"));
    g.Add(f, m, d.InternDouble(i));
  }
  g.Freeze();
  AttributeStore db(&g);
  db.BuildDirectAttributes();
  CfsIndex cfs(members);
  LatticeSpec spec;
  spec.dims = {*db.FindAttribute("dim")};
  spec.measures = {MeasureSpec{kInvalidAttr, sparql::AggFunc::kCount},
                   MeasureSpec{*db.FindAttribute("m"), sparql::AggFunc::kSum}};
  Arm arm;
  MeasureCache cache;
  PrepareAndEvaluate(db, cfs, spec, MvdCubeOptions(), &arm, &cache);
  for (const auto& ref : EvaluateReference(db, 0, cfs, spec)) {
    EXPECT_TRUE(SameResult(ref, ArmResult(arm, ref.key)));
  }
}

}  // namespace
}  // namespace spade
