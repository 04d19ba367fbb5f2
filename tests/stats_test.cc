#include "src/stats/attr_stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/core/enumeration.h"
#include "src/datagen/synthetic.h"
#include "src/exec/thread_pool.h"

namespace spade {
namespace {

class StatsTest : public ::testing::Test {
 protected:
  AttrId AddAttr(const std::string& name,
                 std::vector<std::pair<std::string, Term>> rows) {
    AttributeTable t;
    t.name = name;
    for (auto& [s, o] : rows) {
      t.AddRow(g.dict().InternIri(s), g.dict().Intern(o));
    }
    return db().AddAttribute(std::move(t));
  }
  AttributeStore& db() {
    if (!db_) db_ = std::make_unique<AttributeStore>(&g);
    return *db_;
  }
  Graph g;
  std::unique_ptr<AttributeStore> db_;
};

TEST_F(StatsTest, IntegerKindAndBounds) {
  AttrId a = AddAttr("age", {{"s1", Term::Literal("30")},
                             {"s2", Term::Literal("45")},
                             {"s3", Term::Literal("28")}});
  AttrStats st = ComputeAttrStats(db(), a);
  EXPECT_EQ(st.kind, ValueKind::kInteger);
  EXPECT_TRUE(st.numeric());
  EXPECT_EQ(st.num_subjects, 3u);
  EXPECT_EQ(st.num_values, 3u);
  EXPECT_EQ(st.num_distinct_values, 3u);
  EXPECT_EQ(st.num_multi_subjects, 0u);
  EXPECT_DOUBLE_EQ(st.min_value, 28);
  EXPECT_DOUBLE_EQ(st.max_value, 45);
}

TEST_F(StatsTest, DecimalKind) {
  AttrId a = AddAttr("price", {{"s1", Term::Literal("1.5")},
                               {"s2", Term::Literal("2")}});
  AttrStats st = ComputeAttrStats(db(), a);
  EXPECT_EQ(st.kind, ValueKind::kDecimal);
  EXPECT_TRUE(st.numeric());
}

TEST_F(StatsTest, DateKind) {
  AttrId a = AddAttr("birth", {{"s1", Term::Literal("1990-01-15")},
                               {"s2", Term::Literal("1985-12-31")}});
  AttrStats st = ComputeAttrStats(db(), a);
  EXPECT_EQ(st.kind, ValueKind::kDate);
  EXPECT_FALSE(st.numeric());
}

TEST_F(StatsTest, TextKindAndAvgLength) {
  AttrId a = AddAttr("desc", {{"s1", Term::Literal("hello world")},
                              {"s2", Term::Literal("another text value")}});
  AttrStats st = ComputeAttrStats(db(), a);
  EXPECT_EQ(st.kind, ValueKind::kText);
  EXPECT_NEAR(st.avg_text_length, (11 + 18) / 2.0, 0.01);
}

TEST_F(StatsTest, ReferenceKind) {
  AttrId a = AddAttr("knows", {{"s1", Term::Iri("o1")},
                               {"s2", Term::Iri("o2")}});
  AttrStats st = ComputeAttrStats(db(), a);
  EXPECT_EQ(st.kind, ValueKind::kReference);
}

TEST_F(StatsTest, MixedKind) {
  AttrId a = AddAttr("odd", {{"s1", Term::Literal("12")},
                             {"s2", Term::Iri("o")},
                             {"s3", Term::Literal("word-salad")}});
  AttrStats st = ComputeAttrStats(db(), a);
  EXPECT_EQ(st.kind, ValueKind::kMixed);
}

TEST_F(StatsTest, ToleratesFewStrays) {
  // 19 numbers and 1 string still count as integer (95% rule).
  std::vector<std::pair<std::string, Term>> rows;
  for (int i = 0; i < 19; ++i) {
    rows.push_back({"s" + std::to_string(i), Term::Literal(std::to_string(i))});
  }
  rows.push_back({"sX", Term::Literal("oops")});
  AttrId a = AddAttr("mostly", std::move(rows));
  EXPECT_EQ(ComputeAttrStats(db(), a).kind, ValueKind::kInteger);
}

TEST_F(StatsTest, MultiValuedDetection) {
  AttrId a = AddAttr("nat", {{"s1", Term::Iri("A")},
                             {"s1", Term::Iri("B")},
                             {"s2", Term::Iri("A")}});
  AttrStats st = ComputeAttrStats(db(), a);
  EXPECT_EQ(st.num_subjects, 2u);
  EXPECT_EQ(st.num_multi_subjects, 1u);
  EXPECT_TRUE(st.multi_valued());
  EXPECT_EQ(st.num_distinct_values, 2u);
}

TEST_F(StatsTest, EmptyAttr) {
  AttrId a = AddAttr("nothing", {});
  AttrStats st = ComputeAttrStats(db(), a);
  EXPECT_EQ(st.kind, ValueKind::kEmpty);
  EXPECT_EQ(st.num_subjects, 0u);
}

TEST_F(StatsTest, OnlineStatsRestrictToCfs) {
  AttrId a = AddAttr("nat", {{"s1", Term::Iri("A")},
                             {"s1", Term::Iri("B")},
                             {"s2", Term::Iri("A")},
                             {"s3", Term::Iri("C")}});
  Dictionary& d = g.dict();
  CfsIndex cfs({d.InternIri("s1"), d.InternIri("s2")});
  OnlineAttrStats st = ComputeOnlineStats(db(), cfs, a);
  EXPECT_EQ(st.support, 2u);
  EXPECT_EQ(st.num_values, 3u);
  EXPECT_EQ(st.num_distinct_values, 2u);  // C not visible from this CFS
  EXPECT_EQ(st.num_multi_facts, 1u);
  EXPECT_DOUBLE_EQ(st.SupportRatio(2), 1.0);
  EXPECT_DOUBLE_EQ(st.DistinctRatio(2), 1.0);
}

TEST_F(StatsTest, OnlineStatsZeroSupport) {
  AttrId a = AddAttr("p", {{"s1", Term::Literal("v")}});
  CfsIndex cfs({g.dict().InternIri("elsewhere")});
  OnlineAttrStats st = ComputeOnlineStats(db(), cfs, a);
  EXPECT_EQ(st.support, 0u);
  EXPECT_DOUBLE_EQ(st.SupportRatio(0), 0.0);
}

TEST(AnalyzeAttributesTest, SchedulerMatchesSerialFieldByField) {
  // Multi-valued dimensions, missing values, few distinct values shared by
  // many facts, and a second fact type whose facts fall outside the CFS.
  SyntheticOptions sopts;
  sopts.num_facts = 4000;
  sopts.dim_cardinality = {30, 6, 200};
  sopts.num_measures = 2;
  sopts.multi_valued_dims = {0, 2};
  sopts.multi_value_prob = 0.4;
  sopts.missing_prob = 0.2;
  sopts.num_fact_types = 2;
  auto graph = GenerateSynthetic(sopts);
  AttributeStore db(graph.get());
  db.BuildDirectAttributes();
  std::vector<AttrStats> offline;
  for (AttrId a = 0; a < db.num_attributes(); ++a) {
    offline.push_back(ComputeAttrStats(db, a));
  }
  CfsIndex cfs(graph->NodesOfType(graph->dict().InternIri(synth::kFactType)));
  EnumerationOptions options;
  options.max_distinct_values = 100;  // dim2 is too fine to be a dimension

  const CfsAnalysis serial = AnalyzeAttributes(db, cfs, offline, options);
  ASSERT_GT(serial.attrs.size(), 4u);
  bool saw_multi = false, saw_missing = false, saw_dim = false,
       saw_measure = false, saw_rejected_dim = false;
  for (const AnalyzedAttribute& a : serial.attrs) {
    saw_multi |= a.online.num_multi_facts > 0;
    saw_missing |= a.online.support > 0 && a.online.support < cfs.size();
    saw_dim |= a.good_dimension;
    saw_measure |= a.good_measure;
    saw_rejected_dim |= !a.good_dimension && a.online.num_distinct_values > 100;
  }
  EXPECT_TRUE(saw_multi && saw_missing && saw_dim && saw_measure &&
              saw_rejected_dim);

  for (size_t threads : {size_t{2}, size_t{4}}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    std::unique_ptr<ThreadPool> pool = MakeWorkerPool(threads);
    TaskScheduler scheduler(pool.get());
    const CfsAnalysis got =
        AnalyzeAttributes(db, cfs, offline, options, &scheduler);
    ASSERT_EQ(got.attrs.size(), serial.attrs.size());
    for (size_t i = 0; i < got.attrs.size(); ++i) {
      const AnalyzedAttribute& e = serial.attrs[i];
      const AnalyzedAttribute& g = got.attrs[i];
      EXPECT_EQ(g.attr, e.attr);  // attribute order
      EXPECT_EQ(g.online.support, e.online.support);
      EXPECT_EQ(g.online.num_values, e.online.num_values);
      EXPECT_EQ(g.online.num_distinct_values, e.online.num_distinct_values);
      EXPECT_EQ(g.online.num_multi_facts, e.online.num_multi_facts);
      EXPECT_EQ(g.good_dimension, e.good_dimension);
      EXPECT_EQ(g.good_measure, e.good_measure);
    }
  }
}

TEST(EnumerateLatticesTest, DimensionSetsAreTheFactsMaximalFrequentSets) {
  // 20 facts at min support 10: `a` on every fact, `b` on facts 0-9 (its
  // support is exactly the threshold), `c` on facts 5-19. {a, b} and {a, c}
  // are frequent and maximal; {b, c} holds on 5 facts only. A fact lost
  // from any dimension's tidset would drop {a, b}.
  Graph g;
  Dictionary& dict = g.dict();
  std::vector<TermId> facts;
  for (int f = 0; f < 20; ++f) {
    facts.push_back(dict.InternIri("http://x/f" + std::to_string(f)));
  }
  auto add = [&](const char* property, int first, int last) {
    TermId p = dict.InternIri(std::string("http://x/") + property);
    for (int f = first; f <= last; ++f) {
      g.Add(facts[f], p, dict.InternString(f % 2 == 0 ? "even" : "odd"));
    }
  };
  add("a", 0, 19);
  add("b", 0, 9);
  add("c", 5, 19);
  g.Freeze();
  AttributeStore db(&g);
  db.BuildDirectAttributes();
  std::vector<AttrStats> offline;
  for (AttrId a = 0; a < db.num_attributes(); ++a) {
    offline.push_back(ComputeAttrStats(db, a));
  }
  CfsIndex cfs(facts);
  EnumerationOptions options;
  options.min_support_ratio = 0.5;
  const CfsAnalysis analysis = AnalyzeAttributes(db, cfs, offline, options);
  std::vector<LatticeSpec> lattices =
      EnumerateLattices(db, cfs, analysis, offline, options);

  const AttrId a = *db.FindAttribute("a");
  const AttrId b = *db.FindAttribute("b");
  const AttrId c = *db.FindAttribute("c");
  const std::set<std::vector<AttrId>> want = {
      {std::min(a, b), std::max(a, b)}, {std::min(a, c), std::max(a, c)}};
  std::set<std::vector<AttrId>> got;
  for (const LatticeSpec& spec : lattices) got.insert(spec.dims);
  EXPECT_EQ(got, want);
}

TEST(LooksLikeDateTest, Various) {
  EXPECT_TRUE(LooksLikeDate("2021-03-31"));
  EXPECT_FALSE(LooksLikeDate("2021-3-31"));
  EXPECT_FALSE(LooksLikeDate("20210331"));
  EXPECT_FALSE(LooksLikeDate("2021-03-31T00:00"));
  EXPECT_FALSE(LooksLikeDate("abcd-ef-gh"));
}

TEST(ValueKindTest, Names) {
  EXPECT_STREQ(ValueKindName(ValueKind::kInteger), "integer");
  EXPECT_STREQ(ValueKindName(ValueKind::kReference), "reference");
  EXPECT_STREQ(ValueKindName(ValueKind::kMixed), "mixed");
}

}  // namespace
}  // namespace spade
