#include "src/store/attribute_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "src/store/preagg.h"

namespace spade {
namespace {

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Dictionary& d = g.dict();
    a = d.InternIri("http://x/a");
    b = d.InternIri("http://x/b");
    c = d.InternIri("http://x/c");
    p_age = d.InternIri("http://x/age");
    p_tag = d.InternIri("http://x/tag");
    g.Add(a, p_age, d.InternInteger(30));
    g.Add(b, p_age, d.InternInteger(40));
    g.Add(b, p_age, d.InternInteger(42));  // multi-valued
    g.Add(a, p_tag, d.InternString("x"));
    g.Add(c, p_tag, d.InternString("y"));
    g.Add(a, g.rdf_type(), d.InternIri("http://x/T"));
    g.Freeze();
    db = std::make_unique<AttributeStore>(&g);
    db->BuildDirectAttributes();
  }
  Graph g;
  std::unique_ptr<AttributeStore> db;
  TermId a, b, c, p_age, p_tag;
};

TEST_F(StoreTest, BuildsOneTablePerPropertyExceptType) {
  EXPECT_EQ(db->num_attributes(), 2u);  // age, tag — not rdf:type
  EXPECT_TRUE(db->FindAttribute("age").has_value());
  EXPECT_TRUE(db->FindAttribute("tag").has_value());
  EXPECT_FALSE(db->FindAttribute("type").has_value());
}

TEST_F(StoreTest, ColumnarLayoutSortedAndQueryable) {
  AttrId age = *db->FindAttribute("age");
  const AttributeTable& t = db->attribute(age);
  ASSERT_TRUE(t.sealed());
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_subjects(), 2u);
  EXPECT_TRUE(std::is_sorted(t.subjects().begin(), t.subjects().end()));
  for (size_t i = 0; i < t.num_subjects(); ++i) {
    Span<TermId> vals = t.values(i);
    EXPECT_TRUE(std::is_sorted(vals.begin(), vals.end()));
  }
  EXPECT_EQ(t.ValuesOf(b).size(), 2u);
  EXPECT_EQ(t.ValuesOf(c).size(), 0u);  // non-subject: empty span
  EXPECT_EQ(t.subjects().ToVector(),
            (std::vector<TermId>{std::min(a, b), std::max(a, b)}));
  EXPECT_EQ(t.SubjectIndexOf(c), AttributeTable::kNoSubject);
}

TEST_F(StoreTest, SealDeduplicatesAndOrdersStagedRows) {
  Dictionary& d = g.dict();
  AttributeTable t;
  t.name = "dup";
  TermId s1 = d.InternIri("http://x/s1");
  TermId v1 = d.InternInteger(1), v2 = d.InternInteger(2);
  t.AddRow(s1, v2);
  t.AddRow(s1, v1);
  t.AddRow(s1, v2);  // duplicate row
  EXPECT_EQ(t.num_staged(), 3u);
  t.Seal();
  EXPECT_EQ(t.num_rows(), 2u);
  Span<TermId> vals = t.ValuesOf(s1);
  ASSERT_EQ(vals.size(), 2u);
  EXPECT_EQ(vals[0], std::min(v1, v2));
  EXPECT_EQ(vals[1], std::max(v1, v2));
}

TEST_F(StoreTest, EmptyTableIsQueryable) {
  AttributeTable t;
  t.name = "empty";
  t.Seal();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_EQ(t.num_subjects(), 0u);
  EXPECT_TRUE(t.subjects().empty());
  EXPECT_TRUE(t.ValuesOf(a).empty());
  size_t visited = 0;
  t.ForEachRow([&](TermId, TermId) { ++visited; });
  EXPECT_EQ(visited, 0u);
  // An empty table still registers, seals, and serves stats/measure scans.
  AttrId id = db->AddAttribute(std::move(t));
  CfsIndex cfs({a, b, c});
  MeasureVector mv = BuildMeasureVector(*db, cfs, id);
  for (FactId f = 0; f < 3; ++f) EXPECT_EQ(mv.count[f], 0u);
}

TEST_F(StoreTest, ForEachRowVisitsSortedPairs) {
  AttrId age = *db->FindAttribute("age");
  const AttributeTable& t = db->attribute(age);
  std::vector<std::pair<TermId, TermId>> rows;
  t.ForEachRow([&](TermId s, TermId o) { rows.emplace_back(s, o); });
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
}

TEST_F(StoreTest, LocalName) {
  EXPECT_EQ(AttributeStore::LocalName("http://x/age"), "age");
  EXPECT_EQ(AttributeStore::LocalName("http://x#frag"), "frag");
  EXPECT_EQ(AttributeStore::LocalName("noslash"), "noslash");
}

TEST_F(StoreTest, NameCollisionsDisambiguated) {
  AttributeTable t1;
  t1.name = "age";  // collides with the direct attribute
  t1.origin = AttrOrigin::kCount;
  AttrId id = db->AddAttribute(std::move(t1));
  EXPECT_EQ(db->attribute(id).name, "age#2");
}

TEST_F(StoreTest, AttributeReferencesStableAcrossRegistryGrowth) {
  const AttributeTable& age = db->attribute(*db->FindAttribute("age"));
  const TermId* objects_before = age.objects().data();
  for (int i = 0; i < 64; ++i) {
    AttributeTable t;
    t.name = "filler" + std::to_string(i);
    db->AddAttribute(std::move(t));
  }
  // The deque registry must not have moved the earlier table.
  EXPECT_EQ(age.objects().data(), objects_before);
  EXPECT_EQ(age.num_rows(), 3u);
}

TEST_F(StoreTest, CfsIndexDenseIds) {
  CfsIndex cfs({c, a, b});  // unsorted on purpose
  EXPECT_EQ(cfs.size(), 3u);
  for (FactId f = 0; f < 3; ++f) {
    EXPECT_EQ(cfs.FactOf(cfs.NodeOf(f)), f);
  }
  EXPECT_EQ(cfs.FactOf(g.dict().InternIri("http://x/absent")), kInvalidFact);
  EXPECT_TRUE(std::is_sorted(cfs.members().begin(), cfs.members().end()));
}

TEST_F(StoreTest, CfsIndexNonMemberLookups) {
  Dictionary& d = g.dict();
  TermId lo = d.InternIri("http://x/m1");
  TermId hi = d.InternIri("http://x/m3");
  TermId mid = d.InternIri("http://x/m2");    // between lo and hi, not a member
  TermId below = d.InternIri("http://x/m0");  // sorts before every member
  TermId above = d.InternIri("http://x/m4");  // sorts after every member
  CfsIndex cfs({lo, hi});
  EXPECT_EQ(cfs.size(), 2u);
  EXPECT_NE(cfs.FactOf(lo), kInvalidFact);
  EXPECT_NE(cfs.FactOf(hi), kInvalidFact);
  EXPECT_EQ(cfs.FactOf(mid), kInvalidFact);
  EXPECT_EQ(cfs.FactOf(below), kInvalidFact);
  EXPECT_EQ(cfs.FactOf(above), kInvalidFact);
}

TEST_F(StoreTest, SingleFactCfs) {
  CfsIndex cfs({b});
  EXPECT_EQ(cfs.size(), 1u);
  EXPECT_EQ(cfs.FactOf(b), 0u);
  EXPECT_EQ(cfs.FactOf(a), kInvalidFact);
  MeasureVector mv = BuildMeasureVector(*db, cfs, *db->FindAttribute("age"));
  ASSERT_EQ(mv.size(), 1u);
  EXPECT_EQ(mv.count[0], 2u);
  EXPECT_DOUBLE_EQ(mv.sum[0], 82);
}

TEST_F(StoreTest, FactShardsPartitionTheCfsExactly) {
  for (size_t n : {0u, 1u, 5u, 7u, 64u}) {
    for (size_t k : {1u, 2u, 3u, 4u, 8u}) {
      std::vector<FactRange> shards = MakeFactShards(n, k);
      ASSERT_EQ(shards.size(), k);
      FactId expected = 0;
      size_t total = 0;
      for (const FactRange& r : shards) {
        EXPECT_EQ(r.begin, expected);  // contiguous, ascending, disjoint
        EXPECT_LE(r.begin, r.end);
        expected = r.end;
        total += r.size();
      }
      EXPECT_EQ(expected, n);
      EXPECT_EQ(total, n);
    }
  }
  // All facts in one shard: the single range is the whole CFS.
  std::vector<FactRange> one = MakeFactShards(5, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].begin, 0u);
  EXPECT_EQ(one[0].end, 5u);
  // More shards than facts: exactly one shard holds the fact, the rest are
  // empty and never out of range.
  std::vector<FactRange> sparse = MakeFactShards(1, 4);
  size_t non_empty = 0, held = 0;
  for (const FactRange& r : sparse) {
    if (!r.empty()) ++non_empty;
    held += r.size();
  }
  EXPECT_EQ(non_empty, 1u);
  EXPECT_EQ(held, 1u);
}

TEST_F(StoreTest, MeasureVectorShardFillMatchesFullBuild) {
  CfsIndex cfs({a, b, c});
  AttrId age = *db->FindAttribute("age");
  MeasureVector full = BuildMeasureVector(*db, cfs, age);
  for (size_t k : {1u, 2u, 3u, 4u}) {
    MeasureVector mv;
    mv.Init(3);
    MeasureFillFlags flags;
    for (const FactRange& r : MakeFactShards(3, k)) {
      MeasureFillFlags f = FillMeasureVectorRange(*db, cfs, age, r, &mv);
      flags.numeric &= f.numeric;
      flags.single_valued &= f.single_valued;
    }
    EXPECT_EQ(mv.count, full.count);
    EXPECT_EQ(mv.sum, full.sum);
    EXPECT_EQ(mv.min, full.min);
    EXPECT_EQ(mv.max, full.max);
    EXPECT_EQ(flags.numeric, full.numeric);
    EXPECT_EQ(flags.single_valued, full.single_valued);
  }
}

TEST_F(StoreTest, MeasureVectorNumeric) {
  CfsIndex cfs({a, b, c});
  MeasureVector mv = BuildMeasureVector(*db, cfs, *db->FindAttribute("age"));
  ASSERT_EQ(mv.size(), 3u);
  FactId fa = cfs.FactOf(a), fb = cfs.FactOf(b), fc = cfs.FactOf(c);
  EXPECT_EQ(mv.count[fa], 1u);
  EXPECT_EQ(mv.count[fb], 2u);
  EXPECT_EQ(mv.count[fc], 0u);
  EXPECT_DOUBLE_EQ(mv.sum[fa], 30);
  EXPECT_DOUBLE_EQ(mv.sum[fb], 82);
  EXPECT_DOUBLE_EQ(mv.min[fb], 40);
  EXPECT_DOUBLE_EQ(mv.max[fb], 42);
  EXPECT_TRUE(mv.numeric);
  EXPECT_FALSE(mv.single_valued);  // b has two ages
}

TEST_F(StoreTest, MeasureVectorNonNumeric) {
  CfsIndex cfs({a, b, c});
  MeasureVector mv = BuildMeasureVector(*db, cfs, *db->FindAttribute("tag"));
  EXPECT_FALSE(mv.numeric);
  EXPECT_EQ(mv.count[cfs.FactOf(a)], 1u);
  EXPECT_TRUE(mv.single_valued);
}

TEST_F(StoreTest, MeasureVectorRestrictedToCfs) {
  CfsIndex cfs({a});  // b excluded
  MeasureVector mv = BuildMeasureVector(*db, cfs, *db->FindAttribute("age"));
  ASSERT_EQ(mv.size(), 1u);
  EXPECT_DOUBLE_EQ(mv.sum[0], 30);
}

TEST_F(StoreTest, DirectAttributesListsOnlyDirect) {
  AttributeTable derived;
  derived.name = "count(age)";
  derived.origin = AttrOrigin::kCount;
  db->AddAttribute(std::move(derived));
  EXPECT_EQ(db->DirectAttributes().size(), 2u);
}

TEST(AttributeTableTest, RowsStagedInOrderSealLikeRowsOutOfOrder) {
  // Seal() skips its sort for rows staged in ascending order (the delta
  // merge stages them so); the columns must match the same rows staged in
  // reverse, duplicates included.
  std::vector<AttributeTable::Row> rows;
  for (TermId s = 1; s <= 40; ++s) {
    for (TermId o = 1; o <= s % 4 + 1; ++o) rows.emplace_back(s, o);
  }
  rows.push_back(rows.back());  // an adjacent duplicate keeps the order
  AttributeTable ordered;
  for (const auto& [s, o] : rows) ordered.AddRow(s, o);
  ordered.Seal();
  AttributeTable reversed;
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) {
    reversed.AddRow(it->first, it->second);
  }
  reversed.Seal();
  auto same = [](auto a, auto b) {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  };
  EXPECT_EQ(ordered.num_rows(), rows.size() - 1);
  EXPECT_TRUE(same(ordered.subjects(), reversed.subjects()));
  EXPECT_TRUE(same(ordered.offsets(), reversed.offsets()));
  EXPECT_TRUE(same(ordered.objects(), reversed.objects()));
}

TEST(AttrOriginTest, Names) {
  EXPECT_STREQ(AttrOriginName(AttrOrigin::kDirect), "direct");
  EXPECT_STREQ(AttrOriginName(AttrOrigin::kCount), "count");
  EXPECT_STREQ(AttrOriginName(AttrOrigin::kKeyword), "keyword");
  EXPECT_STREQ(AttrOriginName(AttrOrigin::kLanguage), "language");
  EXPECT_STREQ(AttrOriginName(AttrOrigin::kPath), "path");
}

}  // namespace
}  // namespace spade
