#include "src/core/lattice.h"

#include <gtest/gtest.h>

#include <map>
#include <numeric>

#include "src/bitmap/roaring.h"
#include "src/exec/thread_pool.h"

namespace spade {
namespace {

class LatticeTest : public ::testing::Test {
 protected:
  // Figure 1 dimensions: nationality (5 values), gender (2), area (4).
  void SetUp() override {
    Dictionary& d = g.dict();
    auto add = [&](const std::string& s, const std::string& p,
                   const std::string& o) {
      g.Add(d.InternIri(s), d.InternIri(p), d.InternString(o));
    };
    // n1 = dos Santos, n2 = Ghosn.
    add("n1", "nationality", "Angola");
    add("n1", "gender", "Female");
    add("n1", "area", "Diamond");
    add("n1", "area", "Manufacturer");
    add("n1", "area", "NaturalGas");
    add("n2", "nationality", "Brazil");
    add("n2", "nationality", "France");
    add("n2", "nationality", "Lebanon");
    add("n2", "nationality", "Nigeria");
    add("n2", "area", "Automotive");
    add("n2", "area", "Manufacturer");
    g.Freeze();
    db = std::make_unique<AttributeStore>(&g);
    db->BuildDirectAttributes();
    cfs = std::make_unique<CfsIndex>(
        std::vector<TermId>{d.InternIri("n1"), d.InternIri("n2")});
  }
  Graph g;
  std::unique_ptr<AttributeStore> db;
  std::unique_ptr<CfsIndex> cfs;
};

TEST_F(LatticeTest, DimensionEncodingValuesAndCodes) {
  DimensionEncoding enc =
      BuildDimensionEncoding(*db, *cfs, *db->FindAttribute("nationality"));
  EXPECT_EQ(enc.values.size(), 5u);
  EXPECT_EQ(enc.domain_size(), 6);  // + null
  EXPECT_EQ(enc.null_code(), 5);
  FactId f1 = cfs->FactOf(g.dict().InternIri("n1"));
  FactId f2 = cfs->FactOf(g.dict().InternIri("n2"));
  EXPECT_EQ(enc.fact_codes[f1].size(), 1u);
  EXPECT_EQ(enc.fact_codes[f2].size(), 4u);
  EXPECT_EQ(enc.num_multi_facts, 1u);
  EXPECT_TRUE(enc.multi_valued());
}

TEST_F(LatticeTest, DimensionEncodingMissingValues) {
  DimensionEncoding enc =
      BuildDimensionEncoding(*db, *cfs, *db->FindAttribute("gender"));
  FactId f2 = cfs->FactOf(g.dict().InternIri("n2"));
  EXPECT_TRUE(enc.fact_codes[f2].empty());  // Ghosn lacks gender
  EXPECT_FALSE(enc.multi_valued());
}

TEST(CubeLayoutTest, PartitionCodecRoundTrip) {
  Mmst mmst = Mmst::Build({6, 3, 5}, 2);
  const CubeLayout& layout = mmst.layout();
  EXPECT_EQ(layout.num_partitions,
            static_cast<uint64_t>(layout.num_chunks[0]) *
                layout.num_chunks[1] * layout.num_chunks[2]);
  for (uint64_t p = 0; p < layout.num_partitions; ++p) {
    std::vector<int> cc = layout.DecodePartition(p);
    EXPECT_EQ(layout.EncodePartition(cc), p);
    for (size_t d = 0; d < 3; ++d) {
      EXPECT_GE(cc[d], 0);
      EXPECT_LT(cc[d], layout.num_chunks[d]);
    }
  }
}

TEST(CubeLayoutTest, PartitionOrderIsLexicographicInLayoutOrder) {
  Mmst mmst = Mmst::Build({4, 4}, 2);
  const CubeLayout& layout = mmst.layout();
  // Consecutive partitions advance the fastest (last-ordered) dimension.
  std::vector<int> prev = layout.DecodePartition(0);
  for (uint64_t p = 1; p < layout.num_partitions; ++p) {
    std::vector<int> cur = layout.DecodePartition(p);
    // Lexicographic order over (order[0], order[1]).
    int slow = layout.order[0], fast = layout.order[1];
    bool advanced = (cur[slow] > prev[slow]) ||
                    (cur[slow] == prev[slow] && cur[fast] > prev[fast]);
    EXPECT_TRUE(advanced);
    prev = cur;
  }
}

TEST(CubeLayoutTest, CellCodecRoundTrip) {
  Mmst mmst = Mmst::Build({5, 2, 4}, 2);
  const CubeLayout& layout = mmst.layout();
  for (int32_t a = 0; a < 5; ++a) {
    for (int32_t b = 0; b < 2; ++b) {
      for (int32_t c = 0; c < 4; ++c) {
        uint64_t cell = layout.PackCell({a, b, c});
        EXPECT_EQ(layout.UnpackCell(cell), (std::vector<int32_t>{a, b, c}));
      }
    }
  }
}

TEST(MmstTest, FigureThreeShape) {
  // nationality=5(+1 null), gender=2(+1), area=4(+1); chunk 2.
  Mmst mmst = Mmst::Build({6, 3, 5}, 2);
  EXPECT_EQ(mmst.nodes().size(), 8u);
  const MmstNode& root = mmst.node(7);
  EXPECT_EQ(root.parent, -1);
  EXPECT_EQ(root.full_mask, 0u);  // root: all dims at chunk granularity
  EXPECT_EQ(root.memory_cells, 8u);  // 2*2*2 = one partition
  // Every non-root node has a parent with exactly one more dim.
  for (uint32_t mask = 0; mask < 7; ++mask) {
    const MmstNode& node = mmst.node(mask);
    ASSERT_GE(node.parent, 0);
    EXPECT_EQ(__builtin_popcount(static_cast<uint32_t>(node.parent)),
              __builtin_popcount(mask) + 1);
    EXPECT_EQ(static_cast<uint32_t>(node.parent) & mask, mask);
  }
}

TEST(MmstTest, SpanningTreeCoversLattice) {
  Mmst mmst = Mmst::Build({10, 7, 4, 3}, 3);
  size_t edges = 0;
  for (const auto& node : mmst.nodes()) edges += node.children.size();
  EXPECT_EQ(edges, mmst.nodes().size() - 1);  // a tree
}

TEST(MmstTest, TopologicalOrderParentsFirst) {
  Mmst mmst = Mmst::Build({5, 5, 5}, 2);
  std::vector<int> order = mmst.TopologicalOrder();
  std::vector<int> position(order.size());
  for (size_t i = 0; i < order.size(); ++i) position[order[i]] = static_cast<int>(i);
  for (const auto& node : mmst.nodes()) {
    if (node.parent >= 0) {
      EXPECT_LT(position[node.parent], position[node.mask]);
    }
  }
}

TEST(MmstTest, FullMaskRule) {
  // Order is chosen to minimize memory; verify the full/chunk rule against
  // the chosen order: dim i is full iff some missing dim with >1 chunk is
  // slower (smaller position).
  Mmst mmst = Mmst::Build({100, 10, 4}, 4);
  const CubeLayout& layout = mmst.layout();
  for (const auto& node : mmst.nodes()) {
    for (int d : node.dims) {
      bool expect_full = false;
      for (size_t j = 0; j < 3; ++j) {
        if (node.mask & (1u << j)) continue;
        if (layout.num_chunks[j] <= 1) continue;
        if (layout.pos[j] < layout.pos[d]) expect_full = true;
      }
      EXPECT_EQ((node.full_mask >> d) & 1u, expect_full ? 1u : 0u);
    }
  }
}

TEST(MmstTest, MemoryCellsMatchExtents) {
  Mmst mmst = Mmst::Build({20, 6}, 3);
  const CubeLayout& layout = mmst.layout();
  for (const auto& node : mmst.nodes()) {
    uint64_t expected = 1;
    for (size_t k = 0; k < node.dims.size(); ++k) {
      int d = node.dims[k];
      expected *= (node.full_mask & (1u << d)) ? layout.extent[d]
                                               : layout.chunk[d];
    }
    EXPECT_EQ(node.memory_cells, expected);
  }
  EXPECT_GT(mmst.total_memory_cells(), 0u);
}

TEST(MmstTest, SingleDimension) {
  Mmst mmst = Mmst::Build({9}, 4);
  EXPECT_EQ(mmst.nodes().size(), 2u);
  EXPECT_EQ(mmst.layout().num_partitions, 3u);
  EXPECT_EQ(mmst.node(0).parent, 1);
}

TEST_F(LatticeTest, TranslationPlacesFactsInAllCombos) {
  std::vector<DimensionEncoding> encs;
  for (const char* name : {"nationality", "gender", "area"}) {
    encs.push_back(BuildDimensionEncoding(*db, *cfs, *db->FindAttribute(name)));
  }
  Mmst mmst = Mmst::Build(
      {encs[0].domain_size(), encs[1].domain_size(), encs[2].domain_size()}, 2);
  Translation tr = TranslateData(encs, mmst.layout(), TranslationOptions());
  EXPECT_EQ(tr.num_facts_translated, 2u);
  EXPECT_EQ(tr.num_dropped_combos, 0u);
  size_t total_pairs = 0;
  for (const auto& p : tr.partitions) total_pairs += p.size();
  // n1: 1 nat x 1 gender x 3 areas = 3 cells; n2: 4 x 1(null) x 2 = 8 cells.
  EXPECT_EQ(total_pairs, 11u);
  // Root-group sizes are early-stop's: kept only when sampling.
  EXPECT_TRUE(tr.root_group_count.empty());
  Rng rng(7);
  TranslationOptions sampled;
  sampled.sample_capacity = 4;
  sampled.rng = &rng;
  Translation str = TranslateData(encs, mmst.layout(), sampled);
  EXPECT_EQ(str.root_group_count.size(), 11u);  // all distinct cells
  EXPECT_EQ(str.partitions, tr.partitions);
}

TEST_F(LatticeTest, TranslationComboCapCounts) {
  std::vector<DimensionEncoding> encs;
  for (const char* name : {"nationality", "area"}) {
    encs.push_back(BuildDimensionEncoding(*db, *cfs, *db->FindAttribute(name)));
  }
  Mmst mmst = Mmst::Build({encs[0].domain_size(), encs[1].domain_size()}, 2);
  TranslationOptions opts;
  opts.max_combos_per_fact = 4;  // n2 has 4 x 2 = 8 combos -> dropped
  Translation tr = TranslateData(encs, mmst.layout(), opts);
  EXPECT_EQ(tr.num_dropped_combos, 8u);
}

TEST_F(LatticeTest, TranslationReservoirsBounded) {
  std::vector<DimensionEncoding> encs;
  encs.push_back(
      BuildDimensionEncoding(*db, *cfs, *db->FindAttribute("nationality")));
  Mmst mmst = Mmst::Build({encs[0].domain_size()}, 2);
  Rng rng(7);
  TranslationOptions opts;
  opts.sample_capacity = 1;
  opts.rng = &rng;
  Translation tr = TranslateData(encs, mmst.layout(), opts);
  for (const auto& [cell, reservoir] : tr.reservoirs) {
    EXPECT_LE(reservoir.size(), 1u);
    EXPECT_LE(reservoir.size(), tr.root_group_count.at(cell));
  }
}

// The scaffold exercised directly with counting cells: sum of all root-cell
// loads must equal the count emitted for each single-dim node's groups.
struct CountCell {
  uint64_t n = 0;
  bool Empty() const { return n == 0; }
};

TEST_F(LatticeTest, ScaffoldEmitsEachGroupExactlyOnce) {
  std::vector<DimensionEncoding> encs;
  for (const char* name : {"nationality", "gender", "area"}) {
    encs.push_back(BuildDimensionEncoding(*db, *cfs, *db->FindAttribute(name)));
  }
  Mmst mmst = Mmst::Build(
      {encs[0].domain_size(), encs[1].domain_size(), encs[2].domain_size()}, 2);
  Translation tr = TranslateData(encs, mmst.layout(), TranslationOptions());

  std::map<std::pair<uint32_t, std::vector<int32_t>>, uint64_t> emitted;
  CubeScaffold<CountCell> scaffold(&mmst);
  scaffold.Run(
      tr, [](CountCell* c, FactId) { c->n += 1; },
      [](CountCell* dst, const CountCell& src) { dst->n += src.n; },
      [&](uint32_t mask, Span<int32_t> coords,
          const CountCell& cell) {
        std::vector<int32_t> kept;
        for (size_t d = 0; d < 3; ++d) {
          if (mask & (1u << d)) kept.push_back(coords[d]);
        }
        auto key = std::make_pair(mask, kept);
        EXPECT_EQ(emitted.count(key), 0u) << "group emitted twice";
        emitted[key] = cell.n;
      });
  // Root groups: 11 cells (from the translation test). Their counts are 1.
  uint64_t root_total = 0;
  size_t root_groups = 0;
  for (const auto& [key, n] : emitted) {
    if (key.first == 7u) {
      root_total += n;
      ++root_groups;
    }
  }
  EXPECT_EQ(root_groups, 11u);
  EXPECT_EQ(root_total, 11u);
  // The empty node aggregates everything exactly once per root pair.
  auto all_it = emitted.find({0u, {}});
  ASSERT_NE(all_it, emitted.end());
  EXPECT_EQ(all_it->second, 11u);
}

struct ChunkCase {
  int chunk;
};
class ScaffoldChunkTest : public ::testing::TestWithParam<ChunkCase> {};

TEST_P(ScaffoldChunkTest, GroupCountsIndependentOfChunking) {
  // Whatever the partitioning, the multiset of emitted (node, group, count)
  // must be identical.
  Rng rng(99);
  size_t num_facts = 200;
  std::vector<DimensionEncoding> encs(2);
  for (size_t d = 0; d < 2; ++d) {
    encs[d].attr = static_cast<AttrId>(d);
    encs[d].fact_codes.resize(num_facts);
    size_t domain = d == 0 ? 7 : 13;
    for (size_t f = 0; f < num_facts; ++f) {
      size_t k = 1 + rng.Uniform(2);  // multi-valued
      for (size_t i = 0; i < k; ++i) {
        encs[d].fact_codes[f].push_back(
            static_cast<int32_t>(rng.Uniform(domain)));
      }
      std::sort(encs[d].fact_codes[f].begin(), encs[d].fact_codes[f].end());
      encs[d].fact_codes[f].erase(
          std::unique(encs[d].fact_codes[f].begin(),
                      encs[d].fact_codes[f].end()),
          encs[d].fact_codes[f].end());
    }
    for (size_t v = 0; v < domain; ++v) {
      encs[d].values.push_back(static_cast<TermId>(v + 1));
    }
  }

  auto run = [&](int chunk) {
    Mmst mmst =
        Mmst::Build({encs[0].domain_size(), encs[1].domain_size()}, chunk);
    Translation tr = TranslateData(encs, mmst.layout(), TranslationOptions());
    std::map<std::pair<uint32_t, std::vector<int32_t>>, uint64_t> emitted;
    CubeScaffold<CountCell> scaffold(&mmst);
    scaffold.Run(
        tr, [](CountCell* c, FactId) { c->n += 1; },
        [](CountCell* dst, const CountCell& src) { dst->n += src.n; },
        [&](uint32_t mask, Span<int32_t> coords,
            const CountCell& cell) {
          std::vector<int32_t> kept;
          for (size_t d = 0; d < 2; ++d) {
            if (mask & (1u << d)) kept.push_back(coords[d]);
          }
          emitted[{mask, kept}] += cell.n;
        });
    return emitted;
  };
  auto baseline = run(1000);  // one partition: trivially correct
  auto chunked = run(GetParam().chunk);
  EXPECT_EQ(baseline, chunked);
}

INSTANTIATE_TEST_SUITE_P(Chunks, ScaffoldChunkTest,
                         ::testing::Values(ChunkCase{1}, ChunkCase{2},
                                           ChunkCase{3}, ChunkCase{5},
                                           ChunkCase{8}, ChunkCase{16}));

}  // namespace
}  // namespace spade

namespace spade {
namespace {

TEST_F(LatticeTest, SetWantedNodesSkipsDeadSubtrees) {
  std::vector<DimensionEncoding> encs;
  for (const char* name : {"nationality", "gender", "area"}) {
    encs.push_back(BuildDimensionEncoding(*db, *cfs, *db->FindAttribute(name)));
  }
  Mmst mmst = Mmst::Build(
      {encs[0].domain_size(), encs[1].domain_size(), encs[2].domain_size()}, 2);
  Translation tr = TranslateData(encs, mmst.layout(), TranslationOptions());

  // Only the root is wanted: no child node may emit.
  std::vector<bool> wanted(8, false);
  wanted[7] = true;
  CubeScaffold<CountCell> scaffold(&mmst);
  scaffold.SetWantedNodes(wanted);
  std::set<uint32_t> emitted_masks;
  scaffold.Run(
      tr, [](CountCell* c, FactId) { c->n += 1; },
      [](CountCell* dst, const CountCell& src) { dst->n += src.n; },
      [&](uint32_t mask, Span<int32_t>, const CountCell&) {
        emitted_masks.insert(mask);
      });
  EXPECT_EQ(emitted_masks, (std::set<uint32_t>{7u}));
}

TEST_F(LatticeTest, SetWantedNodesKeepsAncestorsOfWantedNodes) {
  std::vector<DimensionEncoding> encs;
  for (const char* name : {"nationality", "gender", "area"}) {
    encs.push_back(BuildDimensionEncoding(*db, *cfs, *db->FindAttribute(name)));
  }
  Mmst mmst = Mmst::Build(
      {encs[0].domain_size(), encs[1].domain_size(), encs[2].domain_size()}, 2);
  Translation tr = TranslateData(encs, mmst.layout(), TranslationOptions());

  // Want only the single-dim node {dim0}: everything on its MMST path must
  // still propagate, and its result must equal the unrestricted run.
  std::vector<bool> wanted(8, false);
  wanted[1] = true;
  auto run = [&](bool restricted) {
    std::map<std::vector<int32_t>, uint64_t> node1;
    CubeScaffold<CountCell> scaffold(&mmst);
    if (restricted) scaffold.SetWantedNodes(wanted);
    scaffold.Run(
        tr, [](CountCell* c, FactId) { c->n += 1; },
        [](CountCell* dst, const CountCell& src) { dst->n += src.n; },
        [&](uint32_t mask, Span<int32_t> coords,
            const CountCell& cell) {
          if (mask == 1u) node1[{coords[0]}] += cell.n;
        });
    return node1;
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace spade

// --- Partition-parallel lattice computation (ParallelLatticeRun) ----------

namespace spade {
namespace {

/// The MVDCube cell shape: a set of fact ids (exact union semantics).
struct TestBitmapCell {
  RoaringBitmap facts;
  bool Empty() const { return facts.Empty(); }
};

/// An ArrayCube-style FP accumulator cell.
struct TestSumCell {
  double sum = 0;
  bool Empty() const { return sum == 0; }
};

/// Random multi-valued encodings with missing values — the shapes that
/// stress region handling across slice boundaries.
std::vector<DimensionEncoding> MakeRandomEncodings(uint64_t seed,
                                                   size_t num_facts,
                                                   const std::vector<size_t>& domains,
                                                   double missing_prob) {
  Rng rng(seed);
  std::vector<DimensionEncoding> encs(domains.size());
  for (size_t d = 0; d < domains.size(); ++d) {
    encs[d].attr = static_cast<AttrId>(d);
    encs[d].fact_codes.resize(num_facts);
    for (size_t f = 0; f < num_facts; ++f) {
      if (rng.Bernoulli(missing_prob)) continue;  // missing dimension
      size_t k = 1 + rng.Uniform(2);              // often multi-valued
      for (size_t i = 0; i < k; ++i) {
        encs[d].fact_codes[f].push_back(
            static_cast<int32_t>(rng.Uniform(domains[d])));
      }
      std::sort(encs[d].fact_codes[f].begin(), encs[d].fact_codes[f].end());
      encs[d].fact_codes[f].erase(
          std::unique(encs[d].fact_codes[f].begin(), encs[d].fact_codes[f].end()),
          encs[d].fact_codes[f].end());
      if (encs[d].fact_codes[f].size() >= 2) ++encs[d].num_multi_facts;
    }
    for (size_t v = 0; v < domains[d]; ++v) {
      encs[d].values.push_back(static_cast<TermId>(v + 1));
    }
  }
  return encs;
}

using GroupSets = std::map<std::pair<uint32_t, uint64_t>, std::vector<uint32_t>>;

/// Sequential baseline: one scaffold over the full partition sequence,
/// groups keyed by the same canonical cell id the parallel run uses.
GroupSets SequentialBitmapGroups(const Mmst& mmst, const Translation& tr) {
  GroupSets out;
  CubeScaffold<TestBitmapCell> scaffold(&mmst);
  scaffold.Run(
      tr, [](TestBitmapCell* c, FactId f) { c->facts.Add(f); },
      [](TestBitmapCell* dst, const TestBitmapCell& src) {
        dst->facts.UnionWith(src.facts);
      },
      [&](uint32_t mask, Span<int32_t> coords, const TestBitmapCell& cell) {
        uint64_t id = PackCellMasked(mmst.layout(), mask, coords);
        auto [it, inserted] = out.try_emplace({mask, id}, cell.facts.ToVector());
        (void)it;
        EXPECT_TRUE(inserted) << "group emitted twice by sequential scaffold";
      });
  return out;
}

TEST(ParallelLatticeTest, BitmapGroupsMatchSequentialScaffoldAtEveryWorkerCount) {
  std::vector<DimensionEncoding> encs =
      MakeRandomEncodings(7, 500, {13, 9, 5}, 0.2);
  Mmst mmst = Mmst::Build(
      {encs[0].domain_size(), encs[1].domain_size(), encs[2].domain_size()}, 2);
  ASSERT_GT(mmst.layout().num_partitions, 8u);  // real slicing, not one slice
  Translation tr = TranslateData(encs, mmst.layout(), TranslationOptions());
  GroupSets expected = SequentialBitmapGroups(mmst, tr);
  ASSERT_FALSE(expected.empty());

  for (size_t workers : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("workers = " + std::to_string(workers));
    ThreadPool pool(workers > 1 ? workers - 1 : 1);
    TaskScheduler scheduler(&pool);
    GroupSets got;
    std::vector<std::pair<uint32_t, uint64_t>> emit_order;
    ParallelLatticeStats stats;
    std::vector<NodeGroups<TestBitmapCell>> lists =
        ParallelLatticeRun<TestBitmapCell>(
            mmst, tr, /*wanted=*/nullptr, workers, &scheduler,
            [](TestBitmapCell* c, FactId f) { c->facts.Add(f); },
            [](TestBitmapCell* dst, const TestBitmapCell& src) {
              dst->facts.UnionWith(src.facts);
            },
            [](uint32_t, Span<int32_t>) { return true; }, &stats);
    ASSERT_EQ(lists.size(), mmst.nodes().size());
    for (uint32_t mask = 0; mask < lists.size(); ++mask) {
      for (const auto& [id, cell] : lists[mask]) {
        emit_order.push_back({mask, id});
        got[{mask, id}] = cell.facts.ToVector();
      }
    }
    // The fact sets of every group equal the sequential scaffold's exactly —
    // bitmap-union merge is exact set semantics, independent of slicing.
    EXPECT_EQ(got, expected);
    // Canonical emit order: node mask ascending, packed cell id ascending.
    EXPECT_TRUE(std::is_sorted(emit_order.begin(), emit_order.end()));
    EXPECT_EQ(emit_order.size(), got.size());  // each group exactly once
    EXPECT_GE(stats.num_slices, 1u);
    EXPECT_LE(stats.num_slices, workers);
    EXPECT_GE(stats.peak_partial_cells, got.size());
  }
}

TEST(ParallelLatticeTest, AccumulatorCellsMatchSequentialScaffold) {
  // Integer-valued sums: FP addition over them is exact, so even the
  // accumulator fold is value-identical to the sequential scaffold at any
  // worker count (the bit-identity guarantee proper is for set cells).
  std::vector<DimensionEncoding> encs = MakeRandomEncodings(21, 300, {11, 7}, 0.3);
  Mmst mmst = Mmst::Build({encs[0].domain_size(), encs[1].domain_size()}, 3);
  Translation tr = TranslateData(encs, mmst.layout(), TranslationOptions());

  auto load = [](TestSumCell* c, FactId f) { c->sum += 1.0 + (f % 5); };
  auto merge = [](TestSumCell* dst, const TestSumCell& src) {
    dst->sum += src.sum;
  };
  std::map<std::pair<uint32_t, uint64_t>, double> expected;
  CubeScaffold<TestSumCell> scaffold(&mmst);
  scaffold.Run(tr, load, merge,
               [&](uint32_t mask, Span<int32_t> coords, const TestSumCell& cell) {
                 expected[{mask, PackCellMasked(mmst.layout(), mask, coords)}] =
                     cell.sum;
               });
  ASSERT_FALSE(expected.empty());

  for (size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE("workers = " + std::to_string(workers));
    ThreadPool pool(2);
    TaskScheduler scheduler(&pool);
    std::map<std::pair<uint32_t, uint64_t>, double> got;
    auto lists = ParallelLatticeRun<TestSumCell>(
        mmst, tr, nullptr, workers, &scheduler, load, merge,
        [](uint32_t, Span<int32_t>) { return true; });
    for (uint32_t mask = 0; mask < lists.size(); ++mask) {
      for (const auto& [id, cell] : lists[mask]) got[{mask, id}] = cell.sum;
    }
    EXPECT_EQ(got, expected);
  }
}

TEST(ParallelLatticeTest, KeepFilterAndWantedNodesRestrictCollection) {
  std::vector<DimensionEncoding> encs = MakeRandomEncodings(3, 200, {9, 6}, 0.2);
  Mmst mmst = Mmst::Build({encs[0].domain_size(), encs[1].domain_size()}, 2);
  Translation tr = TranslateData(encs, mmst.layout(), TranslationOptions());

  // Want only node {dim0}; additionally drop its null-coordinate groups —
  // the MVDCube usage pattern.
  std::vector<bool> wanted(4, false);
  wanted[1] = true;
  std::map<uint64_t, uint64_t> counts;  // code of dim0 -> count
  ThreadPool pool(2);
  TaskScheduler scheduler(&pool);
  auto lists = ParallelLatticeRun<TestSumCell>(
      mmst, tr, &wanted, 4, &scheduler,
      [](TestSumCell* c, FactId) { c->sum += 1; },
      [](TestSumCell* dst, const TestSumCell& src) { dst->sum += src.sum; },
      [&](uint32_t mask, Span<int32_t> coords) {
        return mask == 1u && coords[0] < encs[0].null_code();
      });
  std::vector<int32_t> coords(2);
  for (uint32_t mask = 0; mask < lists.size(); ++mask) {
    for (const auto& [id, cell] : lists[mask]) {
      ASSERT_EQ(mask, 1u);
      UnpackCellMaskedInto(mmst.layout(), mask, id, coords.data());
      ASSERT_LT(coords[0], encs[0].null_code());
      counts[static_cast<uint64_t>(coords[0])] =
          static_cast<uint64_t>(cell.sum);
    }
  }

  // Against a direct count over the translation: per dim0 code, the number
  // of (cell, fact) pairs carrying it (the scaffold's per-cell count load).
  std::map<uint64_t, uint64_t> direct;
  for (const auto& part : tr.partitions) {
    for (const auto& [cell, fact] : part) {
      (void)fact;
      std::vector<int32_t> coords = mmst.layout().UnpackCell(cell);
      if (coords[0] < encs[0].null_code()) {
        direct[static_cast<uint64_t>(coords[0])] += 1;
      }
    }
  }
  EXPECT_EQ(counts, direct);
}

TEST(PartitionSliceTest, SlicesPartitionTheSequence) {
  std::vector<DimensionEncoding> encs = MakeRandomEncodings(5, 400, {17, 11}, 0.1);
  Mmst mmst = Mmst::Build({encs[0].domain_size(), encs[1].domain_size()}, 2);
  Translation tr = TranslateData(encs, mmst.layout(), TranslationOptions());
  uint64_t P = mmst.layout().num_partitions;
  for (size_t k : {1u, 2u, 3u, 4u, 7u, 64u, 1000u}) {
    SCOPED_TRACE("num_slices = " + std::to_string(k));
    std::vector<PartitionSlice> slices = MakePartitionSlices(tr, P, k);
    ASSERT_FALSE(slices.empty());
    EXPECT_LE(slices.size(), std::min<uint64_t>(k, P));
    EXPECT_EQ(slices.front().begin, 0u);
    EXPECT_EQ(slices.back().end, P);
    for (size_t s = 0; s < slices.size(); ++s) {
      EXPECT_LT(slices[s].begin, slices[s].end);  // non-empty
      if (s > 0) {
        EXPECT_EQ(slices[s].begin, slices[s - 1].end);  // contiguous
      }
    }
  }
}

TEST(PartitionSliceTest, EmptyTranslationGetsOneSliceSpanningEverything) {
  Translation empty;
  std::vector<PartitionSlice> slices = MakePartitionSlices(empty, 12, 4);
  // No pairs to balance: the greedy cut may still split, but coverage and
  // contiguity must hold.
  ASSERT_FALSE(slices.empty());
  EXPECT_EQ(slices.front().begin, 0u);
  EXPECT_EQ(slices.back().end, 12u);
}

TEST(CubeLayoutTest, PackCellMaskedRoundTripsAndOrdersByPresentDims) {
  Mmst mmst = Mmst::Build({5, 4, 3}, 2);
  const CubeLayout& layout = mmst.layout();
  for (uint32_t mask = 0; mask < 8; ++mask) {
    uint64_t prev_id = 0;
    bool first = true;
    // Enumerate present-dim coordinates lexicographically.
    std::vector<int32_t> coords(3, -1);
    std::function<void(size_t)> rec = [&](size_t d) {
      if (d == 3) {
        uint64_t id = PackCellMasked(layout, mask, Span<int32_t>(coords.data(), 3));
        std::vector<int32_t> back(3);
        UnpackCellMaskedInto(layout, mask, id, back.data());
        EXPECT_EQ(back, coords);
        if (!first) {
          EXPECT_GT(id, prev_id);  // strictly ascending
        }
        prev_id = id;
        first = false;
        return;
      }
      if (!(mask & (1u << d))) {
        coords[d] = -1;
        rec(d + 1);
        return;
      }
      for (int32_t v = 0; v < layout.extent[d]; ++v) {
        coords[d] = v;
        rec(d + 1);
      }
    };
    rec(0);
  }
}

}  // namespace
}  // namespace spade
