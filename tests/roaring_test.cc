#include "src/bitmap/roaring.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/util/rng.h"

namespace spade {
namespace {

TEST(RoaringTest, EmptyBitmap) {
  RoaringBitmap bm;
  EXPECT_TRUE(bm.Empty());
  EXPECT_EQ(bm.Cardinality(), 0u);
  EXPECT_FALSE(bm.Contains(0));
  EXPECT_TRUE(bm.ToVector().empty());
}

TEST(RoaringTest, AddAndContains) {
  RoaringBitmap bm;
  bm.Add(5);
  bm.Add(100000);
  bm.Add(5);  // idempotent
  EXPECT_EQ(bm.Cardinality(), 2u);
  EXPECT_TRUE(bm.Contains(5));
  EXPECT_TRUE(bm.Contains(100000));
  EXPECT_FALSE(bm.Contains(6));
  EXPECT_FALSE(bm.Contains(99999));
}

TEST(RoaringTest, OrderedIteration) {
  RoaringBitmap bm;
  std::vector<uint32_t> values = {70000, 3, 65536, 65535, 1, 0, 1u << 30};
  for (uint32_t v : values) bm.Add(v);
  std::vector<uint32_t> expected = {0, 1, 3, 65535, 65536, 70000, 1u << 30};
  EXPECT_EQ(bm.ToVector(), expected);
}

TEST(RoaringTest, ArrayToBitsetConversion) {
  RoaringBitmap bm;
  // Push one chunk past the 4096 array threshold.
  for (uint32_t v = 0; v < 5000; ++v) bm.Add(v * 2);
  EXPECT_EQ(bm.Cardinality(), 5000u);
  for (uint32_t v = 0; v < 5000; ++v) {
    ASSERT_TRUE(bm.Contains(v * 2));
    ASSERT_FALSE(bm.Contains(v * 2 + 1));
  }
  // Ordered iteration across the container switch.
  std::vector<uint32_t> out = bm.ToVector();
  ASSERT_EQ(out.size(), 5000u);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST(RoaringTest, UnionBasic) {
  RoaringBitmap a, b;
  a.Add(1);
  a.Add(100000);
  b.Add(2);
  b.Add(100000);
  a.UnionWith(b);
  EXPECT_EQ(a.ToVector(), (std::vector<uint32_t>{1, 2, 100000}));
  // b unchanged.
  EXPECT_EQ(b.Cardinality(), 2u);
}

TEST(RoaringTest, UnionWithEmpty) {
  RoaringBitmap a, b;
  a.Add(42);
  a.UnionWith(b);
  EXPECT_EQ(a.Cardinality(), 1u);
  b.UnionWith(a);
  EXPECT_EQ(b.Cardinality(), 1u);
  EXPECT_TRUE(b.Contains(42));
}

TEST(RoaringTest, IntersectBasic) {
  RoaringBitmap a, b;
  for (uint32_t v : {1u, 2u, 3u, 70000u}) a.Add(v);
  for (uint32_t v : {2u, 3u, 4u, 70001u}) b.Add(v);
  a.IntersectWith(b);
  EXPECT_EQ(a.ToVector(), (std::vector<uint32_t>{2, 3}));
}

TEST(RoaringTest, IntersectDropsEmptyContainers) {
  RoaringBitmap a, b;
  a.Add(1);
  a.Add(100000);
  b.Add(100000);
  a.IntersectWith(b);
  EXPECT_EQ(a.ToVector(), (std::vector<uint32_t>{100000}));
}

TEST(RoaringTest, Clear) {
  RoaringBitmap a;
  for (uint32_t v = 0; v < 10000; ++v) a.Add(v);
  a.Clear();
  EXPECT_TRUE(a.Empty());
  a.Add(3);
  EXPECT_EQ(a.Cardinality(), 1u);
}

TEST(RoaringTest, EqualityOperator) {
  RoaringBitmap a, b;
  for (uint32_t v : {5u, 100u, 70000u}) {
    a.Add(v);
    b.Add(v);
  }
  EXPECT_TRUE(a == b);
  b.Add(6);
  EXPECT_FALSE(a == b);
}

TEST(RoaringTest, MemoryUpperBoundFormula) {
  // The Section 4.3 bound: 2Z + 9(u/65535 + 1) + 8.
  EXPECT_EQ(RoaringBitmap::MemoryUpperBound(0, 0), 17u);
  EXPECT_EQ(RoaringBitmap::MemoryUpperBound(100, 65535), 2 * 100 + 9 * 2 + 8);
}

TEST(RoaringTest, MemoryBytesGrowsSublinearlyForDense) {
  RoaringBitmap dense;
  for (uint32_t v = 0; v < 60000; ++v) dense.Add(v);
  // A dense chunk converts to an 8 KiB bitset: far below 2 bytes/value * 60k.
  EXPECT_LT(dense.MemoryBytes(), 2u * 60000u);
}

// ---- Property tests: RoaringBitmap vs std::set oracle ----

struct RandomCase {
  uint64_t seed;
  uint32_t universe;
  size_t inserts;
};

class RoaringPropertyTest : public ::testing::TestWithParam<RandomCase> {};

TEST_P(RoaringPropertyTest, MatchesSetSemantics) {
  const RandomCase& param = GetParam();
  Rng rng(param.seed);
  RoaringBitmap bm;
  std::set<uint32_t> oracle;
  for (size_t i = 0; i < param.inserts; ++i) {
    uint32_t v = static_cast<uint32_t>(rng.Uniform(param.universe));
    bm.Add(v);
    oracle.insert(v);
  }
  ASSERT_EQ(bm.Cardinality(), oracle.size());
  EXPECT_EQ(bm.ToVector(),
            std::vector<uint32_t>(oracle.begin(), oracle.end()));
  for (size_t i = 0; i < 200; ++i) {
    uint32_t probe = static_cast<uint32_t>(rng.Uniform(param.universe));
    EXPECT_EQ(bm.Contains(probe), oracle.count(probe) > 0);
  }
}

TEST_P(RoaringPropertyTest, UnionMatchesSetUnion) {
  const RandomCase& param = GetParam();
  Rng rng(param.seed ^ 0xabcdef);
  RoaringBitmap a, b;
  std::set<uint32_t> sa, sb;
  for (size_t i = 0; i < param.inserts; ++i) {
    uint32_t va = static_cast<uint32_t>(rng.Uniform(param.universe));
    uint32_t vb = static_cast<uint32_t>(rng.Uniform(param.universe));
    a.Add(va);
    sa.insert(va);
    b.Add(vb);
    sb.insert(vb);
  }
  a.UnionWith(b);
  sa.insert(sb.begin(), sb.end());
  EXPECT_EQ(a.ToVector(), std::vector<uint32_t>(sa.begin(), sa.end()));
}

TEST_P(RoaringPropertyTest, IntersectMatchesSetIntersection) {
  const RandomCase& param = GetParam();
  Rng rng(param.seed ^ 0x123456);
  RoaringBitmap a, b;
  std::set<uint32_t> sa, sb;
  for (size_t i = 0; i < param.inserts; ++i) {
    uint32_t va = static_cast<uint32_t>(rng.Uniform(param.universe));
    uint32_t vb = static_cast<uint32_t>(rng.Uniform(param.universe));
    a.Add(va);
    sa.insert(va);
    b.Add(vb);
    sb.insert(vb);
  }
  a.IntersectWith(b);
  std::vector<uint32_t> expected;
  for (uint32_t v : sa) {
    if (sb.count(v)) expected.push_back(v);
  }
  EXPECT_EQ(a.ToVector(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Densities, RoaringPropertyTest,
    ::testing::Values(
        RandomCase{1, 100, 50},            // tiny, dense
        RandomCase{2, 1u << 10, 2000},     // small universe, saturated
        RandomCase{3, 1u << 20, 2000},     // sparse arrays
        RandomCase{4, 1u << 14, 20000},    // forces bitset conversion
        RandomCase{5, 1u << 28, 5000},     // many containers
        RandomCase{6, 70000, 69000}));     // nearly-full two containers

}  // namespace
}  // namespace spade

namespace spade {
namespace {

TEST(RoaringEdgeTest, MaxUint32) {
  RoaringBitmap bm;
  bm.Add(0xffffffffu);
  bm.Add(0);
  EXPECT_TRUE(bm.Contains(0xffffffffu));
  EXPECT_TRUE(bm.Contains(0));
  EXPECT_EQ(bm.ToVector(), (std::vector<uint32_t>{0, 0xffffffffu}));
}

TEST(RoaringEdgeTest, ExactConversionThreshold) {
  // 4096 values stay an array; the 4097th converts the container. Behaviour
  // must be identical on both sides of the boundary.
  RoaringBitmap bm;
  for (uint32_t v = 0; v < 4096; ++v) bm.Add(v);
  EXPECT_EQ(bm.Cardinality(), 4096u);
  bm.Add(4096);
  EXPECT_EQ(bm.Cardinality(), 4097u);
  for (uint32_t v = 0; v <= 4096; ++v) ASSERT_TRUE(bm.Contains(v));
  EXPECT_FALSE(bm.Contains(4097));
}

TEST(RoaringEdgeTest, UnionAcrossContainerKinds) {
  RoaringBitmap dense, sparse;
  for (uint32_t v = 0; v < 6000; ++v) dense.Add(v);  // bitset container
  for (uint32_t v = 0; v < 10; ++v) sparse.Add(v * 7000);
  RoaringBitmap a = dense;
  a.UnionWith(sparse);
  RoaringBitmap b = sparse;
  b.UnionWith(dense);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.Cardinality(), 6000u + 9u);  // value 0 shared
}

TEST(RoaringEdgeTest, ChunkBoundaryValues) {
  RoaringBitmap bm;
  for (uint32_t v : {65535u, 65536u, 131071u, 131072u}) bm.Add(v);
  EXPECT_EQ(bm.Cardinality(), 4u);
  EXPECT_TRUE(bm.Contains(65535));
  EXPECT_TRUE(bm.Contains(65536));
  EXPECT_FALSE(bm.Contains(65537));
}

// ---- Inline small-set representation ----

TEST(RoaringInlineTest, InlineHoldsNoHeapUntilSpill) {
  RoaringBitmap bm;
  EXPECT_EQ(bm.MemoryBytes(), sizeof(RoaringBitmap));
  for (uint32_t v = 0; v < RoaringBitmap::kInlineCapacity; ++v) {
    bm.Add(v * 70001);  // spread across chunks: inline ignores chunking
  }
  EXPECT_EQ(bm.Cardinality(), RoaringBitmap::kInlineCapacity);
  EXPECT_EQ(bm.MemoryBytes(), sizeof(RoaringBitmap));  // still zero heap
  bm.Add(42);  // the spill
  EXPECT_EQ(bm.Cardinality(), RoaringBitmap::kInlineCapacity + 1);
  EXPECT_GT(bm.MemoryBytes(), sizeof(RoaringBitmap));
  EXPECT_TRUE(bm.Contains(42));
  for (uint32_t v = 0; v < RoaringBitmap::kInlineCapacity; ++v) {
    EXPECT_TRUE(bm.Contains(v * 70001));
  }
}

TEST(RoaringInlineTest, SpillPreservesOrderAndEquality) {
  // Same values, one bitmap kept inline, one genuinely spilled (built past
  // capacity, then intersected back down by a spilled filter — both
  // operands heap-backed, so the result stays heap-backed). Equal sets must
  // compare equal across the representation difference.
  std::vector<uint32_t> vals = {3, 99, 65535, 65536, 131072};
  RoaringBitmap inline_bm;
  for (uint32_t v : vals) inline_bm.Add(v);

  RoaringBitmap spilled_bm;
  for (uint32_t v : vals) spilled_bm.Add(v);
  for (uint32_t v = 0; v < RoaringBitmap::kInlineCapacity; ++v) {
    spilled_bm.Add(7777770 + v);  // force the spill
  }
  RoaringBitmap filter;  // spilled filter: vals plus enough padding
  for (uint32_t v : vals) filter.Add(v);
  for (uint32_t v = 0; v < 2 * RoaringBitmap::kInlineCapacity; ++v) {
    filter.Add(9999990 + v);
  }
  spilled_bm.IntersectWith(filter);
  EXPECT_EQ(spilled_bm.ToVector(), vals);
  EXPECT_GT(spilled_bm.MemoryBytes(), sizeof(RoaringBitmap));  // heap-backed
  EXPECT_TRUE(inline_bm == spilled_bm);
  EXPECT_TRUE(spilled_bm == inline_bm);
  EXPECT_EQ(inline_bm.ToVector(), vals);
}

TEST(RoaringInlineTest, InlineUnionAndIntersect) {
  RoaringBitmap a, b;
  a.Add(1);
  a.Add(100000);
  b.Add(100000);
  b.Add(7);
  a.UnionWith(b);
  EXPECT_EQ(a.ToVector(), (std::vector<uint32_t>{1, 7, 100000}));
  EXPECT_EQ(a.MemoryBytes(), sizeof(RoaringBitmap));  // still inline
  a.IntersectWith(b);
  EXPECT_EQ(a.ToVector(), (std::vector<uint32_t>{7, 100000}));
}

TEST(RoaringInlineTest, SpilledIntersectInlineGoesInline) {
  RoaringBitmap big, small;
  for (uint32_t v = 0; v < 10000; ++v) big.Add(v * 3);
  small.Add(3);
  small.Add(9);
  small.Add(10);  // not in big
  big.IntersectWith(small);
  EXPECT_EQ(big.ToVector(), (std::vector<uint32_t>{3, 9}));
  EXPECT_EQ(big.MemoryBytes(), sizeof(RoaringBitmap));  // back to inline
}

// ---- Ordered-append fast path ----

/// Build the same value set via Add (shuffled) and AppendOrdered (sorted);
/// the two must agree value-for-value with a std::set oracle.
void CheckAppendEqualsAdd(std::vector<uint32_t> values, uint64_t shuffle_seed) {
  std::set<uint32_t> oracle(values.begin(), values.end());
  std::vector<uint32_t> sorted(oracle.begin(), oracle.end());
  RoaringBitmap appended;
  for (uint32_t v : sorted) appended.AppendOrdered(v);
  Rng rng(shuffle_seed);
  std::vector<uint32_t> shuffled = values;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Uniform(i)]);
  }
  RoaringBitmap added;
  for (uint32_t v : shuffled) added.Add(v);
  ASSERT_EQ(appended.Cardinality(), oracle.size());
  ASSERT_EQ(added.Cardinality(), oracle.size());
  EXPECT_EQ(appended.ToVector(), sorted);
  EXPECT_EQ(added.ToVector(), sorted);
  EXPECT_TRUE(appended == added);
  EXPECT_TRUE(added == appended);
}

TEST(RoaringAppendTest, MatchesAddAcrossShapes) {
  // Dense contiguous: exercises array -> run at the 4096 threshold.
  {
    std::vector<uint32_t> v;
    for (uint32_t i = 0; i < 9000; ++i) v.push_back(i);
    CheckAppendEqualsAdd(v, 1);
  }
  // Stride-2: no runs, exercises array -> bitset.
  {
    std::vector<uint32_t> v;
    for (uint32_t i = 0; i < 9000; ++i) v.push_back(2 * i);
    CheckAppendEqualsAdd(v, 2);
  }
  // Random sparse across many chunks.
  {
    Rng rng(3);
    std::vector<uint32_t> v;
    for (size_t i = 0; i < 5000; ++i) {
      v.push_back(static_cast<uint32_t>(rng.Uniform(1u << 26)));
    }
    CheckAppendEqualsAdd(v, 3);
  }
  // Chunk-boundary straddling: values packed around multiples of 65536.
  {
    std::vector<uint32_t> v;
    for (uint32_t c = 0; c < 5; ++c) {
      for (uint32_t d = 0; d < 6; ++d) {
        v.push_back(c * 65536 + 65533 + d);  // 65533..65538 per boundary
      }
    }
    CheckAppendEqualsAdd(v, 4);
  }
  // Both sides of the 4096 array threshold exactly.
  {
    std::vector<uint32_t> v;
    for (uint32_t i = 0; i < 4096; ++i) v.push_back(3 * i);
    CheckAppendEqualsAdd(v, 5);
    v.push_back(3 * 4096);
    CheckAppendEqualsAdd(v, 6);
  }
}

TEST(RoaringAppendTest, DuplicateAppendsAreIdempotent) {
  RoaringBitmap bm;
  for (uint32_t v : {5u, 5u, 9u, 9u, 9u, 70000u, 70000u}) bm.AppendOrdered(v);
  EXPECT_EQ(bm.ToVector(), (std::vector<uint32_t>{5, 9, 70000}));
  EXPECT_EQ(bm.Cardinality(), 3u);
}

TEST(RoaringAppendTest, ContiguousAppendUsesRunsNotBitsets) {
  // 60000 contiguous ids: one run per chunk, a few bytes each — far below
  // both the 2 B/value array model and the 8 KiB bitset.
  RoaringBitmap bm;
  for (uint32_t v = 0; v < 60000; ++v) bm.AppendOrdered(v);
  EXPECT_EQ(bm.Cardinality(), 60000u);
  EXPECT_LT(bm.MemoryBytes(), 2048u);
  EXPECT_LT(bm.MemoryBytes(), RoaringBitmap::MemoryUpperBound(60000, 60000));
  for (uint32_t v : {0u, 29999u, 59999u}) EXPECT_TRUE(bm.Contains(v));
  EXPECT_FALSE(bm.Contains(60000));
  std::vector<uint32_t> out = bm.ToVector();
  ASSERT_EQ(out.size(), 60000u);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(out.front(), 0u);
  EXPECT_EQ(out.back(), 59999u);
}

TEST(RoaringTest, CanonicalBytesDependOnlyOnTheSet) {
  // The same sets built three ways — one ordered append, a union of
  // interleaved partials (how a multi-slice lattice run assembles a group),
  // random-order adds — land in different vector capacities and sometimes
  // different container kinds, so MemoryBytes() may differ; CanonicalBytes()
  // may not, and never exceeds what is allocated.
  Rng rng(11);
  for (int shape = 0; shape < 4; ++shape) {
    SCOPED_TRACE("shape " + std::to_string(shape));
    std::vector<uint32_t> values;
    for (uint32_t v = 0; v < 200000; ++v) {
      bool keep = false;
      switch (shape) {
        case 0: keep = v < 5; break;                        // inline
        case 1: keep = rng.Bernoulli(0.01); break;          // sparse arrays
        case 2: keep = (v / 700) % 3 != 0; break;           // long runs
        case 3: keep = rng.Bernoulli(0.6); break;           // bitsets
      }
      if (keep) values.push_back(v);
    }
    RoaringBitmap appended;
    for (uint32_t v : values) appended.AppendOrdered(v);
    RoaringBitmap unioned;
    for (uint32_t part = 0; part < 3; ++part) {
      RoaringBitmap partial;
      for (uint32_t v : values) {
        if ((v / 1000) % 3 == part) partial.AppendOrdered(v);
      }
      unioned.UnionWith(partial);
    }
    std::vector<uint32_t> shuffled = values;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.Uniform(i)]);
    }
    RoaringBitmap added;
    for (uint32_t v : shuffled) added.Add(v);

    ASSERT_TRUE(appended == unioned);
    ASSERT_TRUE(appended == added);
    EXPECT_EQ(unioned.CanonicalBytes(), appended.CanonicalBytes());
    EXPECT_EQ(added.CanonicalBytes(), appended.CanonicalBytes());
    for (const RoaringBitmap* bm : {&appended, &unioned, &added}) {
      EXPECT_LE(bm->CanonicalBytes(), bm->MemoryBytes());
    }
    if (shape == 0) {
      EXPECT_EQ(appended.CanonicalBytes(), sizeof(RoaringBitmap));
    }
  }
  // One 60000-value run costs a few bytes, not 2 B/value or 8 KiB.
  RoaringBitmap run;
  for (uint32_t v = 0; v < 60000; ++v) run.AppendOrdered(v);
  EXPECT_LT(run.CanonicalBytes(), sizeof(RoaringBitmap) + 256);
}

// ---- Run containers: conversion in both directions ----

TEST(RoaringRunTest, ArrayConvertsToRunAtThresholdWhenContiguous) {
  RoaringBitmap bm;
  for (uint32_t v = 0; v <= 4095; ++v) bm.Add(v);  // array, exactly full
  uint64_t array_bytes = bm.MemoryBytes();
  EXPECT_GE(array_bytes, 4096u * 2);  // 2 B/value while an array
  bm.Add(4096);  // crosses the threshold; one run compresses better
  EXPECT_EQ(bm.Cardinality(), 4097u);
  EXPECT_LT(bm.MemoryBytes(), 512u);  // a single run, not an 8 KiB bitset
  for (uint32_t v = 0; v <= 4096; ++v) ASSERT_TRUE(bm.Contains(v));
  EXPECT_FALSE(bm.Contains(4097));
}

TEST(RoaringRunTest, RunDegradesToBitsetWhenFragmented) {
  // Start from one run, then punch in isolated values until the run list
  // passes the 2048-run threshold and converts to a bitset — tracked
  // against a std::set oracle throughout.
  RoaringBitmap bm;
  std::set<uint32_t> oracle;
  for (uint32_t v = 0; v <= 4096; ++v) {
    bm.Add(v);
    oracle.insert(v);
  }
  for (uint32_t k = 0; k < 2500; ++k) {
    uint32_t v = 4098 + 2 * k;  // gaps keep every insert a singleton run
    bm.Add(v);
    oracle.insert(v);
  }
  EXPECT_EQ(bm.Cardinality(), oracle.size());
  EXPECT_EQ(bm.ToVector(),
            std::vector<uint32_t>(oracle.begin(), oracle.end()));
  // Now a bitset: memory is the flat 8 KiB + bookkeeping, below the run
  // encoding this fragmentation would need (> 2048 runs * 4 B... growing).
  EXPECT_GE(bm.MemoryBytes(), 8192u);
  for (uint32_t k = 0; k < 100; ++k) {
    EXPECT_TRUE(bm.Contains(4098 + 2 * k));
    EXPECT_FALSE(bm.Contains(4099 + 2 * k));
  }
}

TEST(RoaringRunTest, UnionOfOverlappingRunsMergesExactly) {
  RoaringBitmap a, b;
  for (uint32_t v = 0; v <= 5000; ++v) a.AppendOrdered(v);
  for (uint32_t v = 4000; v <= 9000; ++v) b.AppendOrdered(v);
  a.UnionWith(b);
  EXPECT_EQ(a.Cardinality(), 9001u);
  EXPECT_LT(a.MemoryBytes(), 512u);  // one merged run
  EXPECT_TRUE(a.Contains(0));
  EXPECT_TRUE(a.Contains(9000));
  EXPECT_FALSE(a.Contains(9001));
}

TEST(RoaringRunTest, RunIntersectionsMatchSetSemantics) {
  RoaringBitmap run_a, run_b, arr, bits;
  std::set<uint32_t> sa, sb, sarr, sbits;
  for (uint32_t v = 100; v <= 8000; ++v) {
    run_a.AppendOrdered(v);
    sa.insert(v);
  }
  for (uint32_t v = 5000; v <= 12000; ++v) {
    run_b.AppendOrdered(v);
    sb.insert(v);
  }
  for (uint32_t v = 0; v < 3000; ++v) {
    arr.Add(v * 4);
    sarr.insert(v * 4);
  }
  for (uint32_t v = 0; v < 9000; ++v) {
    bits.Add(v * 2);  // stride 2: bitset container
    sbits.insert(v * 2);
  }
  auto expect_intersection = [](RoaringBitmap lhs, const RoaringBitmap& rhs,
                                const std::set<uint32_t>& sl,
                                const std::set<uint32_t>& sr) {
    lhs.IntersectWith(rhs);
    std::vector<uint32_t> expected;
    for (uint32_t v : sl) {
      if (sr.count(v)) expected.push_back(v);
    }
    EXPECT_EQ(lhs.ToVector(), expected);
    EXPECT_EQ(lhs.Cardinality(), expected.size());
  };
  expect_intersection(run_a, run_b, sa, sb);
  expect_intersection(run_b, run_a, sb, sa);
  expect_intersection(run_a, arr, sa, sarr);
  expect_intersection(arr, run_a, sarr, sa);
  expect_intersection(run_a, bits, sa, sbits);
  expect_intersection(bits, run_a, sbits, sa);
}

TEST(RoaringRunTest, EqualityAcrossContainerKinds) {
  // The same contiguous set built three ways: ordered append (run), shuffled
  // Add (run after threshold conversion), and via union with a bitset-heavy
  // detour. operator== must hold across representations.
  std::vector<uint32_t> vals;
  for (uint32_t v = 0; v < 5000; ++v) vals.push_back(v);
  RoaringBitmap appended;
  for (uint32_t v : vals) appended.AppendOrdered(v);
  RoaringBitmap added;
  Rng rng(11);
  std::vector<uint32_t> shuffled = vals;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Uniform(i)]);
  }
  for (uint32_t v : shuffled) added.Add(v);
  // Bitset detour: evens then odds (each alone is stride-2 => bitset).
  RoaringBitmap evens, odds;
  for (uint32_t v = 0; v < 5000; v += 2) evens.Add(v);
  for (uint32_t v = 1; v < 5000; v += 2) odds.Add(v);
  evens.UnionWith(odds);
  EXPECT_TRUE(appended == added);
  EXPECT_TRUE(appended == evens);
  EXPECT_TRUE(evens == added);
  EXPECT_FALSE(appended != added);
  RoaringBitmap different = appended;
  different.Add(123456);
  EXPECT_TRUE(appended != different);
}

// ---- Batched decode ----

TEST(RoaringDecodeTest, DecodeIntoAndBlocksMatchForEach) {
  Rng rng(17);
  RoaringBitmap bm;
  for (size_t i = 0; i < 30000; ++i) {
    bm.Add(static_cast<uint32_t>(rng.Uniform(1u << 18)));
  }
  for (uint32_t v = 200000; v < 206000; ++v) bm.AppendOrdered(v);  // a run
  std::vector<uint32_t> via_foreach;
  bm.ForEach([&](uint32_t v) { via_foreach.push_back(v); });
  std::vector<uint32_t> via_decode;
  bm.DecodeInto(&via_decode);
  EXPECT_EQ(via_decode, via_foreach);
  std::vector<uint32_t> via_blocks, scratch;
  bm.ForEachBlock(&scratch, [&](const uint32_t* data, size_t n) {
    via_blocks.insert(via_blocks.end(), data, data + n);
  });
  EXPECT_EQ(via_blocks, via_foreach);
  EXPECT_EQ(via_decode.size(), bm.Cardinality());
}

TEST(RoaringDecodeTest, DecodeEmptyAndInline) {
  RoaringBitmap bm;
  std::vector<uint32_t> out{1, 2, 3};
  bm.DecodeInto(&out);
  EXPECT_TRUE(out.empty());
  bm.Add(77);
  bm.Add(5);
  bm.DecodeInto(&out);
  EXPECT_EQ(out, (std::vector<uint32_t>{5, 77}));
  size_t blocks = 0;
  std::vector<uint32_t> scratch;
  bm.ForEachBlock(&scratch, [&](const uint32_t* data, size_t n) {
    ++blocks;
    ASSERT_EQ(n, 2u);
    EXPECT_EQ(data[0], 5u);
    EXPECT_EQ(data[1], 77u);
  });
  EXPECT_EQ(blocks, 1u);  // the inline set is one block
}

// ---- Cached cardinality ----

TEST(RoaringCardinalityTest, CacheTracksEveryMutator) {
  Rng rng(23);
  RoaringBitmap bm;
  std::set<uint32_t> oracle;
  auto check = [&] {
    ASSERT_EQ(bm.Cardinality(), oracle.size());
    ASSERT_EQ(bm.ToVector().size(), oracle.size());
  };
  for (size_t round = 0; round < 40; ++round) {
    switch (rng.Uniform(4)) {
      case 0:  // random adds
        for (size_t i = 0; i < 300; ++i) {
          uint32_t v = static_cast<uint32_t>(rng.Uniform(1u << 16));
          bm.Add(v);
          oracle.insert(v);
        }
        break;
      case 1: {  // ordered appends past the current max
        uint32_t base = oracle.empty() ? 0 : *oracle.rbegin();
        for (size_t i = 0; i < 300; ++i) {
          base += 1 + static_cast<uint32_t>(rng.Uniform(3));
          bm.AppendOrdered(base);
          oracle.insert(base);
        }
        break;
      }
      case 2: {  // union with a random bitmap
        RoaringBitmap other;
        for (size_t i = 0; i < 400; ++i) {
          uint32_t v = static_cast<uint32_t>(rng.Uniform(1u << 17));
          other.Add(v);
          oracle.insert(v);
        }
        bm.UnionWith(other);
        break;
      }
      case 3: {  // intersect with a generous superset-ish filter
        RoaringBitmap filter;
        std::set<uint32_t> kept;
        for (uint32_t v : oracle) {
          if (rng.Uniform(10) != 0) {
            filter.Add(v);
            kept.insert(v);
          }
        }
        bm.IntersectWith(filter);
        oracle = std::move(kept);
        break;
      }
    }
    check();
  }
  bm.Clear();
  oracle.clear();
  check();
}

// ---- Randomized mixed-operation differential test ----

struct MixedCase {
  uint64_t seed;
  uint32_t universe;
  size_t rounds;
};

class RoaringMixedOpTest : public ::testing::TestWithParam<MixedCase> {};

TEST_P(RoaringMixedOpTest, AgreesWithSetOracle) {
  const MixedCase& param = GetParam();
  Rng rng(param.seed);
  RoaringBitmap bm;
  std::set<uint32_t> oracle;
  uint32_t append_cursor = 0;
  for (size_t round = 0; round < param.rounds; ++round) {
    switch (rng.Uniform(3)) {
      case 0:
        for (size_t i = 0; i < 500; ++i) {
          uint32_t v = static_cast<uint32_t>(rng.Uniform(param.universe));
          bm.Add(v);
          oracle.insert(v);
        }
        break;
      case 1:
        // AppendOrdered is only legal from the current max upward.
        append_cursor = std::max(
            append_cursor, oracle.empty() ? 0 : *oracle.rbegin());
        for (size_t i = 0; i < 500; ++i) {
          append_cursor += 1 + static_cast<uint32_t>(rng.Uniform(4));
          bm.AppendOrdered(append_cursor);
          oracle.insert(append_cursor);
        }
        break;
      case 2: {
        RoaringBitmap other;
        std::set<uint32_t> so;
        size_t n = 1 + rng.Uniform(800);
        for (size_t i = 0; i < n; ++i) {
          uint32_t v = static_cast<uint32_t>(rng.Uniform(param.universe));
          other.Add(v);
          so.insert(v);
        }
        if (rng.Bernoulli(0.7)) {
          bm.UnionWith(other);
          oracle.insert(so.begin(), so.end());
        } else {
          // Intersect with (other ∪ half of the current values) so the
          // result neither collapses nor stays trivially unchanged.
          for (uint32_t v : oracle) {
            if (rng.Bernoulli(0.5)) {
              other.Add(v);
              so.insert(v);
            }
          }
          bm.IntersectWith(other);
          std::set<uint32_t> kept;
          for (uint32_t v : oracle) {
            if (so.count(v)) kept.insert(v);
          }
          oracle = std::move(kept);
        }
        break;
      }
    }
    ASSERT_EQ(bm.Cardinality(), oracle.size()) << "round " << round;
  }
  EXPECT_EQ(bm.ToVector(), std::vector<uint32_t>(oracle.begin(), oracle.end()));
  for (size_t i = 0; i < 500; ++i) {
    uint32_t probe = static_cast<uint32_t>(rng.Uniform(param.universe));
    ASSERT_EQ(bm.Contains(probe), oracle.count(probe) > 0) << probe;
  }
  RoaringBitmap rebuilt;
  for (uint32_t v : oracle) rebuilt.AppendOrdered(v);
  EXPECT_TRUE(bm == rebuilt);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RoaringMixedOpTest,
    ::testing::Values(MixedCase{101, 1u << 12, 30},   // dense, forces bitsets
                      MixedCase{102, 1u << 16, 30},   // one-chunk boundary mix
                      MixedCase{103, 1u << 22, 30},   // sparse arrays
                      MixedCase{104, 1u << 28, 20},   // many chunks
                      MixedCase{105, 300000, 40}));   // overlapping mid-density

}  // namespace
}  // namespace spade
