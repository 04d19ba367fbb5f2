// Tests of the measure fold (FoldMeasure in src/store/preagg.h): value-level
// checks against a naive sequential fold on spans drawn from every bitmap
// representation (inline small set, array, run, bitset containers), at
// lane-boundary sizes, and with facts whose measure is missing
// (count == 0); plus bit-level pins of the fixed lane and reduction order
// that the ARM stream is checked against.

#include "src/store/preagg.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/bitmap/roaring.h"
#include "src/util/rng.h"

namespace spade {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// Bitwise equality — EXPECT_EQ on doubles would accept -0.0 == +0.0.
void ExpectBitEqual(const FoldResult& a, const FoldResult& b) {
  EXPECT_EQ(Bits(a.count), Bits(b.count));
  EXPECT_EQ(Bits(a.sum), Bits(b.sum));
  EXPECT_EQ(Bits(a.min), Bits(b.min));
  EXPECT_EQ(Bits(a.max), Bits(b.max));
}

// Measure columns over `universe` facts: ~1/4 of facts missing (count 0),
// the rest carrying small multi-value aggregates with awkward doubles.
MeasureVector MakeMeasures(size_t universe, uint64_t seed) {
  MeasureVector mv;
  mv.Init(universe);
  Rng rng(seed);
  for (size_t f = 0; f < universe; ++f) {
    if (rng.Uniform(4) == 0) continue;  // missing: count stays 0
    uint32_t c = static_cast<uint32_t>(1 + rng.Uniform(3));
    mv.count[f] = c;
    double base = rng.NextDouble() * 2e6 - 1e6;
    mv.sum[f] = base * c + rng.NextDouble();
    mv.min[f] = base - rng.NextDouble();
    mv.max[f] = base + rng.NextDouble();
  }
  return mv;
}

// Naive sequential reference: value-level ground truth the lane-strided
// result must match within reordering error.
FoldResult NaiveFold(const std::vector<uint32_t>& span,
                     const MeasureVector& mv) {
  FoldResult r;
  r.min = kInf;
  r.max = -kInf;
  for (uint32_t f : span) {
    if (mv.count[f] == 0) continue;
    r.count += mv.count[f];
    r.sum += mv.sum[f];
    r.min = std::min(r.min, mv.min[f]);
    r.max = std::max(r.max, mv.max[f]);
  }
  return r;
}

// The fixed order written out: element i into lane i % 4 (a missing fact
// is skipped, which leaves the same bits as adding the identity), lanes
// reduced in ascending order. FoldMeasure must match it bit for bit.
FoldResult LaneStridedFold(const std::vector<uint32_t>& span,
                           const MeasureVector& mv) {
  FoldAcc lanes;
  lanes.Reset();
  for (size_t i = 0; i < span.size(); ++i) {
    const uint32_t f = span[i];
    if (mv.count[f] == 0) continue;
    const size_t l = i % kFoldLanes;
    lanes.count[l] += mv.count[f];
    lanes.sum[l] += mv.sum[f];
    lanes.min[l] = std::min(lanes.min[l], mv.min[f]);
    lanes.max[l] = std::max(lanes.max[l], mv.max[f]);
  }
  return Reduce(lanes);
}

void CheckSpan(const std::vector<uint32_t>& span, const MeasureVector& mv) {
  const FoldResult fold = FoldMeasure(span, mv);
  ExpectBitEqual(fold, LaneStridedFold(span, mv));

  const FoldResult naive = NaiveFold(span, mv);
  EXPECT_DOUBLE_EQ(fold.count, naive.count);  // integer sums: exact
  EXPECT_EQ(Bits(fold.min), Bits(naive.min));
  EXPECT_EQ(Bits(fold.max), Bits(naive.max));
  // Sum is the one field the lane reorder may shift by ULPs.
  const double tol = 1e-9 * (std::abs(naive.sum) + 1.0);
  EXPECT_NEAR(fold.sum, naive.sum, tol);
}

// Span sizes: one fact, either side of two full lane rounds, either side of
// the array->bitset container threshold, and a full 2^16 chunk.
const size_t kSizes[] = {1, 7, 8, 4095, 4096, 65536};

// --- spans drawn through every bitmap representation ----------------------

TEST(MeasureFoldTest, InlineSmallSets) {
  // <= kInlineCapacity values: the bitmap never spills to containers.
  MeasureVector mv = MakeMeasures(1 << 16, 0xA11CE);
  for (size_t size : {size_t{1}, size_t{7}, size_t{8}}) {
    SCOPED_TRACE("size = " + std::to_string(size));
    RoaringBitmap bm;
    for (size_t i = 0; i < size; ++i) {
      bm.AppendOrdered(static_cast<uint32_t>(i * 797 + 13));
    }
    std::vector<uint32_t> span;
    bm.DecodeInto(&span);
    ASSERT_EQ(span.size(), size);
    CheckSpan(span, mv);
  }
}

TEST(MeasureFoldTest, ArrayContainers) {
  // Stride-3 values stay under 4096 per chunk: array containers.
  MeasureVector mv = MakeMeasures(1 << 18, 0xB0B);
  for (size_t size : kSizes) {
    SCOPED_TRACE("size = " + std::to_string(size));
    RoaringBitmap bm;
    for (size_t i = 0; i < size; ++i) {
      bm.AppendOrdered(static_cast<uint32_t>(i * 3));
    }
    std::vector<uint32_t> span;
    bm.DecodeInto(&span);
    ASSERT_EQ(span.size(), size);
    CheckSpan(span, mv);
  }
}

TEST(MeasureFoldTest, RunContainers) {
  // Contiguous ranges: run containers.
  MeasureVector mv = MakeMeasures(1 << 18, 0xC0FFEE);
  for (size_t size : kSizes) {
    SCOPED_TRACE("size = " + std::to_string(size));
    RoaringBitmap bm;
    for (size_t i = 0; i < size; ++i) {
      bm.AppendOrdered(static_cast<uint32_t>(i + 100));
    }
    std::vector<uint32_t> span;
    bm.DecodeInto(&span);
    ASSERT_EQ(span.size(), size);
    CheckSpan(span, mv);
  }
}

TEST(MeasureFoldTest, BitsetContainers) {
  // > 4096 scattered values per chunk: bitset containers. The decoded span
  // alternates short runs and gaps.
  MeasureVector mv = MakeMeasures(1 << 18, 0xDEAD);
  for (size_t size : {size_t{4097}, size_t{9000}, size_t{32768}}) {
    SCOPED_TRACE("size = " + std::to_string(size));
    RoaringBitmap bm;
    Rng rng(size);
    uint32_t v = 1;
    for (size_t i = 0; i < size; ++i) {
      bm.AppendOrdered(v);
      v += 1 + static_cast<uint32_t>(rng.Uniform(3));  // gaps of 0..2
    }
    std::vector<uint32_t> span;
    bm.DecodeInto(&span);
    ASSERT_EQ(span.size(), size);
    CheckSpan(span, mv);
  }
}

TEST(MeasureFoldTest, AllFactsMissingMeasure) {
  MeasureVector mv;
  mv.Init(1 << 12);  // every count == 0
  std::vector<uint32_t> span;
  for (uint32_t f = 0; f < 1000; ++f) span.push_back(f);
  const FoldResult fold = FoldMeasure(span, mv);
  // The fold identity, exactly: +0.0 count/sum, +/-inf min/max.
  EXPECT_EQ(Bits(fold.count), Bits(+0.0));
  EXPECT_EQ(Bits(fold.sum), Bits(+0.0));
  EXPECT_EQ(fold.min, kInf);
  EXPECT_EQ(fold.max, -kInf);
}

TEST(MeasureFoldTest, SingleFact) {
  MeasureVector mv = MakeMeasures(64, 0x5EED);
  for (uint32_t f = 0; f < 64; ++f) {
    std::vector<uint32_t> span{f};
    CheckSpan(span, mv);
  }
}

// --- contracts of the fixed accumulation order ----------------------------

TEST(MeasureFoldTest, ReduceOrderIsSequentialOverLanes) {
  FoldAcc acc;
  acc.Reset();
  // Doubles chosen so the sum depends on association order.
  const double v[4] = {1e16, 1.0, -1e16, 1.0};
  for (size_t l = 0; l < kFoldLanes; ++l) {
    acc.count[l] = static_cast<double>(l);
    acc.sum[l] = v[l];
    acc.min[l] = static_cast<double>(l);
    acc.max[l] = static_cast<double>(l);
  }
  const FoldResult r = Reduce(acc);
  EXPECT_EQ(Bits(r.sum), Bits(((v[0] + v[1]) + v[2]) + v[3]));
  EXPECT_EQ(r.count, 0.0 + 1.0 + 2.0 + 3.0);
  EXPECT_EQ(r.min, 0.0);
  EXPECT_EQ(r.max, 3.0);
}

TEST(MeasureFoldTest, LaneStridingIsGlobalRankMod4) {
  // Fold a 6-element span by hand in lane-strided order and compare bits:
  // element i lands in lane i % 4, reduction is lane 0..3 sequential.
  MeasureVector mv = MakeMeasures(64, 0xFEED);
  for (uint32_t f = 0; f < 64; ++f) mv.count[f] = 1;  // all present
  std::vector<uint32_t> span{2, 3, 11, 17, 23, 42};
  double lane_sum[4] = {0, 0, 0, 0};
  for (size_t i = 0; i < span.size(); ++i) {
    lane_sum[i % 4] += mv.sum[span[i]];
  }
  const double expect = ((lane_sum[0] + lane_sum[1]) + lane_sum[2]) + lane_sum[3];
  const FoldResult r = FoldMeasure(span, mv);
  EXPECT_EQ(Bits(r.sum), Bits(expect));
}

TEST(MeasureFoldTest, ResultIndependentOfBitmapRepresentation) {
  // The same value set decoded from an inline set and from a spilled
  // container must fold to the same bits (the reason the fold runs on the
  // full-cell DecodeInto span, not per internal block).
  MeasureVector mv = MakeMeasures(1 << 17, 0x1DEA);
  RoaringBitmap inline_bm;
  RoaringBitmap spilled;
  std::vector<uint32_t> values = {5, 70000, 70001, 90000, 90001, 90002};
  for (uint32_t v : values) inline_bm.AppendOrdered(v);  // stays inline
  for (uint32_t v : values) spilled.Add(v);
  for (uint32_t v = 200000; v < 200100; ++v) spilled.Add(v);  // force spill
  // (spilled now has extra values; intersect back to the original set)
  spilled.IntersectWith(inline_bm);
  std::vector<uint32_t> a, b;
  inline_bm.DecodeInto(&a);
  spilled.DecodeInto(&b);
  ASSERT_EQ(a, b);
  ExpectBitEqual(FoldMeasure(a, mv), FoldMeasure(b, mv));
}

}  // namespace
}  // namespace spade
