#ifndef SPADE_STORE_PREAGG_H_
#define SPADE_STORE_PREAGG_H_

#include <cstddef>
#include <vector>

#include "src/store/attribute_store.h"
#include "src/util/span.h"

namespace spade {

/// \brief Per-fact pre-aggregated measure values (Section 3, offline phase;
/// consumed by Measure Loading in Section 4.3).
///
/// For an attribute M and a CFS, slot f holds the aggregate of M's values on
/// fact f: count(M), sum(M), min(M), max(M). Facts without the attribute have
/// count 0. Group-level aggregates then combine per-fact slots so that each
/// fact contributes its values exactly once per group — the key to MVDCube's
/// correctness under multi-valued dimensions:
///
///   group count = sum of fact counts     group sum = sum of fact sums
///   group avg   = group sum / group count
///   group min   = min of fact mins       group max = max of fact maxs
///
/// The paper's single-slot optimization for single-valued numeric properties
/// is reflected in `single_valued`: min == max == sum for every fact, so
/// callers may read one array.
struct MeasureVector {
  std::vector<uint32_t> count;
  std::vector<double> sum;
  std::vector<double> min;
  std::vector<double> max;
  bool numeric = false;        ///< all present values parse as numbers
  bool single_valued = false;  ///< no fact has two values

  size_t size() const { return count.size(); }

  /// Size all slots to `n` facts and reset them to the identity of the
  /// per-fact merge (count 0, +/-inf min/max sentinels). The one definition
  /// both the unsharded build and the sharded per-range fill initialize
  /// from — the sharded path's bit-identical guarantee depends on it.
  void Init(size_t n);
};

/// Build the measure vector of `attr` over the facts of `cfs`. Non-numeric
/// values contribute to count only; `numeric` is false if any present value
/// fails to parse.
MeasureVector BuildMeasureVector(const AttributeStore& db, const CfsIndex& cfs,
                                 AttrId attr);

/// Table-wide flags observed while filling one fact range; AND-combined
/// across shards (both are "no counterexample seen" properties, so the
/// combination over disjoint ranges equals the single-pass result exactly).
struct MeasureFillFlags {
  bool numeric = true;
  bool single_valued = true;
};

/// Fill slots [range.begin, range.end) of `mv` (already sized to cfs.size()).
/// Each fact's slot depends only on that fact's own rows, so disjoint ranges
/// can be filled by concurrent workers writing disjoint slots — the
/// within-CFS sharding path of the measure-loading stage.
MeasureFillFlags FillMeasureVectorRange(const AttributeStore& db,
                                        const CfsIndex& cfs, AttrId attr,
                                        FactRange range, MeasureVector* mv);

/// \brief The group fold over per-fact slots (Section 4.3's measure fold,
/// the ⊗ of Figure 5): a group's count/sum/min/max from the slots of its
/// facts, each fact counted once.
///
/// The accumulation order is fixed, and it is the spec the ARM stream and
/// every bit-identity pin are checked against. Element i of the fact span
/// (its rank across the whole span) lands in lane i mod kFoldLanes, and
/// Reduce combines the lanes in ascending order, ((l0 ⊗ l1) ⊗ l2) ⊗ l3.
/// The span a group hands in is its sorted fact-id set, which does not
/// depend on the thread, shard or worker count, so neither do the bits.
/// A fact with count 0 (measure missing) adds the fold identity to its
/// lane: +0.0 to count and sum, +inf / -inf to min / max. Min and max use
/// the comparison form `acc < v ? acc : v`, per lane and in Reduce.

/// Accumulator lanes of the fold.
constexpr size_t kFoldLanes = 4;

/// Lane-strided accumulator state.
struct FoldAcc {
  double count[kFoldLanes];
  double sum[kFoldLanes];
  double min[kFoldLanes];
  double max[kFoldLanes];

  /// Reset every lane to the fold identity (0, 0, +inf, -inf).
  void Reset();
};

/// One group's folded measure.
struct FoldResult {
  double count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
};

/// Combine the lanes of `acc` in ascending order.
FoldResult Reduce(const FoldAcc& acc);

/// Fold the slots of `facts` (each < mv.size()) in lane-strided order and
/// reduce. Per-fact counts must be < 2^31: the count converts through
/// int32_t.
FoldResult FoldMeasure(Span<FactId> facts, const MeasureVector& mv);

}  // namespace spade

#endif  // SPADE_STORE_PREAGG_H_
