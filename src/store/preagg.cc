#include "src/store/preagg.h"

#include <algorithm>
#include <limits>

namespace spade {

void MeasureVector::Init(size_t n) {
  count.assign(n, 0);
  sum.assign(n, 0.0);
  min.assign(n, std::numeric_limits<double>::infinity());
  max.assign(n, -std::numeric_limits<double>::infinity());
}

MeasureFillFlags FillMeasureVectorRange(const AttributeStore& db,
                                        const CfsIndex& cfs, AttrId attr,
                                        FactRange range, MeasureVector* mv) {
  const AttributeTable& table = db.attribute(attr);
  const Dictionary& dict = db.graph().dict();
  MeasureFillFlags flags;

  // A matched subject contributes its whole value slice to one slot.
  ForEachCfsMatch(table, cfs.members(), range.begin, range.end,
                  [&](size_t mi, size_t si) {
    FactId f = static_cast<FactId>(mi);
    Span<TermId> vals = table.values(si);
    mv->count[f] = static_cast<uint32_t>(vals.size());
    if (vals.size() > 1) flags.single_valued = false;
    for (TermId o : vals) {
      double v;
      if (dict.NumericValue(o, &v)) {
        mv->sum[f] += v;
        mv->min[f] = std::min(mv->min[f], v);
        mv->max[f] = std::max(mv->max[f], v);
      } else {
        flags.numeric = false;
      }
    }
  });
  return flags;
}

MeasureVector BuildMeasureVector(const AttributeStore& db, const CfsIndex& cfs,
                                 AttrId attr) {
  MeasureVector mv;
  size_t n = cfs.size();
  mv.Init(n);
  MeasureFillFlags flags = FillMeasureVectorRange(
      db, cfs, attr, FactRange{0, static_cast<FactId>(n)}, &mv);
  mv.numeric = flags.numeric;
  mv.single_valued = flags.single_valued;
  return mv;
}

namespace {
constexpr double kPosInf = std::numeric_limits<double>::infinity();
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}  // namespace

void FoldAcc::Reset() {
  for (size_t l = 0; l < kFoldLanes; ++l) {
    count[l] = 0.0;
    sum[l] = 0.0;
    min[l] = kPosInf;
    max[l] = kNegInf;
  }
}

FoldResult Reduce(const FoldAcc& acc) {
  // The one fixed order: ((l0 op l1) op l2) op l3, comparison-form min/max.
  FoldResult r;
  r.count = acc.count[0];
  r.sum = acc.sum[0];
  r.min = acc.min[0];
  r.max = acc.max[0];
  for (size_t l = 1; l < kFoldLanes; ++l) {
    r.count += acc.count[l];
    r.sum += acc.sum[l];
    r.min = r.min < acc.min[l] ? r.min : acc.min[l];
    r.max = r.max > acc.max[l] ? r.max : acc.max[l];
  }
  return r;
}

FoldResult FoldMeasure(Span<FactId> facts, const MeasureVector& mv) {
  static_assert(kFoldLanes == 4, "lane striding below assumes 4 lanes");
  const uint32_t* count = mv.count.data();
  const double* sum = mv.sum.data();
  const double* min = mv.min.data();
  const double* max = mv.max.data();
  FoldAcc acc;
  acc.Reset();
  for (size_t i = 0; i < facts.size(); ++i) {
    const size_t lane = i & (kFoldLanes - 1);
    const FactId f = facts[i];
    // A missing fact (count 0) adds the identity to its lane rather than
    // being skipped; count 0 converts to +0.0, so count needs no select.
    const bool present = count[f] != 0;
    const double c = static_cast<double>(static_cast<int32_t>(count[f]));
    const double s = present ? sum[f] : 0.0;
    const double lo = present ? min[f] : kPosInf;
    const double hi = present ? max[f] : kNegInf;
    acc.count[lane] += c;
    acc.sum[lane] += s;
    acc.min[lane] = acc.min[lane] < lo ? acc.min[lane] : lo;
    acc.max[lane] = acc.max[lane] > hi ? acc.max[lane] : hi;
  }
  return Reduce(acc);
}

}  // namespace spade
