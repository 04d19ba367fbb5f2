#include "src/core/arraycube.h"

#include "src/core/reference.h"

#include <cassert>
#include <algorithm>
#include <limits>
#include <map>

namespace spade {

namespace {

/// Per-measure value accumulator; the cell payload of classical ArrayCube.
struct ValueAcc {
  double count = 0;
  double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

struct ValueCell {
  double count_star = 0;
  /// Root fact buffer (strictly ascending: translation emits facts in id
  /// order and a fact's distinct value combinations land in distinct
  /// cells). Folded lazily through FoldMeasure (src/store/preagg.h) on
  /// first merge/emit, then dropped — ArrayCube's root fold is the same
  /// gather-accumulate the MVDCube emit runs, so both algorithms share one
  /// fold.
  std::vector<uint32_t> facts;
  bool folded = false;
  std::vector<ValueAcc> accs;  ///< one per measure attribute
  bool Empty() const { return count_star == 0; }
};

}  // namespace

std::vector<AggregateResult> EvaluateLatticeArrayCube(
    const AttributeStore& db, uint32_t cfs_id, const CfsIndex& cfs,
    const LatticeSpec& spec, const MvdCubeOptions& options,
    MeasureCache* measures) {
  size_t n = spec.dims.size();

  std::vector<DimensionEncoding> encodings;
  Mmst mmst =
      BuildMmstForSpec(db, cfs, spec, &encodings, options.partition_chunk);

  TranslationOptions topt;
  topt.max_combos_per_fact = options.max_combos_per_fact;
  Translation translation = TranslateData(encodings, mmst.layout(), topt);

  // Distinct measure attributes (functions share accumulators).
  std::vector<AttrId> measure_attrs;
  for (const auto& m : spec.measures) {
    if (!m.is_count_star()) measure_attrs.push_back(m.attr);
  }
  std::sort(measure_attrs.begin(), measure_attrs.end());
  measure_attrs.erase(std::unique(measure_attrs.begin(), measure_attrs.end()),
                      measure_attrs.end());
  std::vector<const MeasureVector*> loaded;
  loaded.reserve(measure_attrs.size());
  for (AttrId a : measure_attrs) loaded.push_back(&measures->Get(db, cfs, a));
  auto attr_slot = [&](AttrId a) {
    return static_cast<size_t>(
        std::lower_bound(measure_attrs.begin(), measure_attrs.end(), a) -
        measure_attrs.begin());
  };

  // Group accumulators per (node mask, dim values).
  std::map<std::pair<uint32_t, std::vector<TermId>>, ValueCell> collected;

  CubeScaffold<ValueCell> scaffold(&mmst);
  auto load = [&](ValueCell* cell, FactId fact) {
    // Root loading = one relational join row: the fact joins the cell once
    // per dimension-value combination. Only the fact id is recorded here;
    // the measure gather-accumulate is deferred so it runs as one fold per
    // (cell, measure attr).
    assert(cell->facts.empty() || fact > cell->facts.back());
    cell->count_star += 1;
    cell->facts.push_back(fact);
  };
  // Fold a root cell's fact buffer into value accumulators via the shared
  // fold, then drop the buffer. Idempotent; cells that only ever received
  // merges (every non-root node) have no buffer and fold to identity accs.
  auto fold_cell = [&](ValueCell* cell) {
    if (cell->folded) return;
    cell->folded = true;
    cell->accs.assign(measure_attrs.size(), ValueAcc());
    for (size_t a = 0; a < measure_attrs.size(); ++a) {
      const FoldResult r = FoldMeasure(cell->facts, *loaded[a]);
      cell->accs[a] = ValueAcc{r.count, r.sum, r.min, r.max};
    }
    cell->facts.clear();
    cell->facts.shrink_to_fit();
  };
  auto merge = [&](ValueCell* dst, ValueCell& src) {
    // The incorrect step: combining aggregated values, not fact sets.
    // Folding src here (not at load) keeps the root pass allocation-light;
    // dst is always a sub-node cell built purely from merges, folded only
    // to normalize its acc layout.
    fold_cell(&src);
    fold_cell(dst);
    dst->count_star += src.count_star;
    for (size_t a = 0; a < src.accs.size(); ++a) {
      ValueAcc& d = dst->accs[a];
      const ValueAcc& s = src.accs[a];
      d.count += s.count;
      d.sum += s.sum;
      d.min = std::min(d.min, s.min);
      d.max = std::max(d.max, s.max);
    }
  };
  auto emit = [&](uint32_t mask, Span<int32_t> coords, ValueCell& cell) {
    fold_cell(&cell);
    std::vector<TermId> dim_values;
    for (size_t d = 0; d < n; ++d) {
      if (!(mask & (1u << d))) continue;
      if (coords[d] >= encodings[d].null_code()) return;  // null group
      dim_values.push_back(encodings[d].values[coords[d]]);
    }
    // The scaffold clears the cell right after emit, so stealing is safe.
    collected[{mask, std::move(dim_values)}] = std::move(cell);
  };
  scaffold.Run(translation, load, merge, emit);

  // Lay out results per (node, measure).
  std::vector<AggregateResult> out;
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<AttrId> dims;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) dims.push_back(spec.dims[i]);
    }
    for (const auto& m : spec.measures) {
      AggregateResult result;
      result.key.cfs_id = cfs_id;
      result.key.dims = dims;
      result.key.measure = m;
      auto lo = collected.lower_bound({mask, {}});
      for (auto it = lo; it != collected.end() && it->first.first == mask; ++it) {
        const ValueCell& cell = it->second;
        double value = 0;
        if (m.is_count_star()) {
          value = cell.count_star;
        } else {
          ValueAcc acc;
          if (!cell.accs.empty()) acc = cell.accs[attr_slot(m.attr)];
          if (acc.count == 0) continue;
          switch (m.func) {
            case sparql::AggFunc::kCount:
              value = acc.count;
              break;
            case sparql::AggFunc::kSum:
              value = acc.sum;
              break;
            case sparql::AggFunc::kAvg:
              value = acc.sum / acc.count;
              break;
            case sparql::AggFunc::kMin:
              value = acc.min;
              break;
            case sparql::AggFunc::kMax:
              value = acc.max;
              break;
          }
        }
        result.groups.push_back(GroupResult{it->first.second, value});
      }
      SortGroups(&result);
      out.push_back(std::move(result));
    }
  }
  return out;
}

}  // namespace spade
