#include "src/core/present.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <map>
#include <set>

#include "src/util/string_util.h"

namespace spade {

const char* VisualizationKindName(VisualizationKind kind) {
  switch (kind) {
    case VisualizationKind::kHistogram:
      return "histogram";
    case VisualizationKind::kHeatMap:
      return "heat-map";
    case VisualizationKind::kTable:
      return "table";
  }
  return "?";
}

VisualizationKind RecommendVisualization(const AggregateKey& key) {
  switch (key.dims.size()) {
    case 1:
      return VisualizationKind::kHistogram;
    case 2:
      return VisualizationKind::kHeatMap;
    default:
      return VisualizationKind::kTable;
  }
}

std::string ValueLabel(const AttributeStore& db, TermId term) {
  const Dictionary& dict = db.graph().dict();
  std::string label = dict.KindOf(term) == TermKind::kIri
                          ? AttributeStore::LocalName(dict.LexicalOf(term))
                          : std::string(dict.LexicalOf(term));
  return label.empty() ? "(empty)" : label;
}

namespace {

std::string Clip(std::string s, size_t width) {
  if (s.size() <= width) return s;
  return s.substr(0, width - 3) + "...";
}

std::string Num(double v) { return FormatDouble(v, 4); }

}  // namespace

void RenderHistogram(const AttributeStore& db, const Insight& insight,
                     const RenderOptions& options, std::ostream& os) {
  const auto& groups = insight.ranked.groups;
  if (groups.empty()) {
    os << "  (no groups)\n";
    return;
  }
  std::vector<const GroupResult*> sorted;
  for (const auto& g : groups) sorted.push_back(&g);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->value > b->value; });
  double max_abs = 0;
  for (const auto* g : sorted) max_abs = std::max(max_abs, std::fabs(g->value));
  if (max_abs <= 0) max_abs = 1;

  size_t shown = std::min(sorted.size(), options.max_rows);
  for (size_t i = 0; i < shown; ++i) {
    const GroupResult& g = *sorted[i];
    size_t bars = static_cast<size_t>(
        std::lround(static_cast<double>(options.bar_width) *
                    std::fabs(g.value) / max_abs));
    os << "  " << std::left << std::setw(static_cast<int>(options.label_width))
       << Clip(ValueLabel(db, g.dim_values[0]), options.label_width) << " |"
       << std::string(bars, '#') << " " << Num(g.value) << "\n";
  }
  if (sorted.size() > shown) {
    os << "  ... " << (sorted.size() - shown) << " more groups\n";
  }
}

void RenderHeatMap(const AttributeStore& db, const Insight& insight,
                   const RenderOptions& options, std::ostream& os) {
  const auto& groups = insight.ranked.groups;
  if (groups.empty()) {
    os << "  (no groups)\n";
    return;
  }
  // Collect row/column labels (dimension 0 = rows, 1 = columns).
  std::set<TermId> row_set, col_set;
  std::map<std::pair<TermId, TermId>, double> cells;
  double min_v = groups[0].value, max_v = groups[0].value;
  for (const auto& g : groups) {
    row_set.insert(g.dim_values[0]);
    col_set.insert(g.dim_values[1]);
    cells[{g.dim_values[0], g.dim_values[1]}] = g.value;
    min_v = std::min(min_v, g.value);
    max_v = std::max(max_v, g.value);
  }
  std::vector<TermId> rows(row_set.begin(), row_set.end());
  std::vector<TermId> cols(col_set.begin(), col_set.end());
  bool rows_clipped = rows.size() > options.max_rows;
  bool cols_clipped = cols.size() > options.max_columns;
  if (rows_clipped) rows.resize(options.max_rows);
  if (cols_clipped) cols.resize(options.max_columns);

  // Shade scale (5 levels).
  static const char* kShades[] = {" .", " -", " +", " *", " #"};
  double span = max_v - min_v;
  auto shade = [&](double v) {
    if (span <= 0) return kShades[2];
    int level = static_cast<int>(4.0 * (v - min_v) / span + 0.5);
    return kShades[std::clamp(level, 0, 4)];
  };

  size_t label_w = std::min<size_t>(options.label_width, 20);
  os << "  " << std::string(label_w, ' ');
  for (TermId c : cols) {
    os << std::right << std::setw(7) << Clip(ValueLabel(db, c), 6);
  }
  if (cols_clipped) os << " ...";
  os << "\n";
  for (TermId r : rows) {
    os << "  " << std::left << std::setw(static_cast<int>(label_w))
       << Clip(ValueLabel(db, r), label_w);
    for (TermId c : cols) {
      auto it = cells.find({r, c});
      if (it == cells.end()) {
        os << std::setw(7) << " ";
      } else {
        os << std::right << std::setw(7) << shade(it->second);
      }
    }
    os << "\n";
  }
  if (rows_clipped) os << "  ...\n";
  os << "  scale: '.' = " << Num(min_v) << "  '#' = " << Num(max_v) << "\n";
}

void RenderTable(const AttributeStore& db, const Insight& insight,
                 const RenderOptions& options, std::ostream& os) {
  const auto& groups = insight.ranked.groups;
  size_t shown = std::min(groups.size(), options.max_rows);
  for (size_t i = 0; i < shown; ++i) {
    const GroupResult& g = groups[i];
    os << "  ";
    for (size_t d = 0; d < g.dim_values.size(); ++d) {
      if (d > 0) os << " / ";
      os << Clip(ValueLabel(db, g.dim_values[d]), options.label_width);
    }
    os << " = " << Num(g.value) << "\n";
  }
  if (groups.size() > shown) {
    os << "  ... " << (groups.size() - shown) << " more rows\n";
  }
}

void RenderInsight(const AttributeStore& db, const Insight& insight,
                   const RenderOptions& options, std::ostream& os) {
  VisualizationKind kind = RecommendVisualization(insight.ranked.key);
  os << insight.description << "  [score " << Num(insight.ranked.score) << ", "
     << insight.ranked.num_groups << " groups, "
     << VisualizationKindName(kind) << "]\n";
  switch (kind) {
    case VisualizationKind::kHistogram:
      RenderHistogram(db, insight, options, os);
      break;
    case VisualizationKind::kHeatMap:
      RenderHeatMap(db, insight, options, os);
      break;
    case VisualizationKind::kTable:
      RenderTable(db, insight, options, os);
      break;
  }
}

}  // namespace spade
