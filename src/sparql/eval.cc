#include "src/sparql/eval.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

namespace spade {
namespace sparql {

namespace {

constexpr TermId kUnbound = kInvalidTerm;

// Resolve a pattern position under the current partial binding.
TermId Resolve(const PatternTerm& pt, const std::vector<TermId>& binding) {
  if (!pt.is_var) return pt.term;
  return binding[pt.var];
}

// True if the filter accepts the bound value.
bool FilterPasses(const Filter& f, TermId value, const Dictionary& dict) {
  if (f.numeric) {
    double v;
    if (!dict.NumericValue(value, &v)) return false;
    switch (f.op) {
      case Filter::Op::kEq:
        return v == f.num;
      case Filter::Op::kNe:
        return v != f.num;
      case Filter::Op::kLt:
        return v < f.num;
      case Filter::Op::kLe:
        return v <= f.num;
      case Filter::Op::kGt:
        return v > f.num;
      case Filter::Op::kGe:
        return v >= f.num;
    }
    return false;
  }
  switch (f.op) {
    case Filter::Op::kEq:
      return value == f.term;
    case Filter::Op::kNe:
      return value != f.term;
    default: {
      // Order non-numeric terms by lexical form.
      const std::string_view a = dict.LexicalOf(value);
      const std::string_view b = dict.LexicalOf(f.term);
      switch (f.op) {
        case Filter::Op::kLt:
          return a < b;
        case Filter::Op::kLe:
          return a <= b;
        case Filter::Op::kGt:
          return a > b;
        case Filter::Op::kGe:
          return a >= b;
        default:
          return false;
      }
    }
  }
}

class BgpSolver {
 public:
  BgpSolver(const Query& query, const Graph& graph)
      : query_(query), graph_(graph), binding_(query.var_names.size(), kUnbound) {}

  std::vector<std::vector<TermId>> Solve() {
    used_.assign(query_.where.size(), false);
    Recurse(0);
    return std::move(solutions_);
  }

 private:
  // Estimated number of matches for `tp` under the current binding; used to
  // greedily pick the next pattern.
  double EstimateCost(const TriplePattern& tp) const {
    TermId s = Resolve(tp.s, binding_);
    TermId p = Resolve(tp.p, binding_);
    TermId o = Resolve(tp.o, binding_);
    int bound = (s != kUnbound) + (p != kUnbound) + (o != kUnbound);
    // Coarse but effective: more bound positions first; subject-bound beats
    // object-bound beats predicate-bound at equal counts.
    double base = std::pow(1000.0, 3 - bound);
    if (s != kUnbound) base *= 0.25;
    if (o != kUnbound) base *= 0.5;
    return base;
  }

  void Recurse(size_t depth) {
    if (depth == query_.where.size()) {
      solutions_.push_back(binding_);
      return;
    }
    // Pick the cheapest unused pattern.
    size_t best = query_.where.size();
    double best_cost = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < query_.where.size(); ++i) {
      if (used_[i]) continue;
      double cost = EstimateCost(query_.where[i]);
      if (cost < best_cost) {
        best_cost = cost;
        best = i;
      }
    }
    const TriplePattern& tp = query_.where[best];
    used_[best] = true;

    TermId s = Resolve(tp.s, binding_);
    TermId p = Resolve(tp.p, binding_);
    TermId o = Resolve(tp.o, binding_);
    graph_.Match(s, p, o, [&](const Triple& t) {
      // Bind the free positions; a variable occurring twice in the pattern
      // must match consistently.
      std::vector<std::pair<int, TermId>> newly;
      auto bind = [&](const PatternTerm& pt, TermId val) -> bool {
        if (!pt.is_var) return true;
        TermId& slot = binding_[pt.var];
        if (slot == kUnbound) {
          slot = val;
          newly.emplace_back(pt.var, val);
          return true;
        }
        return slot == val;
      };
      bool ok = bind(tp.s, t.s) && bind(tp.p, t.p) && bind(tp.o, t.o);
      if (ok) {
        // Filters whose variable just became bound.
        for (const Filter& f : query_.filters) {
          bool fresh = false;
          for (const auto& [var, val] : newly) fresh |= (var == f.var);
          if (fresh && !FilterPasses(f, binding_[f.var], graph_.dict())) {
            ok = false;
            break;
          }
        }
      }
      if (ok) Recurse(depth + 1);
      for (const auto& [var, val] : newly) binding_[var] = kUnbound;
    });

    used_[best] = false;
  }

  const Query& query_;
  const Graph& graph_;
  std::vector<TermId> binding_;
  std::vector<bool> used_;
  std::vector<std::vector<TermId>> solutions_;
};

// Accumulator for one aggregate inside one group.
struct AggState {
  double sum = 0;
  int64_t count = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  std::set<TermId> distinct_terms;  // for DISTINCT
  bool saw_non_numeric = false;

  void Accept(const SelectItem& item, TermId value, const Dictionary& dict) {
    if (item.distinct) {
      if (!distinct_terms.insert(value).second) return;
    }
    double v = 0;
    bool numeric = dict.NumericValue(value, &v);
    if (!numeric) saw_non_numeric = true;
    ++count;
    if (numeric) {
      sum += v;
      min = std::min(min, v);
      max = std::max(max, v);
    }
  }

  Value Finish(const SelectItem& item) const {
    switch (item.func) {
      case AggFunc::kCount:
        return Value::OfNumber(static_cast<double>(count));
      case AggFunc::kSum:
        return Value::OfNumber(sum);
      case AggFunc::kAvg:
        return Value::OfNumber(count == 0 ? 0 : sum / static_cast<double>(count));
      case AggFunc::kMin:
        return Value::OfNumber(count == 0 ? 0 : min);
      case AggFunc::kMax:
        return Value::OfNumber(count == 0 ? 0 : max);
    }
    return Value::OfNumber(0);
  }
};

}  // namespace

Result<std::vector<std::vector<TermId>>> SolveBgp(const Query& query,
                                                  const Graph& graph) {
  for (const auto& f : query.filters) {
    if (f.var < 0 || f.var >= static_cast<int>(query.var_names.size())) {
      return Status::InvalidArgument("filter variable out of range");
    }
  }
  BgpSolver solver(query, graph);
  return solver.Solve();
}

Result<ResultSet> Evaluate(const Query& query, const Graph& graph) {
  Result<std::vector<std::vector<TermId>>> solutions = SolveBgp(query, graph);
  if (!solutions.ok()) return solutions.status();

  ResultSet rs;
  for (const auto& item : query.select) rs.columns.push_back(item.alias);

  if (!query.HasAggregates() && query.group_by.empty()) {
    // Plain projection.
    std::set<std::vector<TermId>> seen;
    for (const auto& sol : *solutions) {
      std::vector<TermId> proj;
      proj.reserve(query.select.size());
      for (const auto& item : query.select) proj.push_back(sol[item.var]);
      if (query.select_distinct && !seen.insert(proj).second) continue;
      std::vector<Value> row;
      row.reserve(proj.size());
      for (TermId t : proj) row.push_back(Value::OfTerm(t));
      rs.rows.push_back(std::move(row));
      if (query.limit >= 0 && static_cast<int64_t>(rs.rows.size()) >= query.limit) {
        break;
      }
    }
    return rs;
  }

  // Group solutions by the GROUP BY key.
  std::map<std::vector<TermId>, std::vector<AggState>> groups;
  size_t num_aggs = 0;
  for (const auto& item : query.select) num_aggs += item.is_aggregate;

  for (const auto& sol : *solutions) {
    std::vector<TermId> key;
    key.reserve(query.group_by.size());
    for (int g : query.group_by) key.push_back(sol[g]);
    auto [it, inserted] = groups.try_emplace(std::move(key));
    if (inserted) it->second.resize(num_aggs);
    size_t agg_idx = 0;
    for (const auto& item : query.select) {
      if (!item.is_aggregate) continue;
      AggState& st = it->second[agg_idx++];
      if (item.count_star) {
        // COUNT(*): count the solution itself. DISTINCT * is not supported
        // (and not produced by the pipeline).
        ++st.count;
      } else {
        TermId v = sol[item.var];
        if (v != kUnbound) st.Accept(item, v, graph.dict());
      }
    }
  }

  for (const auto& [key, states] : groups) {
    std::vector<Value> row;
    row.reserve(query.select.size());
    size_t agg_idx = 0;
    for (const auto& item : query.select) {
      if (item.is_aggregate) {
        row.push_back(states[agg_idx++].Finish(item));
      } else {
        // Validated: non-aggregate select items are GROUP BY variables.
        for (size_t g = 0; g < query.group_by.size(); ++g) {
          if (query.group_by[g] == item.var) {
            row.push_back(Value::OfTerm(key[g]));
            break;
          }
        }
      }
    }
    rs.rows.push_back(std::move(row));
    if (query.limit >= 0 && static_cast<int64_t>(rs.rows.size()) >= query.limit) {
      break;
    }
  }
  return rs;
}

}  // namespace sparql
}  // namespace spade
