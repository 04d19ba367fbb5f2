#include "src/stats/attr_stats.h"

#include <algorithm>
#include <cctype>
#include <limits>
#include <vector>

#include "src/util/string_util.h"

namespace spade {

const char* ValueKindName(ValueKind kind) {
  switch (kind) {
    case ValueKind::kEmpty:
      return "empty";
    case ValueKind::kInteger:
      return "integer";
    case ValueKind::kDecimal:
      return "decimal";
    case ValueKind::kDate:
      return "date";
    case ValueKind::kText:
      return "text";
    case ValueKind::kReference:
      return "reference";
    case ValueKind::kMixed:
      return "mixed";
  }
  return "?";
}

namespace {

/// Number of distinct ids among `values` (sorted in place) — one sort and
/// one linear unique pass, no per-value node allocation.
size_t CountDistinct(std::vector<TermId>* values) {
  std::sort(values->begin(), values->end());
  return static_cast<size_t>(std::unique(values->begin(), values->end()) -
                             values->begin());
}

}  // namespace

bool LooksLikeDate(std::string_view s) {
  if (s.size() != 10 || s[4] != '-' || s[7] != '-') return false;
  for (size_t i : {0u, 1u, 2u, 3u, 5u, 6u, 8u, 9u}) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  }
  return true;
}

AttrStats ComputeAttrStats(const AttributeStore& db, AttrId attr) {
  const AttributeTable& table = db.attribute(attr);
  const Dictionary& dict = db.graph().dict();

  AttrStats st;
  st.num_values = table.num_rows();
  if (table.empty()) return st;

  size_t num_int = 0, num_dec = 0, num_date = 0, num_text = 0, num_ref = 0;
  double total_len = 0;
  st.min_value = std::numeric_limits<double>::infinity();
  st.max_value = -std::numeric_limits<double>::infinity();

  // Subject-run bookkeeping is free in the CSR layout: one offset slice per
  // distinct subject.
  st.num_subjects = table.num_subjects();
  for (size_t i = 0; i < table.num_subjects(); ++i) {
    if (table.values(i).size() >= 2) ++st.num_multi_subjects;
  }
  for (TermId o : table.objects()) {
    if (dict.KindOf(o) != TermKind::kLiteral) {
      ++num_ref;
      continue;
    }
    const std::string_view lexical = dict.LexicalOf(o);
    int64_t iv;
    double dv;
    if (ParseInt64(lexical, &iv)) {
      ++num_int;
      st.min_value = std::min(st.min_value, static_cast<double>(iv));
      st.max_value = std::max(st.max_value, static_cast<double>(iv));
    } else if (ParseDouble(lexical, &dv)) {
      ++num_dec;
      st.min_value = std::min(st.min_value, dv);
      st.max_value = std::max(st.max_value, dv);
    } else if (LooksLikeDate(lexical)) {
      ++num_date;
    } else {
      ++num_text;
      total_len += static_cast<double>(lexical.size());
    }
  }
  std::vector<TermId> values(table.objects().begin(), table.objects().end());
  st.num_distinct_values = CountDistinct(&values);
  if (num_text > 0) st.avg_text_length = total_len / static_cast<double>(num_text);

  // Classify: a kind must cover >= 95% of the values, otherwise kMixed.
  // (Real graphs have stray values; a couple of bad literals should not stop
  // a numeric property from being a measure.)
  size_t n = st.num_values;
  auto dominates = [n](size_t c) { return c * 20 >= n * 19; };
  if (dominates(num_ref)) {
    st.kind = ValueKind::kReference;
  } else if (dominates(num_int)) {
    st.kind = ValueKind::kInteger;
  } else if (dominates(num_int + num_dec)) {
    st.kind = ValueKind::kDecimal;
  } else if (dominates(num_date)) {
    st.kind = ValueKind::kDate;
  } else if (dominates(num_text + num_date)) {
    st.kind = ValueKind::kText;
  } else {
    st.kind = ValueKind::kMixed;
  }
  if (!st.numeric()) {
    st.min_value = 0;
    st.max_value = 0;
  }
  return st;
}

OnlineAttrStats ComputeOnlineStats(const AttributeStore& db, const CfsIndex& cfs,
                                   AttrId attr) {
  const AttributeTable& table = db.attribute(attr);
  OnlineAttrStats st;
  std::vector<TermId> values;

  // Each CFS member that is a subject contributes its whole value slice.
  ForEachCfsMatch(table, cfs.members(), [&](size_t /*mi*/, size_t si) {
    Span<TermId> vals = table.values(si);
    ++st.support;
    if (vals.size() >= 2) ++st.num_multi_facts;
    values.insert(values.end(), vals.begin(), vals.end());
  });
  st.num_values = values.size();
  st.num_distinct_values = CountDistinct(&values);
  return st;
}

}  // namespace spade
