#ifndef SPADE_STATS_ATTR_STATS_H_
#define SPADE_STATS_ATTR_STATS_H_

#include <string>
#include <string_view>

#include "src/store/attribute_store.h"

namespace spade {

/// Inferred kind of an attribute's values.
enum class ValueKind : uint8_t {
  kEmpty = 0,
  kInteger,    ///< all values parse as integers
  kDecimal,    ///< all values numeric, some fractional
  kDate,       ///< all values look like YYYY-MM-DD
  kText,       ///< string literals
  kReference,  ///< IRIs / blank nodes (graph links)
  kMixed,      ///< none of the above dominates
};

const char* ValueKindName(ValueKind kind);

/// \brief Offline (whole-graph) statistics of one attribute
/// (Section 3, Offline Attribute Analysis).
///
/// These drive derivation decisions: counts for multi-valued attributes,
/// keywords/language for long text, paths for reference attributes.
struct AttrStats {
  ValueKind kind = ValueKind::kEmpty;
  size_t num_subjects = 0;        ///< distinct subjects having the attribute
  size_t num_values = 0;          ///< total (s,o) rows
  size_t num_distinct_values = 0;
  size_t num_multi_subjects = 0;  ///< subjects with >= 2 values
  double min_value = 0;           ///< numeric attrs only
  double max_value = 0;
  double avg_text_length = 0;     ///< text attrs only

  bool multi_valued() const { return num_multi_subjects > 0; }
  bool numeric() const {
    return kind == ValueKind::kInteger || kind == ValueKind::kDecimal;
  }
};

/// Compute offline statistics of `attr` over the whole graph.
AttrStats ComputeAttrStats(const AttributeStore& db, AttrId attr);

/// \brief Online (CFS-dependent) statistics (Section 3, step 2): the same
/// attribute can be a fine dimension for one fact set and useless for
/// another, so support/distinct counts are re-derived per CFS.
struct OnlineAttrStats {
  size_t support = 0;             ///< facts of the CFS having the attribute
  size_t num_values = 0;
  size_t num_distinct_values = 0;
  size_t num_multi_facts = 0;     ///< facts with >= 2 values

  double SupportRatio(size_t cfs_size) const {
    return cfs_size == 0 ? 0.0
                         : static_cast<double>(support) /
                               static_cast<double>(cfs_size);
  }
  double DistinctRatio(size_t cfs_size) const {
    return cfs_size == 0 ? 0.0
                         : static_cast<double>(num_distinct_values) /
                               static_cast<double>(cfs_size);
  }
};

/// Compute the CFS-restricted statistics of `attr`.
OnlineAttrStats ComputeOnlineStats(const AttributeStore& db, const CfsIndex& cfs,
                                   AttrId attr);

/// True if the literal's lexical form looks like an xsd:date (YYYY-MM-DD).
bool LooksLikeDate(std::string_view lexical);

}  // namespace spade

#endif  // SPADE_STATS_ATTR_STATS_H_
