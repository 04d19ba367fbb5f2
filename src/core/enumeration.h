#ifndef SPADE_CORE_ENUMERATION_H_
#define SPADE_CORE_ENUMERATION_H_

#include <vector>

#include "src/core/aggregate.h"
#include "src/exec/thread_pool.h"
#include "src/stats/attr_stats.h"
#include "src/store/attribute_store.h"

namespace spade {

/// The largest `max_dims` the CLI's --max-dims and the serve grammar's
/// max-dims= accept. A lattice over N dimensions has 2^N nodes, and the
/// lattice code assumes small N.
constexpr size_t kMaxLatticeDims = 4;

/// The min_support_ratio range the CLI's --min-support and the serve
/// grammar's min-support= accept: (0, 1]. Written so that NaN fails.
inline bool ValidMinSupportRatio(double r) { return r > 0 && r <= 1; }

/// Rules of Aggregate Enumeration (Section 3, step 3).
struct EnumerationOptions {
  /// Rule (a-i): dimensions and measures must be frequent.
  double min_support_ratio = 0.1;
  /// Rule (a-ii): dimensions must not have too many distinct values relative
  /// to the number of facts ...
  double max_distinct_ratio = 0.5;
  /// ... nor in absolute terms (no grouping CEOs by birthday).
  size_t max_distinct_values = 500;
  /// Rule (b-i): lattices have at most N dimensions; readability peaks at
  /// N in {1,2,3,4}.
  size_t max_dims = 3;
  /// Complexity guards for large CFSs.
  size_t max_lattices_per_cfs = 24;
  size_t max_measures_per_lattice = 8;
  /// Assign min/max in addition to sum/avg to numeric measures.
  bool use_min_max = true;
};

/// Per-CFS view of one attribute after Online Attribute Analysis
/// (Section 3, step 2).
struct AnalyzedAttribute {
  AttrId attr = kInvalidAttr;
  OnlineAttrStats online;
  bool good_dimension = false;
  bool good_measure = false;
};

/// The analyzed-attribute pool of one CFS.
struct CfsAnalysis {
  std::vector<AnalyzedAttribute> attrs;

  const AnalyzedAttribute* Find(AttrId attr) const {
    for (const auto& a : attrs) {
      if (a.attr == attr) return &a;
    }
    return nullptr;
  }
};

/// Step 2: compute CFS-dependent statistics for every attribute whose support
/// in the CFS is non-zero, and classify candidates as dimension / measure
/// material. `offline` is the AttrStats array aligned with the database's
/// attribute ids (kind and global value bounds come from it). With a
/// `scheduler` the per-attribute statistics fan out one task per attribute;
/// classification stays in attribute order, so the result is the same.
CfsAnalysis AnalyzeAttributes(const AttributeStore& db, const CfsIndex& cfs,
                              const std::vector<AttrStats>& offline,
                              const EnumerationOptions& options,
                              TaskScheduler* scheduler = nullptr);

/// Step 3: derive the lattices of a CFS.
///   (b) dimension sets = maximal frequent sets of good dimensions, filtered
///       to at most N attributes, with derivation conflicts removed (an
///       attribute and one derived from it cannot co-occur);
///   (c) measures = good measures minus the dimensions and attributes tied
///       to a dimension by derivation; every lattice also carries the
///       implicit count-of-facts measure (COUNT(*)).
std::vector<LatticeSpec> EnumerateLattices(const AttributeStore& db,
                                           const CfsIndex& cfs,
                                           const CfsAnalysis& analysis,
                                           const std::vector<AttrStats>& offline,
                                           const EnumerationOptions& options);

/// Total number of MDAs induced by a set of lattices (2^N nodes, each
/// carrying every measure), after cross-lattice deduplication. This is the
/// "#A" statistic of Table 2.
size_t CountCandidateAggregates(uint32_t cfs_id,
                                const std::vector<LatticeSpec>& lattices);

}  // namespace spade

#endif  // SPADE_CORE_ENUMERATION_H_
