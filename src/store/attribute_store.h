#ifndef SPADE_STORE_ATTRIBUTE_STORE_H_
#define SPADE_STORE_ATTRIBUTE_STORE_H_

#include <algorithm>
#include <cassert>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/rdf/graph.h"
#include "src/util/span.h"
#include "src/util/status.h"

namespace spade {

/// Dense index of an attribute in the AttributeStore registry.
using AttrId = uint32_t;

/// Dense index of a fact inside one candidate fact set.
using FactId = uint32_t;

constexpr FactId kInvalidFact = static_cast<FactId>(-1);

/// How an attribute came to exist (Section 3, Derived Property Enumeration).
enum class AttrOrigin : uint8_t {
  kDirect = 0,   ///< a property of the RDF graph
  kCount,        ///< count of a multi-valued property
  kKeyword,      ///< keywords occurring in a text property
  kLanguage,     ///< language of a text property
  kPath,         ///< one-hop path p1/p2
};

const char* AttrOriginName(AttrOrigin origin);

/// \brief One attribute table t_a in columnar CSR layout: the triples
/// (s, a, o) stored as a sorted distinct-subject column, an offset column,
/// and an object column grouped by subject and sorted within each group
/// (Section 4.3 storage model, laid out for sequential scans).
///
/// Lifecycle: rows are staged with AddRow() during construction, then Seal()
/// sorts, deduplicates and compacts them into the three columns and frees the
/// staging buffer. Every read accessor requires a sealed table and is
/// zero-allocation: scans walk the columns directly, point lookups return a
/// Span into the object column.
///
/// A table can also *borrow* its columns (BorrowColumns): the snapshot
/// loader points the three column views straight into an mmap'd segment and
/// the table is sealed without ever owning the data. All read accessors go
/// through the views, so owned and borrowed tables are indistinguishable to
/// every consumer.
class AttributeTable {
 public:
  /// One staged (subject, object) row; the delta merge works on these.
  using Row = std::pair<TermId, TermId>;

  /// Human-readable name: the property's local name for direct attributes,
  /// "count(x)" / "kwIn(x)" / "langOf(x)" / "p/q" for derived ones.
  std::string name;
  AttrOrigin origin = AttrOrigin::kDirect;
  /// Property term for direct attributes (kInvalidTerm for derived).
  TermId property = kInvalidTerm;
  /// The attribute this one was derived from (kInvalidAttr if direct).
  /// Enumeration rule 3(b-ii)/(c): an attribute and its derivation cannot be
  /// dimensions of the same lattice nor dimension+measure of one aggregate.
  AttrId derived_from = static_cast<AttrId>(-1);

  AttributeTable() = default;
  // The column views must track the owning vectors across copies and moves
  // (a moved vector keeps its heap buffer, a copied one gets a fresh one).
  AttributeTable(const AttributeTable& other) { *this = other; }
  AttributeTable& operator=(const AttributeTable& other) {
    if (this == &other) return *this;
    name = other.name;
    origin = other.origin;
    property = other.property;
    derived_from = other.derived_from;
    staging_ = other.staging_;
    subjects_ = other.subjects_;
    offsets_ = other.offsets_;
    objects_ = other.objects_;
    sealed_ = other.sealed_;
    borrowed_ = other.borrowed_;
    subjects_view_ = other.subjects_view_;
    offsets_view_ = other.offsets_view_;
    objects_view_ = other.objects_view_;
    RebindViews();
    return *this;
  }
  AttributeTable(AttributeTable&& other) noexcept { *this = std::move(other); }
  AttributeTable& operator=(AttributeTable&& other) noexcept {
    if (this == &other) return *this;
    name = std::move(other.name);
    origin = other.origin;
    property = other.property;
    derived_from = other.derived_from;
    staging_ = std::move(other.staging_);
    subjects_ = std::move(other.subjects_);
    offsets_ = std::move(other.offsets_);
    objects_ = std::move(other.objects_);
    sealed_ = other.sealed_;
    borrowed_ = other.borrowed_;
    subjects_view_ = other.subjects_view_;
    offsets_view_ = other.offsets_view_;
    objects_view_ = other.objects_view_;
    RebindViews();
    return *this;
  }

  // --- Building (staging rows; cheap appends, no ordering requirement).

  /// Stage one (subject, object) row. Must precede Seal(): rows staged
  /// after sealing would be silently invisible to every accessor.
  void AddRow(TermId subject, TermId object) {
    assert(!sealed_ && "AddRow after Seal(): staged rows would be lost");
    staging_.emplace_back(subject, object);
  }
  /// Rows staged so far (derivation loops cap their output on this).
  size_t num_staged() const { return staging_.size(); }

  /// Sort + dedup the staged rows and compact them into the CSR columns,
  /// freeing the staging buffer. Rows staged in ascending order skip the
  /// sort (the delta merge stages them so). Idempotent on an already-sealed
  /// table.
  void Seal();
  bool sealed() const { return sealed_; }

  /// Seal the table directly onto externally owned columns (typically views
  /// into an mmap'd snapshot segment). The columns must be a valid CSR
  /// triple exactly as Seal() produces it: sorted distinct subjects,
  /// offsets of size num_subjects + 1 with offsets.back() == objects.size(),
  /// values grouped by subject and sorted within each group. The backing
  /// memory must outlive the table. Must be the table's first seal.
  void BorrowColumns(Span<TermId> subjects, Span<uint32_t> offsets,
                     Span<TermId> objects) {
    assert(!sealed_ && staging_.empty() &&
           "BorrowColumns on a table that was staged or sealed");
    subjects_view_ = subjects;
    offsets_view_ = offsets;
    objects_view_ = objects;
    borrowed_ = true;
    sealed_ = true;
  }
  /// True if the columns are views into external memory.
  bool borrowed() const { return borrowed_; }

  // --- Columnar read accessors (sealed tables only; none allocates).

  /// Total (subject, object) pairs.
  size_t num_rows() const { return objects_view_.size(); }
  bool empty() const { return objects_view_.empty(); }
  /// Distinct subjects, in ascending TermId order.
  Span<TermId> subjects() const { return subjects_view_; }
  size_t num_subjects() const { return subjects_view_.size(); }
  /// The i-th distinct subject (ascending order).
  TermId subject(size_t i) const { return subjects_view_[i]; }
  /// Object values of the i-th distinct subject, ascending, deduplicated.
  Span<TermId> values(size_t i) const {
    return objects_view_.subspan(offsets_view_[i],
                                 offsets_view_[i + 1] - offsets_view_[i]);
  }
  /// The whole object column (values grouped by subject).
  Span<TermId> objects() const { return objects_view_; }
  /// The offset column (size num_subjects() + 1; snapshot serialization).
  Span<uint32_t> offsets() const { return offsets_view_; }

  static constexpr size_t kNoSubject = static_cast<size_t>(-1);
  /// Position of `subject` in the subject column, kNoSubject if absent.
  size_t SubjectIndexOf(TermId subject) const;
  /// All object values of `subject` (empty span if absent), by binary search.
  Span<TermId> ValuesOf(TermId subject) const;

  /// Visit every (subject, object) row in sorted order: fn(subject, object).
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    const TermId* obj = objects_view_.data();
    const uint32_t* off = offsets_view_.data();
    for (size_t i = 0; i < subjects_view_.size(); ++i) {
      const TermId s = subjects_view_[i];
      for (uint32_t k = off[i], end = off[i + 1]; k < end; ++k) {
        fn(s, obj[k]);
      }
    }
  }

 private:
  /// Point the views at the owned columns (no-op for borrowed tables, whose
  /// views already target external memory). Seal paths and the copy/move
  /// operations call this.
  void RebindViews() {
    if (borrowed_) return;
    subjects_view_ = Span<TermId>(subjects_);
    offsets_view_ = Span<uint32_t>(offsets_);
    objects_view_ = Span<TermId>(objects_);
  }

  std::vector<Row> staging_;
  std::vector<TermId> subjects_;   ///< sorted distinct subjects
  std::vector<uint32_t> offsets_;  ///< size num_subjects()+1; objects_ slices
  std::vector<TermId> objects_;    ///< values grouped by subject, sorted
  /// All read accessors go through these views: owned mode points them at
  /// the vectors above (RebindViews), borrowed mode at external memory.
  Span<TermId> subjects_view_;
  Span<uint32_t> offsets_view_;
  Span<TermId> objects_view_;
  bool sealed_ = false;
  bool borrowed_ = false;
};

constexpr AttrId kInvalidAttr = static_cast<AttrId>(-1);

/// Merge join of `table`'s subject column against `members[begin, end)`, a
/// slice of a sorted CFS member list: calls fn(member_index, subject_index)
/// for every member that is a subject of the table, in ascending order. The
/// scan starts at the slice's own subjects, so K range-disjoint calls do
/// O(S) combined subject-scan work. This is the one audited implementation
/// of the store's central scan discipline — statistics, dimension encoding,
/// enumeration transactions and measure loading all go through it.
template <typename Fn>
void ForEachCfsMatch(const AttributeTable& table,
                     const std::vector<TermId>& members, size_t begin,
                     size_t end, Fn&& fn) {
  if (begin >= end) return;
  Span<TermId> subjects = table.subjects();
  size_t si = static_cast<size_t>(
      std::lower_bound(subjects.begin(), subjects.end(), members[begin]) -
      subjects.begin());
  for (size_t mi = begin; mi < end && si < subjects.size(); ++mi) {
    while (si < subjects.size() && subjects[si] < members[mi]) ++si;
    if (si == subjects.size() || subjects[si] != members[mi]) continue;
    fn(mi, si);
  }
}

/// ForEachCfsMatch over the whole member list.
template <typename Fn>
void ForEachCfsMatch(const AttributeTable& table,
                     const std::vector<TermId>& members, Fn&& fn) {
  ForEachCfsMatch(table, members, 0, members.size(), std::forward<Fn>(fn));
}

/// \brief Dense fact numbering for one CFS: bitmaps and measure vectors are
/// aligned on these ids ("ordered by the IDs of the CFs", Section 4.3).
class CfsIndex {
 public:
  explicit CfsIndex(std::vector<TermId> members_sorted);

  FactId FactOf(TermId node) const;
  TermId NodeOf(FactId fact) const { return members_[fact]; }
  size_t size() const { return members_.size(); }
  const std::vector<TermId>& members() const { return members_; }

 private:
  std::vector<TermId> members_;  // sorted by TermId; FactId = position
};

/// \brief Half-open fact-id range [begin, end): the unit of within-CFS
/// sharding. Shard s of K over a CFS of n facts owns [s*n/K, (s+1)*n/K) —
/// contiguous ranges in ascending fact order, so per-shard partial results
/// concatenate/merge back in ascending shard order exactly.
struct FactRange {
  FactId begin = 0;
  FactId end = 0;
  size_t size() const { return end - begin; }
  bool empty() const { return begin >= end; }
};

/// The `num_shards` contiguous ranges partitioning `num_facts` facts.
/// Ranges cover [0, num_facts) exactly; trailing ranges may be empty when
/// num_shards > num_facts.
std::vector<FactRange> MakeFactShards(size_t num_facts, size_t num_shards);

/// \brief The columnar analytical store: attribute tables over one RDF graph.
///
/// The paper stores one table per attribute in PostgreSQL via OntoSQL; this
/// class is the in-memory equivalent and the single data access point for
/// statistics, derivations, and all three cube algorithms. Tables live in a
/// deque, so a reference obtained from attribute() stays valid across later
/// AddAttribute() calls (derivations read source tables while registering
/// new ones).
class AttributeStore {
 public:
  explicit AttributeStore(Graph* graph) : graph_(graph) {}

  /// Build one table per distinct property of the graph (skipping rdf:type,
  /// which drives CFS selection instead of analysis). Offline step.
  void BuildDirectAttributes();

  /// Register a derived attribute table (seals it). Returns its id.
  AttrId AddAttribute(AttributeTable table);

  const AttributeTable& attribute(AttrId id) const { return attributes_[id]; }
  size_t num_attributes() const { return attributes_.size(); }

  std::optional<AttrId> FindAttribute(const std::string& name) const;

  /// Ids of all direct attributes.
  std::vector<AttrId> DirectAttributes() const;

  const Graph& graph() const { return *graph_; }

  /// Derivations intern new literal values (counts, keywords, languages).
  Dictionary* mutable_dict() { return &graph_->dict(); }

  /// Human-readable local name of a property IRI (suffix after '#' or '/').
  static std::string LocalName(std::string_view iri);

 private:
  Graph* graph_;
  std::deque<AttributeTable> attributes_;  ///< deque: stable references
  std::unordered_map<std::string, AttrId> by_name_;
};

}  // namespace spade

#endif  // SPADE_STORE_ATTRIBUTE_STORE_H_
