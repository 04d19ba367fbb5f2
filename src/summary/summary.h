#ifndef SPADE_SUMMARY_SUMMARY_H_
#define SPADE_SUMMARY_SUMMARY_H_

#include <cstdint>
#include <vector>

#include "src/rdf/graph.h"
#include "src/util/span.h"

namespace spade {

/// \brief RDFQuotient-style structural summary (Goasdoué et al., VLDBJ'20).
///
/// Spade's offline phase summarizes the graph to propose groups of
/// structurally equivalent nodes that become summary-based candidate fact
/// sets (Section 3, step 1).
///
/// We implement *weak equivalence*: data properties are grouped into cliques
/// — two properties are related if some node carries both (as outgoing
/// properties: source cliques; as incoming: target cliques) — and nodes are
/// equivalent iff their properties fall in the same cliques. Operationally
/// this is a union–find: every node is unioned with a per-property anchor for
/// each of its outgoing and incoming properties, which yields exactly the
/// transitively-closed weak-equivalence partition. rdf:type triples are
/// excluded from the clique computation, as in RDFQuotient, where types
/// annotate rather than define the structure; literals never form nodes.
///
/// The summary has one layout, the one snapshots persist: a CSR of class
/// offsets (num_classes + 1 entries) slicing one member array. The read
/// accessors go through two views, which point either at the summary's own
/// vectors or, after Attach(), at a snapshot's segments (typically mmap'd).
/// Move-only: a move keeps both views valid because a vector move keeps its
/// buffer.
class StructuralSummary {
 public:
  /// An empty summary (no classes).
  StructuralSummary();
  StructuralSummary(StructuralSummary&&) = default;
  StructuralSummary& operator=(StructuralSummary&&) = default;

  /// Build the summary of `graph`. Classes are ordered by descending size
  /// (ties by the union-find root they were found under), members by TermId.
  static StructuralSummary Build(const Graph& graph);

  /// Borrow the summary from CSR arrays (typically mmap'd snapshot
  /// segments): `class_offsets` (num_classes + 1 entries, starting at 0 and
  /// ending at members.size()) slices `members` into per-class sorted member
  /// lists. Replaces any built state; the backing memory must outlive the
  /// summary.
  void Attach(Span<uint32_t> class_offsets, Span<TermId> members);

  size_t num_classes() const { return class_offsets_view_.size() - 1; }

  /// Members of class `c`, sorted by TermId.
  Span<TermId> ClassMembers(size_t c) const {
    return members_view_.subspan(
        class_offsets_view_[c],
        class_offsets_view_[c + 1] - class_offsets_view_[c]);
  }

  /// The CSR as a snapshot stores it.
  Span<uint32_t> class_offsets() const { return class_offsets_view_; }
  Span<TermId> members() const { return members_view_; }

 private:
  /// Point the views at the owned vectors.
  void ViewOwned() {
    class_offsets_view_ = Span<uint32_t>(class_offsets_);
    members_view_ = Span<TermId>(members_);
  }

  std::vector<uint32_t> class_offsets_;  ///< owned; empty while attached
  std::vector<TermId> members_;          ///< owned; empty while attached
  Span<uint32_t> class_offsets_view_;    ///< class_offsets_ or attached
  Span<TermId> members_view_;            ///< members_ or attached
};

}  // namespace spade

#endif  // SPADE_SUMMARY_SUMMARY_H_
