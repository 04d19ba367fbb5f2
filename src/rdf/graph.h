#ifndef SPADE_RDF_GRAPH_H_
#define SPADE_RDF_GRAPH_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/rdf/dictionary.h"
#include "src/rdf/term.h"
#include "src/util/span.h"

namespace spade {

/// \brief Staged net effect of one mutation batch (see Graph::StageDelta).
///
/// Batch semantics: the final triple set is `(current \ retracts) ∪ adds`,
/// so a triple retracted and re-added in the same batch ends up present.
/// `added`/`removed` hold only the *net* changes relative to the current
/// graph; retractions of absent triples and adds of present triples are
/// counted as no-ops.
struct GraphDelta {
  std::vector<Triple> added;    ///< net-new triples (absent before), SPO order
  std::vector<Triple> removed;  ///< net-removed (present before), SPO order
  size_t noop_adds = 0;         ///< added triples that were already present
  size_t noop_retracts = 0;     ///< retractions that removed nothing
  /// The two permutations of the post-delta triple set, ready to commit.
  std::vector<Triple> spo;
  std::vector<Triple> pos;
};

/// \brief In-memory RDF graph: a dictionary plus an indexed triple set.
///
/// This is the storage substrate every other module builds on (the paper uses
/// OntoSQL over PostgreSQL; see DESIGN.md S1/S6 for the substitution).
///
/// Triples are appended, then the graph is frozen: two sorted permutations
/// (SPO, POS) are built, so a pattern with the subject or the predicate
/// bound resolves to a binary-searchable range. A pattern with only the
/// object bound scans SPO and filters on the object: Spade's own passes
/// never issue one, only the SPARQL evaluator can. Queries auto-freeze a
/// dirty graph, so interleaving writes and reads stays correct (at re-sort
/// cost).
///
/// A graph can also *borrow* its permutations (AttachTriples): the snapshot
/// loader points it at two pre-sorted, typically mmap'd arrays, and every
/// accessor binary-searches those views directly — identical semantics, zero
/// copies, O(1) attach. Adding triples to a borrowed graph thaws it (the
/// borrowed data is copied once, then the normal freeze path runs).
class Graph {
 public:
  Graph();

  Dictionary& dict() { return dict_; }
  const Dictionary& dict() const { return dict_; }

  /// Append one triple (duplicates are removed at Freeze time).
  void Add(TermId s, TermId p, TermId o);
  void Add(const Triple& t) { Add(t.s, t.p, t.o); }

  /// Convenience: intern and add in one call.
  void AddIri(const std::string& s, const std::string& p, const std::string& o);
  void AddLiteral(const std::string& s, const std::string& p, const Term& literal);

  /// Sort indexes and deduplicate. Idempotent; queries call it lazily.
  void Freeze();

  /// Borrow pre-sorted triple permutations (each sorted in its own order,
  /// deduplicated — exactly what Freeze() produces and a snapshot stores).
  /// Replaces any existing triples; the backing memory must outlive the
  /// graph, or be handed to HoldMapping(). `rdf_type` is the dictionary id
  /// of rdf:type in the attached dictionary (persisted in the snapshot
  /// header).
  void AttachTriples(Span<Triple> spo, Span<Triple> pos, TermId rdf_type);

  /// Keep `mapping` (the owner of the memory the dictionary and triples
  /// were attached to) alive as long as this graph, so the graph can
  /// outlive whoever loaded it. Released when the graph is destroyed or
  /// assigned over, or by the next HoldMapping().
  void HoldMapping(std::shared_ptr<const void> mapping) {
    mapping_ = std::move(mapping);
  }

  /// Compute the net effect of applying `adds` and `retracts` as one batch
  /// (semantics in GraphDelta's doc) without modifying the graph. The staged
  /// permutations are built by subtracting/merging the net delta against the
  /// current sorted permutations — O(T + d log d) for T triples and a delta
  /// of d — and are guaranteed identical to what Freeze() would produce for
  /// the mutated triple set. Commit with CommitDelta().
  void StageDelta(std::vector<Triple> adds, std::vector<Triple> retracts,
                  GraphDelta* out) const;

  /// Install permutations staged by StageDelta() on this graph. Only swaps
  /// (noexcept), so callers can stage fallibly and commit atomically. A
  /// borrowed graph becomes owned; the backing snapshot mapping is no longer
  /// referenced by the triple indexes (the dictionary may still borrow it).
  void CommitDelta(GraphDelta&& staged) noexcept;

  size_t NumTriples() const;

  /// True if the exact triple is present.
  bool Contains(TermId s, TermId p, TermId o) const;

  /// Enumerate triples matching a pattern; kInvalidTerm = wildcard.
  /// `fn` receives each matching Triple.
  void Match(TermId s, TermId p, TermId o,
             const std::function<void(const Triple&)>& fn) const;

  /// All objects of (s, p, *), in id order.
  std::vector<TermId> Objects(TermId s, TermId p) const;

  /// All subjects of (*, p, o), in id order.
  std::vector<TermId> Subjects(TermId p, TermId o) const;

  /// Distinct properties appearing on subject s.
  std::vector<TermId> PropertiesOf(TermId s) const;

  /// Distinct property ids in the whole graph.
  std::vector<TermId> AllProperties() const;

  /// Distinct subject ids in the whole graph (nodes with outgoing edges).
  std::vector<TermId> AllSubjects() const;

  /// Distinct objects of rdf:type triples.
  std::vector<TermId> AllTypes() const;

  /// Nodes having rdf:type `type`.
  TermId rdf_type() const { return rdf_type_; }
  std::vector<TermId> NodesOfType(TermId type) const;

  /// Full triple list (frozen order: SPO). A view: valid until the next
  /// mutation of the graph.
  Span<Triple> triples() const;

  /// The POS permutation (frozen order). Snapshot serialization persists
  /// both permutations so a load never re-sorts.
  Span<Triple> triples_pos() const;

 private:
  void EnsureFrozen() const;
  Span<Triple> spo_view() const {
    return borrowed_ ? bspo_ : Span<Triple>(spo_);
  }
  Span<Triple> pos_view() const {
    return borrowed_ ? bpos_ : Span<Triple>(pos_);
  }

  Dictionary dict_;
  TermId rdf_type_;
  mutable bool dirty_ = false;
  mutable std::vector<Triple> spo_;  // also the canonical triple list
  mutable std::vector<Triple> pos_;
  std::vector<Triple> pending_;
  // Borrowed permutations (AttachTriples); empty in owned mode.
  mutable bool borrowed_ = false;
  mutable Span<Triple> bspo_;
  mutable Span<Triple> bpos_;
  // The owner of the attached memory (HoldMapping); null for a built graph.
  std::shared_ptr<const void> mapping_;
};

}  // namespace spade

#endif  // SPADE_RDF_GRAPH_H_
