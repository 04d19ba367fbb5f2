#ifndef SPADE_RDF_DICTIONARY_H_
#define SPADE_RDF_DICTIONARY_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/rdf/term.h"
#include "src/util/span.h"

namespace spade {

/// \brief Bidirectional term <-> TermId mapping.
///
/// All triples are dictionary-encoded on ingestion; ids are dense, assigned
/// in intern order and start at 1 (0 is kInvalidTerm), so modules can use
/// ids directly as array indices. Interning the same term twice returns the
/// same id.
///
/// Every term is stored one way, the layout snapshots persist: a record
/// array (slot 0 invalid) of byte ranges into one arena that holds each
/// term's lexical bytes, then its language bytes. The read accessors go
/// through two views, which point either at the dictionary's own vectors
/// or, after AttachArena(), at a snapshot's records and arena (typically an
/// mmap'd segment): one path, no copies, no locks, no allocation. The
/// intern index is an open-addressing table of TermIds, hashed from (kind,
/// lexical, datatype, language) as read back through the records. After an
/// attach it is built lazily, by the first Lookup or Intern; the first
/// Intern also copies the attached records and arena into the owned
/// vectors ("thaws" them), so appends never touch the mapping. Saving is a
/// copy of records() and arena().
///
/// Move-only: a move keeps every view valid because a vector move keeps its
/// buffer (which is also why the arena is a vector<char>, not a string).
/// Any mutation invalidates the string_views handed out before it.
class Dictionary {
 public:
  /// One term of the record array: a byte range of the arena (language
  /// bytes follow the lexical bytes). Fixed 24-byte layout, persisted
  /// verbatim; bump the snapshot version when changing it.
  struct ArenaRecord {
    uint64_t lex_offset = 0;  ///< byte offset of the lexical form
    uint32_t lex_len = 0;     ///< lexical byte count
    uint32_t datatype = 0;    ///< datatype TermId (kInvalidTerm = none)
    uint16_t lang_len = 0;    ///< language-tag bytes, stored after lexical
    uint8_t kind = 0;         ///< TermKind
    uint8_t pad0 = 0;
    uint32_t pad1 = 0;
  };
  static_assert(sizeof(ArenaRecord) == 24, "persisted layout");

  /// Longest lexical form and language tag a record can hold. The readers
  /// refuse longer ones; Intern throws std::length_error.
  static constexpr size_t kMaxLexicalBytes = std::numeric_limits<uint32_t>::max();
  static constexpr size_t kMaxLanguageBytes = std::numeric_limits<uint16_t>::max();

  Dictionary();

  /// Intern a term, returning its (possibly pre-existing) id.
  /// Not thread-safe (external synchronization, as for any mutation).
  TermId Intern(const Term& term);

  /// Convenience interners.
  TermId InternIri(const std::string& iri) { return Intern(Term::Iri(iri)); }
  TermId InternBlank(const std::string& label) { return Intern(Term::Blank(label)); }
  TermId InternString(const std::string& lex) { return Intern(Term::Literal(lex)); }
  TermId InternInteger(int64_t v);
  TermId InternDouble(double v);

  /// Lookup without interning. On an attached dictionary the first call
  /// builds the intern index (so it is not const-thread-safe until either
  /// Lookup or Intern has run once after AttachArena).
  std::optional<TermId> Lookup(const Term& term) const;

  /// Full term of `id`, copied out. The view accessors below read the same
  /// fields without allocating.
  Term Get(TermId id) const;

  TermKind KindOf(TermId id) const {
    return static_cast<TermKind>(records_view_[id].kind);
  }
  std::string_view LexicalOf(TermId id) const {
    const ArenaRecord& r = records_view_[id];
    return std::string_view(arena_view_.data() + r.lex_offset, r.lex_len);
  }
  std::string_view LanguageOf(TermId id) const {
    const ArenaRecord& r = records_view_[id];
    return std::string_view(arena_view_.data() + r.lex_offset + r.lex_len,
                            r.lang_len);
  }
  TermId DatatypeOf(TermId id) const { return records_view_[id].datatype; }

  /// Number of interned terms (excluding the invalid slot).
  size_t size() const { return records_view_.size() - 1; }

  /// Largest valid id (== size()).
  TermId max_id() const { return static_cast<TermId>(size()); }

  /// True if `id` names a literal whose lexical form parses as a number;
  /// fills *out (hot path of the measure loaders).
  bool NumericValue(TermId id, double* out) const;

  /// The record array (slot 0 invalid) and the arena, as a snapshot stores
  /// them. Valid until the next mutation.
  Span<ArenaRecord> records() const { return records_view_; }
  Span<char> arena() const { return arena_view_; }

  /// Replace the dictionary's contents with a snapshot's record array +
  /// arena. records[0] must be the invalid slot (id == index). The backing
  /// memory must outlive the dictionary, or its first Intern.
  void AttachArena(Span<ArenaRecord> records, Span<char> arena);

 private:
  bool attached() const { return records_view_.data() != records_.data(); }
  /// Point the views at the owned vectors.
  void ViewOwned() {
    records_view_ = Span<ArenaRecord>(records_);
    arena_view_ = Span<char>(arena_);
  }
  /// (Re)build the intern index over every term, at most half full. The
  /// first Lookup or Intern after an attach calls it.
  void Rehash() const;
  /// The index slot holding the term, or the empty slot where it would go.
  size_t FindSlot(TermKind kind, std::string_view lexical, TermId datatype,
                  std::string_view language) const;

  std::vector<ArenaRecord> records_;  ///< owned; empty while attached
  std::vector<char> arena_;           ///< owned; empty while attached
  Span<ArenaRecord> records_view_;    ///< records_ or the attached records
  Span<char> arena_view_;             ///< arena_ or the attached arena

  /// Intern index: TermIds, kInvalidTerm = empty, linear probing, at most
  /// half full. Null after an attach until Rehash().
  mutable std::unique_ptr<TermId[]> slots_;
  mutable size_t num_slots_ = 0;

  // Cached datatype ids, interned lazily.
  TermId xsd_integer_ = kInvalidTerm;
  TermId xsd_double_ = kInvalidTerm;
};

}  // namespace spade

#endif  // SPADE_RDF_DICTIONARY_H_
