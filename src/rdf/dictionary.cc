#include "src/rdf/dictionary.h"

#include <functional>
#include <stdexcept>

#include "src/util/string_util.h"

namespace spade {

namespace {

constexpr size_t kMinSlots = 16;

size_t HashTerm(TermKind kind, std::string_view lexical, TermId datatype,
                std::string_view language) {
  const std::hash<std::string_view> hash;
  uint64_t h = hash(lexical);
  if (!language.empty()) h ^= hash(language) * 0x9e3779b97f4a7c15ULL;
  h ^= (uint64_t{datatype} << 8 | static_cast<uint8_t>(kind)) *
       0xc2b2ae3d27d4eb4fULL;
  return static_cast<size_t>(h ^ (h >> 32));
}

}  // namespace

Dictionary::Dictionary() : records_(1) { ViewOwned(); }  // slot 0 = invalid

void Dictionary::Rehash() const {
  num_slots_ = kMinSlots;
  while (num_slots_ < 2 * (size() + 1)) num_slots_ *= 2;
  slots_ = std::make_unique<TermId[]>(num_slots_);  // zeroed: all empty
  const size_t mask = num_slots_ - 1;
  for (TermId id = 1; id <= size(); ++id) {
    // Ids are distinct terms: take the first empty slot, compare nothing.
    size_t slot =
        HashTerm(KindOf(id), LexicalOf(id), DatatypeOf(id), LanguageOf(id)) &
        mask;
    while (slots_[slot] != kInvalidTerm) slot = (slot + 1) & mask;
    slots_[slot] = id;
  }
}

size_t Dictionary::FindSlot(TermKind kind, std::string_view lexical,
                            TermId datatype, std::string_view language) const {
  const size_t mask = num_slots_ - 1;
  size_t slot = HashTerm(kind, lexical, datatype, language) & mask;
  for (;; slot = (slot + 1) & mask) {
    const TermId id = slots_[slot];
    if (id == kInvalidTerm ||
        (KindOf(id) == kind && DatatypeOf(id) == datatype &&
         LexicalOf(id) == lexical && LanguageOf(id) == language)) {
      return slot;
    }
  }
}

TermId Dictionary::Intern(const Term& term) {
  if (term.lexical.size() > kMaxLexicalBytes) {
    throw std::length_error("term lexical form longer than 4 GiB");
  }
  if (term.language.size() > kMaxLanguageBytes) {
    throw std::length_error("language tag longer than 65535 bytes");
  }
  if (slots_ == nullptr) Rehash();
  if (attached()) {
    // Thaw: appends go to owned vectors, never to the mapping.
    records_.assign(records_view_.begin(), records_view_.end());
    arena_.assign(arena_view_.begin(), arena_view_.end());
    ViewOwned();
  }
  const size_t slot =
      FindSlot(term.kind, term.lexical, term.datatype, term.language);
  if (slots_[slot] != kInvalidTerm) return slots_[slot];

  const TermId id = static_cast<TermId>(records_.size());
  ArenaRecord r;
  r.lex_offset = arena_.size();
  r.lex_len = static_cast<uint32_t>(term.lexical.size());
  r.datatype = term.datatype;
  r.lang_len = static_cast<uint16_t>(term.language.size());
  r.kind = static_cast<uint8_t>(term.kind);
  records_.push_back(r);
  arena_.insert(arena_.end(), term.lexical.begin(), term.lexical.end());
  arena_.insert(arena_.end(), term.language.begin(), term.language.end());
  ViewOwned();
  slots_[slot] = id;
  if (2 * (size() + 1) > num_slots_) Rehash();
  return id;
}

TermId Dictionary::InternInteger(int64_t v) {
  if (xsd_integer_ == kInvalidTerm) xsd_integer_ = InternIri(vocab::kXsdInteger);
  return Intern(Term::Literal(std::to_string(v), xsd_integer_));
}

TermId Dictionary::InternDouble(double v) {
  if (xsd_double_ == kInvalidTerm) xsd_double_ = InternIri(vocab::kXsdDouble);
  return Intern(Term::Literal(FormatDouble(v, 6), xsd_double_));
}

std::optional<TermId> Dictionary::Lookup(const Term& term) const {
  if (slots_ == nullptr) Rehash();
  const TermId id =
      slots_[FindSlot(term.kind, term.lexical, term.datatype, term.language)];
  if (id == kInvalidTerm) return std::nullopt;
  return id;
}

Term Dictionary::Get(TermId id) const {
  return Term{KindOf(id), std::string(LexicalOf(id)), DatatypeOf(id),
              std::string(LanguageOf(id))};
}

bool Dictionary::NumericValue(TermId id, double* out) const {
  if (id == kInvalidTerm || id > max_id()) return false;
  if (KindOf(id) != TermKind::kLiteral) return false;
  return ParseDouble(LexicalOf(id), out);
}

void Dictionary::AttachArena(Span<ArenaRecord> records, Span<char> arena) {
  records_ = std::vector<ArenaRecord>();
  arena_ = std::vector<char>();
  records_view_ = records;
  arena_view_ = arena;
  slots_.reset();
  num_slots_ = 0;
  // Re-resolved through the index if anything interns after the attach.
  xsd_integer_ = kInvalidTerm;
  xsd_double_ = kInvalidTerm;
}

}  // namespace spade
