#include "src/store/attribute_store.h"

#include <algorithm>

namespace spade {

const char* AttrOriginName(AttrOrigin origin) {
  switch (origin) {
    case AttrOrigin::kDirect:
      return "direct";
    case AttrOrigin::kCount:
      return "count";
    case AttrOrigin::kKeyword:
      return "keyword";
    case AttrOrigin::kLanguage:
      return "language";
    case AttrOrigin::kPath:
      return "path";
  }
  return "?";
}

void AttributeTable::Seal() {
  if (sealed_) return;
  if (!std::is_sorted(staging_.begin(), staging_.end())) {
    std::sort(staging_.begin(), staging_.end());
  }
  staging_.erase(std::unique(staging_.begin(), staging_.end()),
                 staging_.end());
  // Exact reserve for the object column; the subject/offset columns grow
  // amortized (pre-counting distinct subjects would cost a second pass).
  objects_.reserve(staging_.size());
  for (const auto& [s, o] : staging_) {
    if (subjects_.empty() || subjects_.back() != s) {
      subjects_.push_back(s);
      offsets_.push_back(static_cast<uint32_t>(objects_.size()));
    }
    objects_.push_back(o);
  }
  offsets_.push_back(static_cast<uint32_t>(objects_.size()));
  std::vector<std::pair<TermId, TermId>>().swap(staging_);
  sealed_ = true;
  RebindViews();
}

size_t AttributeTable::SubjectIndexOf(TermId subject) const {
  auto it = std::lower_bound(subjects_view_.begin(), subjects_view_.end(),
                             subject);
  if (it == subjects_view_.end() || *it != subject) return kNoSubject;
  return static_cast<size_t>(it - subjects_view_.begin());
}

Span<TermId> AttributeTable::ValuesOf(TermId subject) const {
  size_t i = SubjectIndexOf(subject);
  if (i == kNoSubject) return Span<TermId>();
  return values(i);
}

CfsIndex::CfsIndex(std::vector<TermId> members_sorted)
    : members_(std::move(members_sorted)) {
  // Defensive: dense ids require sorted unique members.
  std::sort(members_.begin(), members_.end());
  members_.erase(std::unique(members_.begin(), members_.end()), members_.end());
}

FactId CfsIndex::FactOf(TermId node) const {
  auto it = std::lower_bound(members_.begin(), members_.end(), node);
  if (it == members_.end() || *it != node) return kInvalidFact;
  return static_cast<FactId>(it - members_.begin());
}

std::vector<FactRange> MakeFactShards(size_t num_facts, size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  std::vector<FactRange> shards(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards[s].begin = static_cast<FactId>(s * num_facts / num_shards);
    shards[s].end = static_cast<FactId>((s + 1) * num_facts / num_shards);
  }
  return shards;
}

void AttributeStore::BuildDirectAttributes() {
  const TermId rdf_type = graph_->rdf_type();
  for (TermId p : graph_->AllProperties()) {
    if (p == rdf_type) continue;
    AttributeTable table;
    table.name = LocalName(graph_->dict().LexicalOf(p));
    table.origin = AttrOrigin::kDirect;
    table.property = p;
    graph_->Match(kInvalidTerm, p, kInvalidTerm, [&](const Triple& t) {
      table.AddRow(t.s, t.o);
    });
    AddAttribute(std::move(table));
  }
}

AttrId AttributeStore::AddAttribute(AttributeTable table) {
  table.Seal();
  // Disambiguate name collisions (two IRIs with the same local name).
  std::string name = table.name;
  int suffix = 2;
  while (by_name_.count(name)) {
    name = table.name + "#" + std::to_string(suffix++);
  }
  table.name = name;
  AttrId id = static_cast<AttrId>(attributes_.size());
  by_name_[table.name] = id;
  attributes_.push_back(std::move(table));
  return id;
}

std::optional<AttrId> AttributeStore::FindAttribute(
    const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

std::vector<AttrId> AttributeStore::DirectAttributes() const {
  std::vector<AttrId> out;
  for (AttrId id = 0; id < attributes_.size(); ++id) {
    if (attributes_[id].origin == AttrOrigin::kDirect) out.push_back(id);
  }
  return out;
}

std::string AttributeStore::LocalName(std::string_view iri) {
  size_t pos = iri.find_last_of("#/");
  if (pos == std::string_view::npos || pos + 1 >= iri.size()) {
    return std::string(iri);
  }
  return std::string(iri.substr(pos + 1));
}

}  // namespace spade
