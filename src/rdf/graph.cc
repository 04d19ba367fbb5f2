#include "src/rdf/graph.h"

#include <algorithm>

namespace spade {

namespace {

struct OrderSPO {
  bool operator()(const Triple& a, const Triple& b) const {
    if (a.s != b.s) return a.s < b.s;
    if (a.p != b.p) return a.p < b.p;
    return a.o < b.o;
  }
};
struct OrderPOS {
  bool operator()(const Triple& a, const Triple& b) const {
    if (a.p != b.p) return a.p < b.p;
    if (a.o != b.o) return a.o < b.o;
    return a.s < b.s;
  }
};

}  // namespace

Graph::Graph() { rdf_type_ = dict_.InternIri(vocab::kRdfType); }

void Graph::Add(TermId s, TermId p, TermId o) {
  pending_.push_back({s, p, o});
  dirty_ = true;
}

void Graph::AddIri(const std::string& s, const std::string& p, const std::string& o) {
  Add(dict_.InternIri(s), dict_.InternIri(p), dict_.InternIri(o));
}

void Graph::AddLiteral(const std::string& s, const std::string& p,
                       const Term& literal) {
  Add(dict_.InternIri(s), dict_.InternIri(p), dict_.Intern(literal));
}

void Graph::Freeze() {
  if (!dirty_) return;
  if (borrowed_) {
    // Thaw: adding to a borrowed graph copies the borrowed triples once,
    // then the owned path takes over (the mapping itself stays read-only).
    spo_ = bspo_.ToVector();
    bspo_ = bpos_ = Span<Triple>();
    borrowed_ = false;
  }
  spo_.insert(spo_.end(), pending_.begin(), pending_.end());
  pending_.clear();
  std::sort(spo_.begin(), spo_.end(), OrderSPO());
  spo_.erase(std::unique(spo_.begin(), spo_.end()), spo_.end());
  pos_ = spo_;
  std::sort(pos_.begin(), pos_.end(), OrderPOS());
  dirty_ = false;
}

void Graph::AttachTriples(Span<Triple> spo, Span<Triple> pos, TermId rdf_type) {
  pending_.clear();
  spo_.clear();
  pos_.clear();
  spo_.shrink_to_fit();
  pos_.shrink_to_fit();
  bspo_ = spo;
  bpos_ = pos;
  borrowed_ = true;
  dirty_ = false;
  rdf_type_ = rdf_type;
}

void Graph::StageDelta(std::vector<Triple> adds, std::vector<Triple> retracts,
                       GraphDelta* out) const {
  EnsureFrozen();
  auto sort_unique = [](std::vector<Triple>* v) {
    std::sort(v->begin(), v->end(), OrderSPO());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  };
  sort_unique(&adds);
  sort_unique(&retracts);
  Span<Triple> cur = spo_view();
  // Adds win over retractions of the same triple within one batch.
  std::vector<Triple> net_retracts;
  net_retracts.reserve(retracts.size());
  std::set_difference(retracts.begin(), retracts.end(), adds.begin(),
                      adds.end(), std::back_inserter(net_retracts), OrderSPO());
  out->removed.clear();
  std::set_intersection(net_retracts.begin(), net_retracts.end(), cur.begin(),
                        cur.end(), std::back_inserter(out->removed),
                        OrderSPO());
  out->added.clear();
  std::set_difference(adds.begin(), adds.end(), cur.begin(), cur.end(),
                      std::back_inserter(out->added), OrderSPO());
  out->noop_adds = adds.size() - out->added.size();
  out->noop_retracts = retracts.size() - out->removed.size();
  // Each staged permutation is (base \ removed) merged with added, with the
  // (small) delta re-sorted per order. The subtraction and merge both
  // preserve sortedness and uniqueness, so the result is exactly what
  // Freeze() would build for the mutated triple set.
  auto stage_perm = [&](Span<Triple> base, auto order,
                        std::vector<Triple>* dst) {
    std::vector<Triple> rem = out->removed;
    std::vector<Triple> add = out->added;
    std::sort(rem.begin(), rem.end(), order);
    std::sort(add.begin(), add.end(), order);
    std::vector<Triple> kept;
    kept.reserve(base.size() - rem.size());
    std::set_difference(base.begin(), base.end(), rem.begin(), rem.end(),
                        std::back_inserter(kept), order);
    dst->clear();
    dst->reserve(kept.size() + add.size());
    std::merge(kept.begin(), kept.end(), add.begin(), add.end(),
               std::back_inserter(*dst), order);
  };
  stage_perm(spo_view(), OrderSPO(), &out->spo);
  stage_perm(pos_view(), OrderPOS(), &out->pos);
}

void Graph::CommitDelta(GraphDelta&& staged) noexcept {
  spo_.swap(staged.spo);
  pos_.swap(staged.pos);
  pending_.clear();
  bspo_ = bpos_ = Span<Triple>();
  borrowed_ = false;
  dirty_ = false;
}

void Graph::EnsureFrozen() const { const_cast<Graph*>(this)->Freeze(); }

size_t Graph::NumTriples() const {
  EnsureFrozen();
  return spo_view().size();
}

Span<Triple> Graph::triples() const {
  EnsureFrozen();
  return spo_view();
}

Span<Triple> Graph::triples_pos() const {
  EnsureFrozen();
  return pos_view();
}

bool Graph::Contains(TermId s, TermId p, TermId o) const {
  EnsureFrozen();
  Span<Triple> spo = spo_view();
  Triple probe{s, p, o};
  return std::binary_search(spo.begin(), spo.end(), probe, OrderSPO());
}

void Graph::Match(TermId s, TermId p, TermId o,
                  const std::function<void(const Triple&)>& fn) const {
  EnsureFrozen();
  // Choose the index by bound positions; each branch scans a contiguous range
  // and post-filters remaining bound positions (at most one wildcard gap).
  // With only the object bound, the scan is all of SPO.
  Span<Triple> spo = spo_view();
  if (s != kInvalidTerm) {
    auto lo = std::lower_bound(spo.begin(), spo.end(), Triple{s, 0, 0}, OrderSPO());
    for (auto it = lo; it != spo.end() && it->s == s; ++it) {
      if (p != kInvalidTerm && it->p != p) continue;
      if (o != kInvalidTerm && it->o != o) continue;
      fn(*it);
    }
    return;
  }
  if (p != kInvalidTerm) {
    Span<Triple> pos = pos_view();
    auto lo = std::lower_bound(pos.begin(), pos.end(), Triple{0, p, 0}, OrderPOS());
    for (auto it = lo; it != pos.end() && it->p == p; ++it) {
      if (o != kInvalidTerm && it->o != o) continue;
      fn(*it);
    }
    return;
  }
  for (const Triple& t : spo) {
    if (o == kInvalidTerm || t.o == o) fn(t);
  }
}

std::vector<TermId> Graph::Objects(TermId s, TermId p) const {
  EnsureFrozen();
  std::vector<TermId> out;
  Span<Triple> spo = spo_view();
  auto lo = std::lower_bound(spo.begin(), spo.end(), Triple{s, p, 0}, OrderSPO());
  for (auto it = lo; it != spo.end() && it->s == s && it->p == p; ++it) {
    out.push_back(it->o);
  }
  return out;
}

std::vector<TermId> Graph::Subjects(TermId p, TermId o) const {
  EnsureFrozen();
  std::vector<TermId> out;
  Span<Triple> pos = pos_view();
  auto lo = std::lower_bound(pos.begin(), pos.end(), Triple{0, p, o}, OrderPOS());
  for (auto it = lo; it != pos.end() && it->p == p && it->o == o; ++it) {
    out.push_back(it->s);
  }
  return out;
}

std::vector<TermId> Graph::PropertiesOf(TermId s) const {
  EnsureFrozen();
  std::vector<TermId> out;
  Span<Triple> spo = spo_view();
  auto lo = std::lower_bound(spo.begin(), spo.end(), Triple{s, 0, 0}, OrderSPO());
  for (auto it = lo; it != spo.end() && it->s == s; ++it) {
    if (out.empty() || out.back() != it->p) out.push_back(it->p);
  }
  return out;
}

std::vector<TermId> Graph::AllProperties() const {
  EnsureFrozen();
  std::vector<TermId> out;
  for (const Triple& t : pos_view()) {
    if (out.empty() || out.back() != t.p) out.push_back(t.p);
  }
  return out;
}

std::vector<TermId> Graph::AllSubjects() const {
  EnsureFrozen();
  std::vector<TermId> out;
  for (const Triple& t : spo_view()) {
    if (out.empty() || out.back() != t.s) out.push_back(t.s);
  }
  return out;
}

std::vector<TermId> Graph::AllTypes() const {
  EnsureFrozen();
  std::vector<TermId> out;
  Span<Triple> pos = pos_view();
  auto lo = std::lower_bound(pos.begin(), pos.end(), Triple{0, rdf_type_, 0},
                             OrderPOS());
  for (auto it = lo; it != pos.end() && it->p == rdf_type_; ++it) {
    if (out.empty() || out.back() != it->o) out.push_back(it->o);
  }
  return out;
}

std::vector<TermId> Graph::NodesOfType(TermId type) const {
  return Subjects(rdf_type_, type);
}

}  // namespace spade
