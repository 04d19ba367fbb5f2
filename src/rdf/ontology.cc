#include "src/rdf/ontology.h"

#include <map>
#include <set>
#include <vector>

namespace spade {

namespace {

// Transitive closure of a successor relation, as sorted adjacency.
void Close(std::map<TermId, std::set<TermId>>* rel) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& [from, tos] : *rel) {
      std::set<TermId> add;
      for (TermId mid : tos) {
        auto it = rel->find(mid);
        if (it == rel->end()) continue;
        for (TermId to : it->second) {
          if (to != from && !tos.count(to)) add.insert(to);
        }
      }
      if (!add.empty()) {
        tos.insert(add.begin(), add.end());
        changed = true;
      }
    }
  }
}

}  // namespace

size_t Saturate(Graph* graph) {
  Dictionary& dict = graph->dict();
  const TermId type = graph->rdf_type();
  const TermId sub_class = dict.InternIri(vocab::kRdfsSubClassOf);
  const TermId sub_prop = dict.InternIri(vocab::kRdfsSubPropertyOf);
  const TermId domain = dict.InternIri(vocab::kRdfsDomain);
  const TermId range = dict.InternIri(vocab::kRdfsRange);

  // Collect schema triples.
  std::map<TermId, std::set<TermId>> class_up, prop_up;
  std::map<TermId, std::vector<TermId>> prop_domain, prop_range;
  graph->Match(kInvalidTerm, sub_class, kInvalidTerm, [&](const Triple& t) {
    class_up[t.s].insert(t.o);
  });
  graph->Match(kInvalidTerm, sub_prop, kInvalidTerm, [&](const Triple& t) {
    prop_up[t.s].insert(t.o);
  });
  graph->Match(kInvalidTerm, domain, kInvalidTerm, [&](const Triple& t) {
    prop_domain[t.s].push_back(t.o);
  });
  graph->Match(kInvalidTerm, range, kInvalidTerm, [&](const Triple& t) {
    prop_range[t.s].push_back(t.o);
  });

  Close(&class_up);
  Close(&prop_up);

  size_t before = graph->NumTriples();

  // Schema closure triples (rdfs5 / rdfs11).
  for (const auto& [c, ups] : class_up) {
    for (TermId up : ups) graph->Add(c, sub_class, up);
  }
  for (const auto& [p, ups] : prop_up) {
    for (TermId up : ups) graph->Add(p, sub_prop, up);
  }

  // Instance rules. Property propagation (rdfs7) can trigger domain/range
  // typing of the *super* property, and typing can trigger class closure, so
  // we apply: (1) propagate properties through the closed subPropertyOf,
  // (2) apply domain/range over the propagated data, (3) close types through
  // the closed subClassOf. Because the property closure is transitive, one
  // round of each suffices for a fixpoint.
  std::vector<Triple> data = graph->triples().ToVector();
  for (const Triple& t : data) {
    auto it = prop_up.find(t.p);
    if (it != prop_up.end()) {
      for (TermId super : it->second) graph->Add(t.s, super, t.o);
    }
  }

  data = graph->triples().ToVector();
  for (const Triple& t : data) {
    auto dit = prop_domain.find(t.p);
    if (dit != prop_domain.end()) {
      for (TermId c : dit->second) graph->Add(t.s, type, c);
    }
    auto rit = prop_range.find(t.p);
    if (rit != prop_range.end()) {
      if (dict.KindOf(t.o) != TermKind::kLiteral) {
        for (TermId c : rit->second) graph->Add(t.o, type, c);
      }
    }
  }

  data = graph->triples().ToVector();
  for (const Triple& t : data) {
    if (t.p != type) continue;
    auto it = class_up.find(t.o);
    if (it != class_up.end()) {
      for (TermId super : it->second) graph->Add(t.s, type, super);
    }
  }

  graph->Freeze();
  return graph->NumTriples() - before;
}

}  // namespace spade
