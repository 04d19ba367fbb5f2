#include "src/store/delta.h"

#include <algorithm>
#include <map>

namespace spade {

TripleDeltaByProperty GroupDeltaByProperty(const std::vector<Triple>& added,
                                           const std::vector<Triple>& removed,
                                           TermId rdf_type) {
  TripleDeltaByProperty out;
  // The inputs are in SPO order, so the subsequence of any fixed property is
  // already sorted by (subject, object) and unique — no per-property re-sort.
  std::map<TermId, PropertyDelta> by_property;
  auto scatter = [&](const std::vector<Triple>& triples, bool is_add) {
    for (const Triple& t : triples) {
      if (t.p == rdf_type) {
        out.type_changed = true;
        continue;
      }
      PropertyDelta& d = by_property[t.p];
      d.property = t.p;
      (is_add ? d.adds : d.removes).emplace_back(t.s, t.o);
    }
  };
  scatter(added, /*is_add=*/true);
  scatter(removed, /*is_add=*/false);
  out.properties.reserve(by_property.size());
  for (auto& [p, delta] : by_property) {
    out.properties.push_back(std::move(delta));
  }
  return out;
}

AttributeTable MergeTableWithDelta(const AttributeTable* base,
                                   const PropertyDelta& delta) {
  // Stage (base rows \ removes) merged with the adds, in one forward walk
  // over each sorted input: the rows arrive in order, so Seal() compacts
  // them without sorting.
  const std::vector<AttributeTable::Row>& adds = delta.adds;
  const std::vector<AttributeTable::Row>& removes = delta.removes;
  AttributeTable table;
  table.origin = AttrOrigin::kDirect;
  table.property = delta.property;
  size_t ai = 0;
  if (base != nullptr) {
    size_t ri = 0;
    base->ForEachRow([&](TermId s, TermId o) {
      const AttributeTable::Row row{s, o};
      while (ri < removes.size() && removes[ri] < row) ++ri;
      if (ri < removes.size() && removes[ri] == row) {
        ++ri;
        return;
      }
      for (; ai < adds.size() && adds[ai] < row; ++ai) {
        table.AddRow(adds[ai].first, adds[ai].second);
      }
      table.AddRow(s, o);
    });
  }
  for (; ai < adds.size(); ++ai) table.AddRow(adds[ai].first, adds[ai].second);
  table.Seal();
  return table;
}

bool SameColumns(const AttributeTable& a, const AttributeTable& b) {
  auto eq = [](auto x, auto y) {
    return x.size() == y.size() && std::equal(x.begin(), x.end(), y.begin());
  };
  return eq(a.subjects(), b.subjects()) && eq(a.offsets(), b.offsets()) &&
         eq(a.objects(), b.objects());
}

CanonTerm RenderTerm(const Dictionary& dict, TermId id) {
  CanonTerm t;
  t.kind = dict.KindOf(id);
  t.lexical = std::string(dict.LexicalOf(id));
  t.language = std::string(dict.LanguageOf(id));
  const TermId datatype = dict.DatatypeOf(id);
  if (datatype != kInvalidTerm) {
    t.datatype = std::string(dict.LexicalOf(datatype));
  }
  return t;
}

std::vector<CanonTriple> ExtractCanonicalTriples(const Graph& graph) {
  const Dictionary& dict = graph.dict();
  std::vector<CanonTriple> out;
  Span<Triple> triples = graph.triples();
  out.reserve(triples.size());
  for (const Triple& t : triples) {
    out.push_back(CanonTriple{RenderTerm(dict, t.s), RenderTerm(dict, t.p),
                              RenderTerm(dict, t.o)});
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

TermId InternCanonTerm(Graph* graph, const CanonTerm& term) {
  Dictionary& dict = graph->dict();
  switch (term.kind) {
    case TermKind::kIri:
      return dict.InternIri(term.lexical);
    case TermKind::kBlank:
      return dict.InternBlank(term.lexical);
    case TermKind::kLiteral: {
      const TermId datatype =
          term.datatype.empty() ? kInvalidTerm : dict.InternIri(term.datatype);
      return dict.Intern(Term::Literal(term.lexical, datatype, term.language));
    }
  }
  return kInvalidTerm;
}

void BuildCanonicalGraph(const std::vector<CanonTriple>& sorted, Graph* out) {
  for (const CanonTriple& t : sorted) {
    const TermId s = InternCanonTerm(out, t.s);
    const TermId p = InternCanonTerm(out, t.p);
    const TermId o = InternCanonTerm(out, t.o);
    out->Add(s, p, o);
  }
  out->Freeze();
}

}  // namespace spade
