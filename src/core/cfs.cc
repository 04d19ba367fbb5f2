#include "src/core/cfs.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/sparql/ast.h"

namespace spade {

std::vector<CandidateFactSet> SelectCandidateFactSets(
    const Graph& graph, const StructuralSummary* summary,
    const CfsOptions& options) {
  std::vector<CandidateFactSet> out;
  std::set<std::vector<TermId>> seen_member_sets;

  auto add = [&](CandidateFactSet cfs) {
    std::sort(cfs.members.begin(), cfs.members.end());
    cfs.members.erase(std::unique(cfs.members.begin(), cfs.members.end()),
                      cfs.members.end());
    if (cfs.members.size() < options.min_size) return;
    if (!seen_member_sets.insert(cfs.members).second) return;
    out.push_back(std::move(cfs));
  };

  if (options.type_based) {
    for (TermId type : graph.AllTypes()) {
      CandidateFactSet cfs;
      cfs.origin = CandidateFactSet::Origin::kType;
      cfs.name =
          "type:" + AttributeStore::LocalName(graph.dict().LexicalOf(type));
      cfs.members = graph.NodesOfType(type);
      cfs.type = type;
      add(std::move(cfs));
    }
  }

  for (const auto& props : options.property_sets) {
    if (props.empty()) continue;
    // Nodes having every listed outgoing property: start from the subjects of
    // the first property, filter by the rest.
    CandidateFactSet cfs;
    cfs.origin = CandidateFactSet::Origin::kProperty;
    std::string name = "props:";
    for (TermId p : props) {
      if (name.size() > 6) name += "+";
      name += AttributeStore::LocalName(graph.dict().LexicalOf(p));
    }
    cfs.name = name;
    std::vector<TermId> candidates;
    graph.Match(kInvalidTerm, props[0], kInvalidTerm, [&](const Triple& t) {
      candidates.push_back(t.s);
    });
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (TermId node : candidates) {
      bool has_all = true;
      for (size_t i = 1; i < props.size() && has_all; ++i) {
        has_all = !graph.Objects(node, props[i]).empty();
      }
      if (has_all) cfs.members.push_back(node);
    }
    add(std::move(cfs));
  }

  if (options.summary_based && summary != nullptr) {
    for (size_t c = 0; c < summary->num_classes(); ++c) {
      CandidateFactSet cfs;
      cfs.origin = CandidateFactSet::Origin::kSummary;
      cfs.name = "summary:" + std::to_string(c);
      cfs.members = summary->ClassMembers(c).ToVector();
      add(std::move(cfs));
    }
  }

  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.members.size() > b.members.size();
  });
  if (out.size() > options.max_sets) out.resize(options.max_sets);
  return out;
}

}  // namespace spade
