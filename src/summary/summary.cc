#include "src/summary/summary.h"

#include <algorithm>
#include <map>
#include <set>

namespace spade {

namespace {

/// Plain union-find over dense indices.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent_[a] = b;
  }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

StructuralSummary StructuralSummary::Build(const Graph& graph) {
  return Build(graph, Options());
}

StructuralSummary StructuralSummary::Build(const Graph& graph,
                                           const Options& options) {
  const Dictionary& dict = graph.dict();
  const TermId rdf_type = graph.rdf_type();

  // Dense-index the summarizable nodes and the properties.
  std::map<TermId, size_t> node_index;
  std::map<TermId, size_t> out_prop_index, in_prop_index;
  auto is_node = [&](TermId id) {
    return !options.skip_literal_nodes ||
           dict.KindOf(id) != TermKind::kLiteral;
  };
  for (const Triple& t : graph.triples()) {
    if (t.p == rdf_type) continue;
    node_index.emplace(t.s, 0);
    if (is_node(t.o)) node_index.emplace(t.o, 0);
    out_prop_index.emplace(t.p, 0);
    in_prop_index.emplace(t.p, 0);
  }
  // Typed nodes with no other triples still deserve a class.
  graph.Match(kInvalidTerm, rdf_type, kInvalidTerm,
              [&](const Triple& t) { node_index.emplace(t.s, 0); });

  size_t next = 0;
  for (auto& [id, idx] : node_index) idx = next++;
  // (node indices occupy [0, after_out); property anchors follow)
  for (auto& [id, idx] : out_prop_index) idx = next++;
  size_t after_out = next;
  for (auto& [id, idx] : in_prop_index) idx = next++;
  (void)after_out;

  UnionFind uf(next);
  for (const Triple& t : graph.triples()) {
    if (t.p == rdf_type) continue;
    uf.Union(node_index.at(t.s), out_prop_index.at(t.p));
    if (options.use_incoming && is_node(t.o)) {
      uf.Union(node_index.at(t.o), in_prop_index.at(t.p));
    }
  }

  // Gather classes.
  std::map<size_t, std::vector<TermId>> by_root;
  for (const auto& [id, idx] : node_index) by_root[uf.Find(idx)].push_back(id);

  StructuralSummary summary;
  for (auto& [root, members] : by_root) {
    std::sort(members.begin(), members.end());
    summary.classes_.push_back(std::move(members));
  }
  std::stable_sort(summary.classes_.begin(), summary.classes_.end(),
                   [](const auto& a, const auto& b) { return a.size() > b.size(); });

  summary.class_properties_.resize(summary.classes_.size());
  for (size_t c = 0; c < summary.classes_.size(); ++c) {
    std::set<TermId> props;
    for (TermId node : summary.classes_[c]) {
      summary.class_of_[node] = static_cast<int>(c);
      for (TermId p : graph.PropertiesOf(node)) {
        if (p != rdf_type) props.insert(p);
      }
    }
    summary.class_properties_[c].assign(props.begin(), props.end());
  }
  return summary;
}

void StructuralSummary::Attach(Span<uint32_t> class_offsets,
                               Span<TermId> members,
                               Span<uint32_t> prop_offsets, Span<TermId> props,
                               Span<NodeClass> node_classes) {
  assert(!class_offsets.empty() && !prop_offsets.empty() &&
         class_offsets.size() == prop_offsets.size() &&
         "CSR offset arrays must agree on num_classes + 1");
  classes_.clear();
  class_properties_.clear();
  class_of_.clear();
  class_offsets_ = class_offsets;
  members_ = members;
  prop_offsets_ = prop_offsets;
  props_ = props;
  node_classes_ = node_classes;
  borrowed_ = true;
}

int StructuralSummary::ClassOf(TermId node) const {
  if (borrowed_) {
    auto it = std::lower_bound(
        node_classes_.begin(), node_classes_.end(), node,
        [](const NodeClass& a, TermId b) { return a.node < b; });
    if (it == node_classes_.end() || it->node != node) return -1;
    return static_cast<int>(it->cls);
  }
  auto it = class_of_.find(node);
  if (it == class_of_.end()) return -1;
  return it->second;
}

}  // namespace spade
