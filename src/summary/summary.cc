#include "src/summary/summary.h"

#include <algorithm>
#include <limits>

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

constexpr uint32_t kAbsent = std::numeric_limits<uint32_t>::max();

}  // namespace

StructuralSummary::StructuralSummary() : class_offsets_(1, 0) { ViewOwned(); }

StructuralSummary StructuralSummary::Build(const Graph& graph) {
  const Dictionary& dict = graph.dict();
  const TermId rdf_type = graph.rdf_type();
  const Span<Triple> triples = graph.triples();
  auto is_node = [&](TermId id) {
    return dict.KindOf(id) != TermKind::kLiteral;
  };

  // Dense indices, looked up by TermId: the summarized nodes in id order
  // (every subject, typed-only ones included, and every non-literal object
  // of a non-type triple), then one outgoing anchor per property, then one
  // incoming anchor per property, each block in id order.
  const size_t num_ids = dict.size() + 1;
  std::vector<uint32_t> node_index(num_ids, kAbsent);
  std::vector<uint32_t> prop_rank(num_ids, kAbsent);
  for (const Triple& t : triples) {
    node_index[t.s] = 0;
    if (t.p == rdf_type) continue;
    if (is_node(t.o)) node_index[t.o] = 0;
    prop_rank[t.p] = 0;
  }
  uint32_t num_nodes = 0, num_props = 0;
  for (size_t id = 1; id < num_ids; ++id) {
    if (node_index[id] != kAbsent) node_index[id] = num_nodes++;
    if (prop_rank[id] != kAbsent) prop_rank[id] = num_props++;
  }

  const size_t num_indices = size_t{num_nodes} + 2 * size_t{num_props};
  UnionFind uf(num_indices);
  for (const Triple& t : triples) {
    if (t.p == rdf_type) continue;
    const size_t out_anchor = num_nodes + prop_rank[t.p];
    uf.Union(node_index[t.s], out_anchor);
    if (is_node(t.o)) uf.Union(node_index[t.o], out_anchor + num_props);
  }

  // Classes in ascending root order, then stably by descending size.
  std::vector<uint32_t> class_size(num_indices, 0);
  for (size_t id = 1; id < num_ids; ++id) {
    if (node_index[id] != kAbsent) ++class_size[uf.Find(node_index[id])];
  }
  std::vector<uint32_t> roots;
  for (size_t r = 0; r < num_indices; ++r) {
    if (class_size[r] > 0) roots.push_back(static_cast<uint32_t>(r));
  }
  std::stable_sort(roots.begin(), roots.end(), [&](uint32_t a, uint32_t b) {
    return class_size[a] > class_size[b];
  });

  // CSR: class_size becomes each root's fill cursor; visiting nodes in id
  // order leaves every class's members sorted.
  StructuralSummary summary;
  summary.class_offsets_.resize(roots.size() + 1);
  for (size_t c = 0; c < roots.size(); ++c) {
    const uint32_t begin = summary.class_offsets_[c];
    summary.class_offsets_[c + 1] = begin + class_size[roots[c]];
    class_size[roots[c]] = begin;
  }
  summary.members_.resize(num_nodes);
  for (size_t id = 1; id < num_ids; ++id) {
    if (node_index[id] == kAbsent) continue;
    summary.members_[class_size[uf.Find(node_index[id])]++] =
        static_cast<TermId>(id);
  }
  summary.ViewOwned();
  return summary;
}

void StructuralSummary::Attach(Span<uint32_t> class_offsets,
                               Span<TermId> members) {
  class_offsets_ = std::vector<uint32_t>();
  members_ = std::vector<TermId>();
  class_offsets_view_ = class_offsets;
  members_view_ = members;
}

}  // namespace spade
