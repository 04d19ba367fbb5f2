#include "src/summary/summary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace spade {
namespace {

/// Index of the class holding `node`, or -1 if the node is not summarized.
int ClassIndexOf(const StructuralSummary& s, TermId node) {
  for (size_t c = 0; c < s.num_classes(); ++c) {
    const Span<TermId> m = s.ClassMembers(c);
    if (std::binary_search(m.begin(), m.end(), node)) return static_cast<int>(c);
  }
  return -1;
}

/// The earlier map-based construction, kept as the reference the dense
/// Build must match class for class: ordered maps assign the node indices
/// and the two property-anchor blocks, and classes come out in ascending
/// root order, then stably by descending size.
std::vector<std::vector<TermId>> ReferenceClasses(const Graph& graph) {
  const Dictionary& dict = graph.dict();
  const TermId rdf_type = graph.rdf_type();
  std::map<TermId, size_t> node_index, out_prop_index, in_prop_index;
  auto is_node = [&](TermId id) {
    return dict.KindOf(id) != TermKind::kLiteral;
  };
  for (const Triple& t : graph.triples()) {
    if (t.p == rdf_type) continue;
    node_index.emplace(t.s, 0);
    if (is_node(t.o)) node_index.emplace(t.o, 0);
    out_prop_index.emplace(t.p, 0);
    in_prop_index.emplace(t.p, 0);
  }
  graph.Match(kInvalidTerm, rdf_type, kInvalidTerm,
              [&](const Triple& t) { node_index.emplace(t.s, 0); });
  size_t next = 0;
  for (auto& [id, idx] : node_index) idx = next++;
  for (auto& [id, idx] : out_prop_index) idx = next++;
  for (auto& [id, idx] : in_prop_index) idx = next++;

  std::vector<size_t> parent(next);
  for (size_t i = 0; i < next; ++i) parent[i] = i;
  auto find = [&](size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  auto unite = [&](size_t a, size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[a] = b;
  };
  for (const Triple& t : graph.triples()) {
    if (t.p == rdf_type) continue;
    unite(node_index.at(t.s), out_prop_index.at(t.p));
    if (is_node(t.o)) unite(node_index.at(t.o), in_prop_index.at(t.p));
  }

  std::map<size_t, std::vector<TermId>> by_root;
  for (const auto& [id, idx] : node_index) by_root[find(idx)].push_back(id);
  std::vector<std::vector<TermId>> classes;
  for (auto& [root, members] : by_root) classes.push_back(std::move(members));
  std::stable_sort(classes.begin(), classes.end(),
                   [](const auto& a, const auto& b) { return a.size() > b.size(); });
  return classes;
}

/// A seeded random graph with many property cliques: each subject draws its
/// properties from a home pair of 40 (now and then from any pair, which
/// merges cliques); objects are literals, IRIs that are only ever objects
/// of the pair, or (rarely) subjects; some nodes carry only rdf:type.
void FillRandomGraph(uint64_t seed, Graph* g) {
  std::mt19937_64 rng(seed);
  auto draw = [&](size_t n) { return std::to_string(rng() % n); };
  Dictionary& d = g->dict();
  for (int i = 0; i < 400; ++i) {
    const TermId s = d.InternIri("s" + draw(400));
    if (draw(4) == "0") g->Add(s, g->rdf_type(), d.InternIri("T" + draw(3)));
    if (draw(8) == "0") continue;  // typed only, or absent
    const std::string pair = draw(40);
    for (int k = 0, n = 1 + static_cast<int>(rng() % 3); k < n; ++k) {
      const TermId p = d.InternIri(
          "p" + (draw(40) == "0" ? draw(40) : pair) + "_" + draw(2));
      const size_t kind = rng() % 20;
      const TermId o = kind < 7    ? d.InternString("v" + draw(50))
                       : kind < 13 ? d.InternInteger(std::stoi(draw(100)))
                       : kind < 19 ? d.InternIri("x" + pair + "_" + draw(5))
                                   : d.InternIri("s" + draw(400));
      g->Add(s, p, o);
    }
  }
}

TEST(SummaryTest, DenseBuildMatchesTheMapBasedReference) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Graph g;
    FillRandomGraph(seed, &g);
    const std::vector<std::vector<TermId>> want = ReferenceClasses(g);
    ASSERT_GE(want.size(), 20u);
    std::vector<uint32_t> offsets{0};
    std::vector<TermId> members;
    for (const auto& cls : want) {
      members.insert(members.end(), cls.begin(), cls.end());
      offsets.push_back(static_cast<uint32_t>(members.size()));
    }
    const StructuralSummary s = StructuralSummary::Build(g);
    EXPECT_EQ(s.class_offsets().ToVector(), offsets);
    EXPECT_EQ(s.members().ToVector(), members);
  }
}

TEST(SummaryTest, GroupsNodesSharingOutgoingProperties) {
  Graph g;
  Dictionary& d = g.dict();
  TermId p_name = d.InternIri("name");
  TermId p_age = d.InternIri("age");
  TermId a = d.InternIri("a"), b = d.InternIri("b"), c = d.InternIri("c");
  g.Add(a, p_name, d.InternString("A"));
  g.Add(b, p_name, d.InternString("B"));
  g.Add(b, p_age, d.InternInteger(4));
  g.Add(c, p_age, d.InternInteger(5));

  StructuralSummary s = StructuralSummary::Build(g);
  // name and age co-occur on b => one source clique => one class {a, b, c}.
  ASSERT_EQ(s.num_classes(), 1u);
  EXPECT_EQ(s.ClassMembers(0).size(), 3u);
  EXPECT_EQ(ClassIndexOf(s, a), ClassIndexOf(s, c));
}

TEST(SummaryTest, SeparatesDisjointPropertyCliques) {
  Graph g;
  Dictionary& d = g.dict();
  TermId p1 = d.InternIri("p1");
  TermId p2 = d.InternIri("p2");
  TermId a = d.InternIri("a"), b = d.InternIri("b");
  g.Add(a, p1, d.InternString("x"));
  g.Add(b, p2, d.InternString("y"));

  StructuralSummary s = StructuralSummary::Build(g);
  ASSERT_EQ(s.num_classes(), 2u);
  EXPECT_NE(ClassIndexOf(s, a), ClassIndexOf(s, b));
}

TEST(SummaryTest, IncomingPropertiesMergeTargets) {
  Graph g;
  Dictionary& d = g.dict();
  TermId knows = d.InternIri("knows");
  TermId a = d.InternIri("a"), b = d.InternIri("b");
  TermId x = d.InternIri("x"), y = d.InternIri("y");
  g.Add(a, knows, x);
  g.Add(b, knows, y);
  StructuralSummary s = StructuralSummary::Build(g);
  // a,b share the outgoing `knows` clique; x,y share the incoming one; and
  // because a knows x, all four collapse under full weak equivalence? No:
  // sources unite via out-anchor, targets via in-anchor; the two anchors are
  // distinct, so {a,b} and {x,y} stay separate.
  EXPECT_EQ(ClassIndexOf(s, a), ClassIndexOf(s, b));
  EXPECT_EQ(ClassIndexOf(s, x), ClassIndexOf(s, y));
  EXPECT_NE(ClassIndexOf(s, a), ClassIndexOf(s, x));
}

TEST(SummaryTest, TypeTriplesDoNotDefineStructure) {
  Graph g;
  Dictionary& d = g.dict();
  TermId t = d.InternIri("T");
  TermId p1 = d.InternIri("p1"), p2 = d.InternIri("p2");
  TermId a = d.InternIri("a"), b = d.InternIri("b");
  g.Add(a, g.rdf_type(), t);
  g.Add(b, g.rdf_type(), t);
  g.Add(a, p1, d.InternString("x"));
  g.Add(b, p2, d.InternString("y"));
  StructuralSummary s = StructuralSummary::Build(g);
  // Sharing only rdf:type must not merge a and b, nor make T a node.
  EXPECT_NE(ClassIndexOf(s, a), ClassIndexOf(s, b));
  EXPECT_EQ(ClassIndexOf(s, t), -1);
}

TEST(SummaryTest, ClassesSortedBySize) {
  Graph g;
  Dictionary& d = g.dict();
  TermId p1 = d.InternIri("p1"), p2 = d.InternIri("p2");
  for (int i = 0; i < 5; ++i) {
    g.Add(d.InternIri("big" + std::to_string(i)), p1, d.InternString("v"));
  }
  g.Add(d.InternIri("small"), p2, d.InternString("w"));
  StructuralSummary s = StructuralSummary::Build(g);
  ASSERT_EQ(s.num_classes(), 2u);
  EXPECT_EQ(s.ClassMembers(0).size(), 5u);
  EXPECT_EQ(s.ClassMembers(1).ToVector(),
            (std::vector<TermId>{*d.Lookup(Term::Iri("small"))}));
}

TEST(SummaryTest, UnknownNodeHasNoClass) {
  Graph g;
  Dictionary& d = g.dict();
  g.Add(d.InternIri("a"), d.InternIri("p"), d.InternString("x"));
  StructuralSummary s = StructuralSummary::Build(g);
  EXPECT_EQ(ClassIndexOf(s, d.InternIri("nowhere")), -1);
}

TEST(SummaryTest, CeosFigureOneShape) {
  // In the Figure 1 graph, the two CEOs end up weakly equivalent (they share
  // many outgoing properties), and companies form their own class.
  Graph g;
  Dictionary& d = g.dict();
  TermId n1 = d.InternIri("n1"), n2 = d.InternIri("n2");
  TermId sodian = d.InternIri("sodian"), renault = d.InternIri("renault");
  TermId p_nat = d.InternIri("nationality");
  TermId p_company = d.InternIri("company");
  TermId p_area = d.InternIri("area");
  TermId angola = d.InternIri("Angola"), brazil = d.InternIri("Brazil");
  g.Add(n1, p_nat, angola);
  g.Add(n2, p_nat, brazil);
  g.Add(n1, p_company, sodian);
  g.Add(n2, p_company, renault);
  g.Add(sodian, p_area, d.InternString("Diamond"));
  g.Add(renault, p_area, d.InternString("Automotive"));
  StructuralSummary s = StructuralSummary::Build(g);
  EXPECT_EQ(ClassIndexOf(s, n1), ClassIndexOf(s, n2));
  EXPECT_EQ(ClassIndexOf(s, sodian), ClassIndexOf(s, renault));
  EXPECT_NE(ClassIndexOf(s, n1), ClassIndexOf(s, sodian));
}

}  // namespace
}  // namespace spade
