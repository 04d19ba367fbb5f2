// Cross-module integration tests: format round-trips feeding the pipeline,
// cross-algorithm agreement at the pipeline level, and SPARQL as an
// independent oracle for MVDCube results.

#include <gtest/gtest.h>

#include <sstream>

#include "src/core/export.h"
#include "src/core/present.h"
#include "src/core/reference.h"
#include "src/core/spade.h"
#include "src/datagen/realworld.h"
#include "src/rdf/csv2rdf.h"
#include "src/rdf/ntriples.h"
#include "src/rdf/turtle.h"
#include "src/sparql/eval.h"
#include "src/sparql/parser.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"

namespace spade {
namespace {

TEST(IntegrationTest, TurtleAndNTriplesProduceIdenticalAnalyses) {
  // The same graph serialized two ways must yield identical top-k insights.
  std::string turtle = R"(
@prefix ex: <http://z/> .
)";
  std::string ntriples;
  Rng rng(31);
  for (int i = 0; i < 120; ++i) {
    std::string subj = "item" + std::to_string(i);
    std::string cat = "cat" + std::to_string(rng.Uniform(4));
    int64_t price = static_cast<int64_t>(10 + rng.Uniform(90) +
                                         (rng.Bernoulli(0.05) ? 500 : 0));
    turtle += "ex:" + subj + " a ex:Item ; ex:category ex:" + cat +
              " ; ex:price " + std::to_string(price) + " .\n";
    ntriples +=
        "<http://z/" + subj +
        "> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://z/Item> "
        ".\n<http://z/" +
        subj + "> <http://z/category> <http://z/" + cat + "> .\n<http://z/" +
        subj + "> <http://z/price> \"" + std::to_string(price) +
        "\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n";
  }
  Graph g1, g2;
  ASSERT_TRUE(TurtleReader::ParseString(turtle, &g1).ok());
  ASSERT_TRUE(NTriplesReader::ParseString(ntriples, &g2).ok());
  ASSERT_EQ(g1.NumTriples(), g2.NumTriples());

  auto run = [](Graph* g) {
    SpadeOptions options;
    options.cfs.min_size = 20;
    options.top_k = 3;
    Spade spade(g, options);
    EXPECT_TRUE(spade.RunOffline().ok());
    auto insights = spade.RunOnline();
    EXPECT_TRUE(insights.ok());
    std::vector<std::pair<std::string, double>> out;
    for (const auto& insight : *insights) {
      out.emplace_back(insight.description, insight.ranked.score);
    }
    return out;
  };
  auto r1 = run(&g1);
  auto r2 = run(&g2);
  ASSERT_EQ(r1.size(), r2.size());
  for (size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].first, r2[i].first);
    EXPECT_NEAR(r1[i].second, r2[i].second, 1e-9 * std::max(1.0, r1[i].second));
  }
}

TEST(IntegrationTest, SparqlOracleValidatesMvdCubeOnMultiValuedData) {
  // For a single-dimension MDA, a COUNT(DISTINCT ?cf) SPARQL query is an
  // independent statement of the Section 2 semantics; MVDCube (through the
  // pipeline ARM) must agree group by group, even with multi-valued dims.
  Graph g;
  Dictionary& d = g.dict();
  Rng rng(17);
  TermId type = d.InternIri("http://q/T");
  TermId area = d.InternIri("http://q/area");
  for (int i = 0; i < 90; ++i) {
    TermId f = d.InternIri("http://q/f" + std::to_string(i));
    g.Add(f, g.rdf_type(), type);
    size_t k = 1 + rng.Uniform(3);  // multi-valued
    for (size_t j = 0; j < k; ++j) {
      g.Add(f, area, d.InternString("a" + std::to_string(rng.Uniform(5))));
    }
  }
  g.Freeze();

  AttributeStore db(&g);
  db.BuildDirectAttributes();
  CfsIndex cfs(g.NodesOfType(type));
  LatticeSpec spec;
  spec.dims = {*db.FindAttribute("area")};
  spec.measures = {MeasureSpec{kInvalidAttr, sparql::AggFunc::kCount}};
  Arm arm(4096);
  MeasureCache cache;
  std::vector<PreparedLattice> prepared =
      PrepareLattices(db, cfs, {spec}, MvdCubeOptions(), &cache);
  EvaluateLatticeMvd(0, spec, prepared[0], cache, MvdCubeOptions(), &arm);

  auto q = sparql::ParseQuery(
      "SELECT ?a (COUNT(DISTINCT ?cf) AS ?c) WHERE { "
      "?cf a <http://q/T> . ?cf <http://q/area> ?a . } GROUP BY ?a",
      &g.dict());
  ASSERT_TRUE(q.ok());
  auto rs = sparql::Evaluate(*q, g);
  ASSERT_TRUE(rs.ok());

  AggregateKey key;
  key.cfs_id = 0;
  key.dims = spec.dims;
  key.measure = spec.measures[0];
  Arm::Handle h = arm.Find(key);
  ASSERT_NE(h, Arm::kInvalidHandle);
  const auto& groups = arm.stored_groups(h);
  ASSERT_EQ(groups.size(), rs->rows.size());
  for (const auto& row : rs->rows) {
    bool matched = false;
    for (const auto& grp : groups) {
      if (grp.dim_values[0] == row[0].term) {
        EXPECT_DOUBLE_EQ(grp.value, row[1].num);
        matched = true;
      }
    }
    EXPECT_TRUE(matched);
  }
}

TEST(IntegrationTest, CsvPipelineMatchesHandBuiltGraphPipeline) {
  std::string csv = "cat,price\n";
  Graph manual;
  Dictionary& d = manual.dict();
  TermId type = d.InternIri("http://csv.spade/Row");
  TermId p_cat = d.InternIri("http://csv.spade/cat");
  TermId p_price = d.InternIri("http://csv.spade/price");
  Rng rng(5);
  for (int i = 0; i < 150; ++i) {
    std::string cat = "c" + std::to_string(rng.Uniform(3));
    int64_t price = static_cast<int64_t>(rng.Uniform(100));
    csv += cat + "," + std::to_string(price) + "\n";
    TermId row = d.InternIri("http://csv.spade/row/" + std::to_string(i));
    manual.Add(row, manual.rdf_type(), type);
    manual.Add(row, p_cat, d.InternString(cat));
    manual.Add(row, p_price, d.InternInteger(price));
  }
  manual.Freeze();

  Graph converted;
  auto rows = CsvToRdfString(csv, Csv2RdfOptions(), &converted);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(*rows, 150u);
  EXPECT_EQ(converted.NumTriples(), manual.NumTriples());

  auto run = [](Graph* g) {
    SpadeOptions options;
    options.cfs.min_size = 50;
    options.top_k = 2;
    Spade spade(g, options);
    EXPECT_TRUE(spade.RunOffline().ok());
    auto insights = spade.RunOnline();
    EXPECT_TRUE(insights.ok());
    std::vector<double> scores;
    for (const auto& i : *insights) scores.push_back(i.ranked.score);
    return scores;
  };
  auto s1 = run(&manual);
  auto s2 = run(&converted);
  ASSERT_EQ(s1.size(), s2.size());
  for (size_t i = 0; i < s1.size(); ++i) {
    EXPECT_NEAR(s1[i], s2[i], 1e-9 * std::max(1.0, s1[i]));
  }
}

TEST(IntegrationTest, ExportRoundTripsThroughRendering) {
  // The full output path — pipeline -> render + JSON + CSV — never throws
  // and produces consistent counts on a real-shaped graph.
  auto graph = GenerateNobel(3, 0.2);
  SpadeOptions options;
  options.top_k = 4;
  options.max_stored_groups = 64;
  Spade spade(graph.get(), options);
  ASSERT_TRUE(spade.RunOffline().ok());
  auto insights = spade.RunOnline();
  ASSERT_TRUE(insights.ok());
  ASSERT_FALSE(insights->empty());

  std::ostringstream rendered, json, csv;
  RenderOptions render;
  for (const auto& insight : *insights) {
    RenderInsight(spade.store(), insight, render, rendered);
  }
  ExportInsightsJson(spade.store(), *insights, options.interestingness, json);
  ExportInsightsCsv(spade.store(), *insights, csv);

  EXPECT_FALSE(rendered.str().empty());
  // Every insight appears once in the JSON.
  std::string json_str = json.str();
  size_t ranks = 0, pos = 0;
  while ((pos = json_str.find("\"rank\":", pos)) != std::string::npos) {
    ++ranks;
    pos += 7;
  }
  EXPECT_EQ(ranks, insights->size());
  // CSV rows = header + sum of stored groups.
  std::string csv_str = csv.str();
  size_t lines =
      static_cast<size_t>(std::count(csv_str.begin(), csv_str.end(), '\n'));
  size_t expected = 1;
  for (const auto& insight : *insights) {
    expected += insight.ranked.groups.size();
  }
  EXPECT_EQ(lines, expected);
}

TEST(IntegrationTest, InterestingnessKindsChangeTheRanking) {
  // variance favours magnitude outliers; skewness favours asymmetry — on a
  // graph with both, the top insight differs.
  auto graph = GenerateCeos(9, 0.3);
  auto top_desc = [&](InterestingnessKind kind) {
    auto g2 = GenerateCeos(9, 0.3);
    SpadeOptions options;
    options.top_k = 1;
    options.interestingness = kind;
    Spade spade(g2.get(), options);
    EXPECT_TRUE(spade.RunOffline().ok());
    auto insights = spade.RunOnline();
    EXPECT_TRUE(insights.ok());
    return insights->empty() ? std::string() : (*insights)[0].description;
  };
  std::string by_variance = top_desc(InterestingnessKind::kVariance);
  std::string by_kurtosis = top_desc(InterestingnessKind::kKurtosis);
  EXPECT_FALSE(by_variance.empty());
  EXPECT_FALSE(by_kurtosis.empty());
  // Not universally guaranteed, but holds on this fixed seed/dataset; a
  // change here signals the scoring paths collapsed into one.
  EXPECT_NE(by_variance, by_kurtosis);
}

TEST(IntegrationTest, SaturatedTurtleOntologyFlowsThroughPipeline) {
  std::string doc = R"(
@prefix ex: <http://o/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
ex:CEO rdfs:subClassOf ex:Person .
)";
  Rng rng(8);
  for (int i = 0; i < 60; ++i) {
    doc += "ex:p" + std::to_string(i) + " a ex:CEO ; ex:age " +
           std::to_string(30 + rng.Uniform(40)) + " ; ex:city ex:c" +
           std::to_string(rng.Uniform(4)) + " .\n";
  }
  Graph g;
  ASSERT_TRUE(TurtleReader::ParseString(doc, &g).ok());
  SpadeOptions options;
  options.saturate = true;
  options.cfs.min_size = 20;
  options.top_k = 3;
  Spade spade(&g, options);
  ASSERT_TRUE(spade.RunOffline().ok());
  auto insights = spade.RunOnline();
  ASSERT_TRUE(insights.ok());
  EXPECT_FALSE(insights->empty());
  // Saturation materialized ex:Person types.
  TermId person = *g.dict().Lookup(Term::Iri("http://o/Person"));
  EXPECT_EQ(g.NodesOfType(person).size(), 60u);
}

}  // namespace
}  // namespace spade
