// Chunk-source coverage: the pull/chunk parser APIs (chunk boundaries,
// empty chunks, mid-stream errors with absolute line numbers) and
// Spade::RunOffline(TripleChunkSource*), the offline entry point cold starts
// take: draining a source must give the state parsing the same document and
// calling RunOffline() gives — store bytes, report counts and insight
// stream — at every thread count.

#include "src/ingest/chunk_source.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/spade.h"
#include "src/datagen/synthetic.h"
#include "src/rdf/ntriples.h"
#include "src/rdf/turtle.h"
#include "src/store/attribute_store.h"

namespace spade {
namespace {

// --- Shared helpers -------------------------------------------------------

/// Serialize a graph as N-Triples text (the test corpus).
std::string ToNTriples(const Graph& graph) {
  std::ostringstream out;
  NTriplesWriter::Write(graph, out);
  return out.str();
}

std::string SmallSyntheticNt(size_t facts = 200, size_t types = 2) {
  SyntheticOptions opts;
  opts.num_facts = facts;
  opts.dim_cardinality = {8, 5};
  opts.num_measures = 2;
  opts.num_fact_types = types;
  auto graph = GenerateSynthetic(opts);
  return ToNTriples(*graph);
}

void ExpectTablesByteIdentical(const AttributeTable& a,
                               const AttributeTable& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.origin, b.origin);
  EXPECT_EQ(a.property, b.property);
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_subjects(), b.num_subjects());
  EXPECT_TRUE(std::equal(a.subjects().begin(), a.subjects().end(),
                         b.subjects().begin()));
  EXPECT_TRUE(std::equal(a.objects().begin(), a.objects().end(),
                         b.objects().begin()));
  for (size_t i = 0; i < a.num_subjects(); ++i) {
    ASSERT_EQ(a.values(i).size(), b.values(i).size()) << "subject " << i;
  }
}

void ExpectStoresByteIdentical(const AttributeStore& a,
                               const AttributeStore& b) {
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  for (AttrId id = 0; id < a.num_attributes(); ++id) {
    SCOPED_TRACE("attribute " + std::to_string(id));
    ExpectTablesByteIdentical(a.attribute(id), b.attribute(id));
  }
}

// --- N-Triples chunk reader -----------------------------------------------

TEST(NTriplesChunkReaderTest, ChunksRespectBudgetAndCoverTheDocument) {
  const std::string nt =
      "<http://x/a> <http://x/p> <http://x/b> .\n"
      "# comment\n"
      "<http://x/b> <http://x/p> \"v\" .\n"
      "\n"
      "<http://x/c> <http://x/q> \"3\" .\n"
      "<http://x/d> <http://x/q> \"4\" .\n"
      "<http://x/e> <http://x/q> \"5\" .\n";

  Graph streamed;
  std::istringstream in(nt);
  NTriplesChunkReader reader(in, &streamed);
  std::vector<Triple> chunk;
  std::vector<size_t> sizes;
  bool done = false;
  while (!done) {
    ASSERT_TRUE(reader.NextChunk(2, &chunk, &done).ok());
    if (!chunk.empty()) sizes.push_back(chunk.size());
    for (const Triple& t : chunk) streamed.Add(t);
  }
  streamed.Freeze();
  EXPECT_EQ(sizes, (std::vector<size_t>{2, 2, 1}));

  Graph sequential;
  ASSERT_TRUE(NTriplesReader::ParseString(nt, &sequential).ok());
  ASSERT_EQ(sequential.NumTriples(), streamed.NumTriples());
  // Same interning order => the triple lists match id for id.
  for (size_t i = 0; i < sequential.triples().size(); ++i) {
    EXPECT_TRUE(sequential.triples()[i] == streamed.triples()[i]);
  }
  EXPECT_EQ(sequential.dict().size(), streamed.dict().size());
}

TEST(NTriplesChunkReaderTest, EmptyAndCommentOnlyInput) {
  Graph graph;
  std::istringstream in("# nothing here\n\n# end\n");
  NTriplesChunkReader reader(in, &graph);
  std::vector<Triple> chunk;
  bool done = false;
  ASSERT_TRUE(reader.NextChunk(8, &chunk, &done).ok());
  EXPECT_TRUE(chunk.empty());
  EXPECT_TRUE(done);
}

TEST(NTriplesChunkReaderTest, MidStreamErrorCarriesAbsoluteLineNumber) {
  const std::string nt =
      "<http://x/a> <http://x/p> <http://x/b> .\n"
      "<http://x/b> <http://x/p> <http://x/c> .\n"
      "# fine so far\n"
      "<http://x/c> <http://x/p> oops .\n";
  Graph graph;
  std::istringstream in(nt);
  NTriplesChunkReader reader(in, &graph);
  std::vector<Triple> chunk;
  bool done = false;
  ASSERT_TRUE(reader.NextChunk(1, &chunk, &done).ok());  // line 1
  ASSERT_EQ(chunk.size(), 1u);
  ASSERT_FALSE(done);
  ASSERT_TRUE(reader.NextChunk(1, &chunk, &done).ok());  // line 2
  Status st = reader.NextChunk(1, &chunk, &done);        // hits line 4
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("line 4"), std::string::npos) << st.ToString();
  EXPECT_TRUE(done);
  // The error latches: the stream stays failed.
  EXPECT_FALSE(reader.NextChunk(1, &chunk, &done).ok());
}

// --- Turtle chunk reader --------------------------------------------------

TEST(TurtleChunkReaderTest, DirectivesAndStatementsSpanChunkBoundaries) {
  const std::string ttl =
      "@prefix ex: <http://example.org/> .\n"
      "ex:a ex:p ex:b .\n"
      "ex:a ex:q \"x\", \"y\" ;\n"
      "     ex:r 3 .\n"
      "# comment between statements\n"
      "@prefix f: <http://f.org/> .\n"
      "f:c a ex:T .\n";

  Graph sequential;
  ASSERT_TRUE(TurtleReader::ParseString(ttl, &sequential).ok());

  // Budget 1: every chunk is exactly one statement's triples; the @prefix
  // from chunk 0 must still resolve names in the last chunk.
  Graph streamed;
  TurtleChunkReader reader(ttl, &streamed);
  std::vector<Triple> chunk;
  std::vector<size_t> sizes;
  bool done = false;
  while (!done) {
    ASSERT_TRUE(reader.NextChunk(1, &chunk, &done).ok());
    if (!chunk.empty()) sizes.push_back(chunk.size());
    for (const Triple& t : chunk) streamed.Add(t);
  }
  streamed.Freeze();
  // Statement 2 expands to three triples (object list + predicate list) and
  // must not be torn across chunks.
  EXPECT_EQ(sizes, (std::vector<size_t>{1, 3, 1}));
  ASSERT_EQ(sequential.NumTriples(), streamed.NumTriples());
  for (size_t i = 0; i < sequential.triples().size(); ++i) {
    EXPECT_TRUE(sequential.triples()[i] == streamed.triples()[i]);
  }
}

TEST(TurtleChunkReaderTest, MidStreamErrorCarriesLineNumber) {
  const std::string ttl =
      "@prefix ex: <http://example.org/> .\n"
      "ex:a ex:p ex:b .\n"
      "ex:a ex:p\n"
      "     unknownprefix:x .\n";
  Graph graph;
  TurtleChunkReader reader(ttl, &graph);
  std::vector<Triple> chunk;
  bool done = false;
  ASSERT_TRUE(reader.NextChunk(1, &chunk, &done).ok());
  ASSERT_EQ(chunk.size(), 1u);
  Status st = reader.NextChunk(1, &chunk, &done);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("line 4"), std::string::npos) << st.ToString();
  // Latches.
  EXPECT_FALSE(reader.NextChunk(1, &chunk, &done).ok());
}

// --- Spade::RunOffline(TripleChunkSource*) -------------------------------

SpadeOptions PipelineOptions(size_t threads) {
  SpadeOptions options;
  options.cfs.min_size = 20;
  options.enumeration.max_dims = 2;
  options.top_k = 8;
  options.num_threads = threads;
  return options;
}

struct PipelineOutcome {
  std::vector<Insight> insights;
  SpadeReport report;
  std::unique_ptr<Graph> graph = std::make_unique<Graph>();
  std::unique_ptr<Spade> spade;
};

/// The offline phase from a source (drain + build), then one online run.
PipelineOutcome RunFromSource(const std::string& nt, size_t threads) {
  PipelineOutcome out;
  out.spade = std::make_unique<Spade>(out.graph.get(), PipelineOptions(threads));
  std::istringstream in(nt);
  NTriplesChunkSource source(in, out.graph.get());
  EXPECT_TRUE(out.spade->RunOffline(&source).ok());
  auto insights = out.spade->RunOnline();
  EXPECT_TRUE(insights.ok()) << insights.status().ToString();
  out.insights = std::move(*insights);
  out.report = out.spade->report();
  return out;
}

/// The same document parsed first, then RunOffline() and one online run.
PipelineOutcome RunFromParse(const std::string& nt, size_t threads) {
  PipelineOutcome out;
  EXPECT_TRUE(NTriplesReader::ParseString(nt, out.graph.get()).ok());
  out.spade = std::make_unique<Spade>(out.graph.get(), PipelineOptions(threads));
  EXPECT_TRUE(out.spade->RunOffline().ok());
  auto insights = out.spade->RunOnline();
  EXPECT_TRUE(insights.ok()) << insights.status().ToString();
  out.insights = std::move(*insights);
  out.report = out.spade->report();
  return out;
}

/// Identical results: top-k stream (keys, exact scores, groups, rendered
/// descriptions/SPARQL), report counts, and the sealed store byte for byte.
void ExpectPipelinesIdentical(const PipelineOutcome& a,
                              const PipelineOutcome& b) {
  EXPECT_EQ(a.report.num_triples, b.report.num_triples);
  EXPECT_EQ(a.report.num_cfs, b.report.num_cfs);
  EXPECT_EQ(a.report.num_direct_properties, b.report.num_direct_properties);
  EXPECT_EQ(a.report.derivations.total(), b.report.derivations.total());
  EXPECT_EQ(a.report.num_lattices, b.report.num_lattices);
  EXPECT_EQ(a.report.num_candidate_aggregates,
            b.report.num_candidate_aggregates);
  EXPECT_EQ(a.report.num_evaluated_aggregates,
            b.report.num_evaluated_aggregates);
  EXPECT_EQ(a.report.num_reused_aggregates, b.report.num_reused_aggregates);
  EXPECT_EQ(a.report.num_pruned_aggregates, b.report.num_pruned_aggregates);
  EXPECT_EQ(a.report.num_groups_emitted, b.report.num_groups_emitted);
  ASSERT_EQ(a.insights.size(), b.insights.size());
  for (size_t i = 0; i < a.insights.size(); ++i) {
    SCOPED_TRACE("insight " + std::to_string(i));
    EXPECT_TRUE(a.insights[i].ranked.key == b.insights[i].ranked.key);
    EXPECT_EQ(a.insights[i].ranked.score, b.insights[i].ranked.score);
    EXPECT_EQ(a.insights[i].ranked.num_groups, b.insights[i].ranked.num_groups);
    EXPECT_EQ(a.insights[i].cfs_name, b.insights[i].cfs_name);
    EXPECT_EQ(a.insights[i].description, b.insights[i].description);
    EXPECT_EQ(a.insights[i].sparql, b.insights[i].sparql);
  }
  ExpectStoresByteIdentical(a.spade->store(), b.spade->store());
}

TEST(RunOfflineFromSourceTest, EqualsParseThenRunOfflineAtOneAndFourThreads) {
  const std::string nt = SmallSyntheticNt(250, 2);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    PipelineOutcome parsed = RunFromParse(nt, threads);
    EXPECT_FALSE(parsed.insights.empty());
    PipelineOutcome drained = RunFromSource(nt, threads);
    ExpectPipelinesIdentical(parsed, drained);
    // The drain is part of this entry point's offline wall-clock.
    EXPECT_GT(drained.report.timings.offline_wall_ms, 0.0);
  }
}

TEST(RunOfflineFromSourceTest, EmptyChunksAreNotEndOfStream) {
  // A source that interleaves empty chunks (a comment-only stretch of
  // input) must not terminate or disturb the build.
  Graph reference;
  Graph drained;
  std::vector<Triple> triples;
  for (Graph* g : {&reference, &drained}) {
    Dictionary& d = g->dict();
    TermId p = d.InternIri("http://x/p");
    TermId q = d.InternIri("http://x/q");
    std::vector<Triple> local;
    for (int i = 0; i < 10; ++i) {
      TermId s = d.InternIri("http://x/s" + std::to_string(i));
      local.push_back(Triple{s, p, d.InternInteger(i)});
      if (i % 2 == 0) local.push_back(Triple{s, q, d.InternString("v")});
    }
    triples = local;  // identical intern order => identical ids
  }
  for (const Triple& t : triples) reference.Add(t);
  reference.Freeze();
  Spade ref_spade(&reference, SpadeOptions{});
  ASSERT_TRUE(ref_spade.RunOffline().ok());

  VectorChunkSource source({{triples.begin(), triples.begin() + 3},
                            {},
                            {triples.begin() + 3, triples.begin() + 4},
                            {},
                            {},
                            {triples.begin() + 4, triples.end()}});
  Spade spade(&drained, SpadeOptions{});
  ASSERT_TRUE(spade.RunOffline(&source).ok());
  EXPECT_EQ(drained.NumTriples(), reference.NumTriples());
  EXPECT_EQ(spade.report().num_triples, triples.size());
  ExpectStoresByteIdentical(ref_spade.store(), spade.store());
}

TEST(RunOfflineFromSourceTest, ParseErrorPropagatesWithLineNumber) {
  const std::string nt =
      "<http://x/a> <http://x/p> <http://x/b> .\n"
      "not a triple\n";
  Graph graph;
  Spade spade(&graph, SpadeOptions{});
  std::istringstream in(nt);
  NTriplesChunkSource source(in, &graph);
  Status st = spade.RunOffline(&source);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("line 2"), std::string::npos) << st.ToString();
  // Nothing was built: the online steps still refuse to run.
  EXPECT_FALSE(spade.PrepareFactSets().ok());
}

}  // namespace
}  // namespace spade
