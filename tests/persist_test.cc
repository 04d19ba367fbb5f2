// Tests of the persistence layer: snapshot save/load round-trips, the
// corrupted/foreign-file error paths, and the load-time contract the serve
// mode stands on — a loaded store is semantically identical to a freshly
// ingested one at every thread/shard configuration.

#include "src/persist/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/spade.h"
#include "src/datagen/synthetic.h"
#include "src/exec/cube_evaluator.h"
#include "src/persist/serve.h"
#include "src/rdf/ntriples.h"

namespace spade {
namespace {

SyntheticOptions SmallCorpus() {
  SyntheticOptions sopts;
  sopts.num_facts = 3000;
  sopts.dim_cardinality.assign(3, 20);
  sopts.num_measures = 3;
  sopts.num_fact_types = 3;
  return sopts;
}

SpadeOptions BaseOptions() {
  SpadeOptions options;
  options.cfs.min_size = 20;
  options.enumeration.max_dims = 3;
  options.enumeration.max_lattices_per_cfs = 8;
  options.enumeration.max_measures_per_lattice = 3;
  options.top_k = 8;
  return options;
}

std::string SnapPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Order-insensitive content fingerprint of a sealed store: equal sealed
/// stores => equal sums.
uint64_t StoreChecksum(const AttributeStore& store) {
  uint64_t sum = store.num_attributes();
  for (AttrId a = 0; a < store.num_attributes(); ++a) {
    const AttributeTable& t = store.attribute(a);
    sum = sum * 1000003 + t.num_rows();
    for (TermId s : t.subjects()) sum += s;
    for (TermId o : t.objects()) sum += 31 * static_cast<uint64_t>(o);
  }
  return sum;
}

/// Build the full offline state from a synthetic graph and save it.
/// `with_fact_sets` controls whether step 1 runs before the save; `built`,
/// when given, receives the graph that was saved.
void BuildAndSave(const std::string& path, bool with_fact_sets,
                  SpadeOptions options = BaseOptions(),
                  std::unique_ptr<Graph>* built = nullptr) {
  auto graph = GenerateSynthetic(SmallCorpus());
  Spade spade(graph.get(), options);
  ASSERT_TRUE(spade.RunOffline().ok());
  if (with_fact_sets) {
    ASSERT_TRUE(spade.PrepareFactSets().ok());
  }
  ASSERT_TRUE(spade.SaveStore(path).ok()) << path;
  if (built != nullptr) *built = std::move(graph);
}

struct RunOutcome {
  std::vector<Insight> insights;
  SpadeReport report;
  uint64_t store_checksum = 0;
};

/// Full pipeline on a freshly generated graph (the ingested baseline).
RunOutcome RunIngested(SpadeOptions options) {
  auto graph = GenerateSynthetic(SmallCorpus());
  Spade spade(graph.get(), options);
  EXPECT_TRUE(spade.RunOffline().ok());
  auto insights = spade.RunOnline();
  EXPECT_TRUE(insights.ok()) << insights.status().ToString();
  return RunOutcome{std::move(*insights), spade.report(),
                    StoreChecksum(spade.store())};
}

/// Full pipeline with the offline state attached from a snapshot.
RunOutcome RunLoaded(const std::string& path, SpadeOptions options) {
  options.load_store = path;
  Graph graph;
  Spade spade(&graph, options);
  EXPECT_TRUE(spade.RunOffline().ok());
  auto insights = spade.RunOnline();
  EXPECT_TRUE(insights.ok()) << insights.status().ToString();
  return RunOutcome{std::move(*insights), spade.report(),
                    StoreChecksum(spade.store())};
}

/// Bit-identical comparison: same keys, exact scores, same groups, same
/// pipeline counters. Mirrors the exec_test determinism contract.
void ExpectIdentical(const RunOutcome& a, const RunOutcome& b) {
  EXPECT_EQ(a.store_checksum, b.store_checksum);
  EXPECT_EQ(a.report.num_cfs, b.report.num_cfs);
  EXPECT_EQ(a.report.num_lattices, b.report.num_lattices);
  EXPECT_EQ(a.report.num_candidate_aggregates,
            b.report.num_candidate_aggregates);
  ASSERT_EQ(a.insights.size(), b.insights.size());
  for (size_t i = 0; i < a.insights.size(); ++i) {
    const Arm::Ranked& x = a.insights[i].ranked;
    const Arm::Ranked& y = b.insights[i].ranked;
    EXPECT_TRUE(x.key == y.key) << "insight " << i;
    EXPECT_EQ(x.score, y.score) << "insight " << i;  // exact, not approximate
    EXPECT_EQ(x.num_groups, y.num_groups) << "insight " << i;
    EXPECT_EQ(a.insights[i].cfs_name, b.insights[i].cfs_name);
    EXPECT_EQ(a.insights[i].description, b.insights[i].description);
    EXPECT_EQ(a.insights[i].sparql, b.insights[i].sparql);
  }
}

// --- Round-trip identity ---------------------------------------------------

TEST(SnapshotTest, RoundTripRestoresTheOfflineState) {
  const std::string path = SnapPath("roundtrip.snap");
  auto graph = GenerateSynthetic(SmallCorpus());
  Spade built(graph.get(), BaseOptions());
  ASSERT_TRUE(built.RunOffline().ok());
  ASSERT_TRUE(built.PrepareFactSets().ok());
  ASSERT_TRUE(built.SaveStore(path).ok());

  SpadeOptions options = BaseOptions();
  options.load_store = path;
  Graph loaded_graph;
  Spade loaded(&loaded_graph, options);
  ASSERT_TRUE(loaded.RunOffline().ok());

  // Store columns, triples and dictionary match exactly.
  EXPECT_EQ(StoreChecksum(built.store()), StoreChecksum(loaded.store()));
  EXPECT_EQ(graph->NumTriples(), loaded_graph.NumTriples());
  const Dictionary& d0 = graph->dict();
  const Dictionary& d1 = loaded_graph.dict();
  ASSERT_EQ(d0.size(), d1.size());
  for (TermId id = 1; id < d0.size(); id += 97) {  // sampled sweep
    EXPECT_EQ(d0.KindOf(id), d1.KindOf(id)) << id;
    EXPECT_EQ(d0.LexicalOf(id), d1.LexicalOf(id)) << id;
  }

  // Summary: the same class CSR.
  const StructuralSummary& s0 = built.summary();
  const StructuralSummary& s1 = loaded.summary();
  ASSERT_GT(s0.num_classes(), 0u);
  EXPECT_EQ(s0.class_offsets().ToVector(), s1.class_offsets().ToVector());
  EXPECT_EQ(s0.members().ToVector(), s1.members().ToVector());

  // Offline statistics round-trip exactly (doubles are copied, not
  // recomputed).
  const auto& st0 = built.offline_stats();
  const auto& st1 = loaded.offline_stats();
  ASSERT_EQ(st0.size(), st1.size());
  for (size_t i = 0; i < st0.size(); ++i) {
    EXPECT_EQ(st0[i].kind, st1[i].kind);
    EXPECT_EQ(st0[i].num_subjects, st1[i].num_subjects);
    EXPECT_EQ(st0[i].num_values, st1[i].num_values);
    EXPECT_EQ(st0[i].num_distinct_values, st1[i].num_distinct_values);
    EXPECT_EQ(st0[i].min_value, st1[i].min_value);
    EXPECT_EQ(st0[i].max_value, st1[i].max_value);
  }

  // Persisted fact sets were reused (same CfsOptions).
  ASSERT_EQ(built.fact_sets().size(), loaded.fact_sets().size());
  for (size_t i = 0; i < built.fact_sets().size(); ++i) {
    EXPECT_EQ(built.fact_sets()[i].name, loaded.fact_sets()[i].name);
    EXPECT_EQ(built.fact_sets()[i].members, loaded.fact_sets()[i].members);
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, ResaveOfALoadedStoreIsByteIdentical) {
  // SaveSnapshot copies the dictionary's records and arena, so saving a
  // just-loaded state must reproduce the file bit for bit.
  const std::string path1 = SnapPath("gen1.snap");
  const std::string path2 = SnapPath("gen2.snap");
  BuildAndSave(path1, /*with_fact_sets=*/true);

  SpadeOptions options = BaseOptions();
  options.load_store = path1;
  Graph graph;
  Spade spade(&graph, options);
  ASSERT_TRUE(spade.RunOffline().ok());
  ASSERT_TRUE(spade.SaveStore(path2).ok());

  std::ifstream f1(path1, std::ios::binary), f2(path2, std::ios::binary);
  std::stringstream b1, b2;
  b1 << f1.rdbuf();
  b2 << f2.rdbuf();
  ASSERT_FALSE(b1.str().empty());
  EXPECT_EQ(b1.str(), b2.str());
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

TEST(SnapshotTest, LoadWithoutPersistedFactSetsRecomputesThem) {
  const std::string path = SnapPath("nofcs.snap");
  BuildAndSave(path, /*with_fact_sets=*/false);
  RunOutcome ingested = RunIngested(BaseOptions());
  RunOutcome loaded = RunLoaded(path, BaseOptions());
  ExpectIdentical(ingested, loaded);
  std::remove(path.c_str());
}

TEST(SnapshotTest, MismatchedCfsOptionsForceRecomputation) {
  // Saved under min_size=20; loaded under min_size=40. The persisted fact
  // sets must not be reused — the loaded run matches a fresh min_size=40
  // run, not the saved selection.
  const std::string path = SnapPath("cfsmismatch.snap");
  BuildAndSave(path, /*with_fact_sets=*/true);
  SpadeOptions narrow = BaseOptions();
  narrow.cfs.min_size = 40;
  RunOutcome ingested = RunIngested(narrow);
  RunOutcome loaded = RunLoaded(path, narrow);
  ExpectIdentical(ingested, loaded);
  std::remove(path.c_str());
}

// --- Loaded == ingested across the execution matrix ------------------------

TEST(SnapshotTest, LoadedInsightsIdenticalAcrossThreadsAndShards) {
  const std::string path = SnapPath("matrix.snap");
  BuildAndSave(path, /*with_fact_sets=*/true);

  SpadeOptions base = BaseOptions();
  base.num_threads = 1;
  base.num_shards = 1;
  RunOutcome reference = RunIngested(base);
  ASSERT_FALSE(reference.insights.empty());

  for (size_t threads : {1u, 4u}) {
    for (size_t shards : {1u, 4u}) {
      SCOPED_TRACE("threads = " + std::to_string(threads) +
                   ", shards = " + std::to_string(shards));
      SpadeOptions options = BaseOptions();
      options.num_threads = threads;
      options.num_shards = shards;
      RunOutcome loaded = RunLoaded(path, options);
      ExpectIdentical(reference, loaded);
    }
  }
  std::remove(path.c_str());
}

// --- Borrowed-dictionary behavior -----------------------------------------

TEST(SnapshotTest, BorrowedDictionaryLooksUpAndInternsPastTheArena) {
  const std::string path = SnapPath("dict.snap");
  BuildAndSave(path, /*with_fact_sets=*/false);

  SpadeOptions options = BaseOptions();
  options.load_store = path;
  Graph graph;
  Spade spade(&graph, options);
  ASSERT_TRUE(spade.RunOffline().ok());
  Dictionary& dict = graph.dict();
  const size_t arena_terms = dict.size();

  // Lookup of an arena term resolves to its persisted id; re-interning it
  // must not mint a duplicate.
  const TermId probe = 1;
  Term term;
  term.kind = dict.KindOf(probe);
  term.lexical = std::string(dict.LexicalOf(probe));
  term.language = std::string(dict.LanguageOf(probe));
  term.datatype = dict.DatatypeOf(probe);
  auto found = dict.Lookup(term);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, probe);
  EXPECT_EQ(dict.Intern(term), probe);
  EXPECT_EQ(dict.size(), arena_terms);

  // A genuinely new term gets the next id and reads back through the same
  // accessors.
  const TermId fresh = dict.InternIri("http://example.org/past-the-arena");
  EXPECT_EQ(fresh, arena_terms + 1);
  EXPECT_EQ(dict.LexicalOf(fresh), "http://example.org/past-the-arena");
  EXPECT_EQ(dict.Intern(Term::Iri("http://example.org/past-the-arena")), fresh);
  std::remove(path.c_str());
}

TEST(SnapshotTest, GraphOutlivesThePipelineThatLoadedIt) {
  // The caller owns the graph; the pipeline that attached it to a snapshot
  // may go first. The graph keeps the mapping it borrows from alive, and
  // answers every pattern as the built graph does, object-only ones too.
  const std::string path = SnapPath("lifetime.snap");
  std::unique_ptr<Graph> built;
  BuildAndSave(path, /*with_fact_sets=*/false, BaseOptions(), &built);
  Graph graph;
  {
    SpadeOptions options = BaseOptions();
    options.load_store = path;
    Spade spade(&graph, options);
    ASSERT_TRUE(spade.RunOffline().ok());
  }
  std::remove(path.c_str());  // the mapping stays readable after an unlink
  ASSERT_EQ(graph.dict().size(), built->dict().size());
  for (TermId id : {TermId{1}, graph.dict().max_id()}) {
    EXPECT_EQ(graph.dict().LexicalOf(id), built->dict().LexicalOf(id));
  }
  EXPECT_EQ(graph.triples().ToVector(), built->triples().ToVector());
  EXPECT_EQ(graph.triples_pos().ToVector(), built->triples_pos().ToVector());
  auto matches = [](const Graph& g, TermId o) {
    std::vector<Triple> out;
    g.Match(kInvalidTerm, kInvalidTerm, o,
            [&](const Triple& t) { out.push_back(t); });
    return out;
  };
  const Span<Triple> triples = built->triples();
  for (size_t i = 0; i < triples.size(); i += 97) {
    EXPECT_EQ(matches(graph, triples[i].o), matches(*built, triples[i].o));
  }
}

TEST(SnapshotTest, LongestLanguageTagRoundTrips) {
  const std::string tag(Dictionary::kMaxLanguageBytes, 'a');
  const std::string path = SnapPath("longtag.snap");
  {
    Graph graph;
    ASSERT_TRUE(NTriplesReader::ParseString(
                    "<http://x/s> <http://x/p> \"x\"@" + tag + " .\n", &graph)
                    .ok());
    Spade spade(&graph, BaseOptions());
    ASSERT_TRUE(spade.RunOffline().ok());
    ASSERT_TRUE(spade.SaveStore(path).ok());
  }
  SpadeOptions options = BaseOptions();
  options.load_store = path;
  Graph loaded;
  Spade spade(&loaded, options);  // owns the mapping the dictionary reads
  ASSERT_TRUE(spade.RunOffline().ok());
  const auto id = loaded.dict().Lookup(Term::Literal("x", kInvalidTerm, tag));
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(loaded.dict().LanguageOf(*id), tag);
  std::remove(path.c_str());
}

// --- Error paths -----------------------------------------------------------

class SnapshotErrorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = SnapPath("error.snap");
    BuildAndSave(path_, /*with_fact_sets=*/true);
    std::ifstream in(path_, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    bytes_ = buf.str();
    ASSERT_GT(bytes_.size(), sizeof(persist::SnapshotHeader));
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// Write a mutated copy of the snapshot and return its path.
  std::string WriteMutated(size_t offset, char xor_mask) {
    std::string bytes = bytes_;
    bytes[offset] ^= xor_mask;
    return WriteBytes(bytes);
  }

  std::string WriteBytes(const std::string& bytes) {
    const std::string path = SnapPath("mutated.snap");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
  }

  /// Recompute every segment checksum and the TOC checksum, so only the
  /// loader's structural checks stand between an edit and the accessors.
  static void Reseal(std::string* bytes) {
    persist::SnapshotHeader header;
    std::memcpy(&header, bytes->data(), sizeof(header));
    std::vector<persist::SegmentEntry> toc(header.num_segments);
    const size_t toc_bytes = toc.size() * sizeof(persist::SegmentEntry);
    std::memcpy(toc.data(), bytes->data() + header.toc_offset, toc_bytes);
    for (persist::SegmentEntry& e : toc) {
      e.checksum = persist::HashBytes(bytes->data() + e.offset, e.length);
    }
    std::memcpy(&(*bytes)[header.toc_offset], toc.data(), toc_bytes);
    header.toc_checksum = persist::HashBytes(toc.data(), toc_bytes);
    std::memcpy(&(*bytes)[0], &header, sizeof(header));
  }

  /// Reseal an edited copy of the snapshot, then expect it to open (every
  /// checksum holds) and Load to refuse it with a ParseError.
  void ExpectLoadRefused(std::string bytes) {
    Reseal(&bytes);
    const std::string p = WriteBytes(bytes);
    persist::SnapshotReader reader;
    ASSERT_TRUE(reader.Open(p).ok());
    Graph graph;
    std::unique_ptr<AttributeStore> store;
    StructuralSummary summary;
    std::vector<AttrStats> stats;
    Status st = reader.Load(&graph, &store, &summary, &stats, nullptr, nullptr);
    EXPECT_EQ(st.code(), Status::Code::kParseError) << st.ToString();
    std::remove(p.c_str());
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(SnapshotErrorTest, RejectsBadMagic) {
  const std::string p = WriteMutated(0, 0x40);
  persist::SnapshotReader reader;
  Status st = reader.Open(p);
  EXPECT_FALSE(st.ok()) << st.ToString();
  EXPECT_FALSE(reader.is_open());
  std::remove(p.c_str());
}

TEST_F(SnapshotErrorTest, RejectsUnknownVersion) {
  // version is the u32 at offset 8. The second mask makes it 1: version 1
  // files carried segments this reader no longer knows.
  for (char mask : {char{0x7f}, static_cast<char>(persist::kSnapshotVersion ^ 1)}) {
    const std::string p = WriteMutated(8, mask);
    persist::SnapshotReader reader;
    Status st = reader.Open(p);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.ToString().find("version"), std::string::npos) << st.ToString();
    std::remove(p.c_str());
  }
}

TEST_F(SnapshotErrorTest, RejectsForeignEndianness) {
  // endian probe is the u32 at offset 12.
  const std::string p = WriteMutated(12, 0x55);
  persist::SnapshotReader reader;
  EXPECT_FALSE(reader.Open(p).ok());
  std::remove(p.c_str());
}

TEST_F(SnapshotErrorTest, DetectsACorruptedSegment) {
  // Flip one payload byte in the middle of the file: checksum verification
  // must catch it; with verification disabled the structural checks alone
  // accept the (trusted) file.
  const std::string p = WriteMutated(bytes_.size() / 2, 0x01);
  {
    persist::SnapshotReader reader;
    Status st = reader.Open(p);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.ToString().find("checksum"), std::string::npos)
        << st.ToString();
  }
  {
    persist::SnapshotReader reader;
    persist::SnapshotReader::Options options;
    options.verify_checksums = false;
    EXPECT_TRUE(reader.Open(p, options).ok());
  }
  std::remove(p.c_str());
}

TEST_F(SnapshotErrorTest, RejectsTruncatedFiles) {
  // Every truncation point must fail gracefully — never crash or attach.
  for (size_t keep : {size_t{0}, size_t{17}, sizeof(persist::SnapshotHeader),
                      bytes_.size() / 2, bytes_.size() - 1}) {
    SCOPED_TRACE("keep = " + std::to_string(keep));
    const std::string p = WriteBytes(bytes_.substr(0, keep));
    persist::SnapshotReader reader;
    EXPECT_FALSE(reader.Open(p).ok());
    EXPECT_FALSE(reader.is_open());
    std::remove(p.c_str());
  }
}

TEST_F(SnapshotErrorTest, RejectsMalformedDictionaryRecords) {
  using Record = Dictionary::ArenaRecord;
  persist::SnapshotReader probe;
  ASSERT_TRUE(probe.Open(path_).ok());
  const persist::SegmentEntry& seg = *probe.Find(persist::kDictRecords);
  const Span<Record> records = probe.GetSpan<Record>(seg);
  size_t literal = 1;
  while (records[literal].kind != static_cast<uint8_t>(TermKind::kLiteral)) {
    ++literal;
  }
  auto expect_refused = [&](size_t index, void (*edit)(Record*)) {
    SCOPED_TRACE("record " + std::to_string(index));
    std::string bytes = bytes_;
    Record r = records[index];
    edit(&r);
    std::memcpy(&bytes[seg.offset + index * sizeof(Record)], &r, sizeof(r));
    ExpectLoadRefused(bytes);
  };
  expect_refused(literal, [](Record* r) { r->datatype = 0x7ffffff0; });
  expect_refused(literal, [](Record* r) { r->kind = 3; });
  expect_refused(0, [](Record* r) { r->pad1 = 1; });
}

TEST_F(SnapshotErrorTest, RejectsIdsAndOffsetsOutOfRange) {
  // Triple ids index the dictionary and the summary rebuild's arrays;
  // attribute offsets slice the object column without bounds checks.
  persist::SnapshotReader probe;
  ASSERT_TRUE(probe.Open(path_).ok());
  const uint32_t past_end = static_cast<uint32_t>(probe.header().num_terms + 1);
  const persist::SegmentEntry& offsets_seg = *probe.Find(persist::kAttrOffsets);
  const Span<uint32_t> offsets = probe.GetSpan<uint32_t>(offsets_seg);
  ASSERT_GE(offsets.size(), 3u);
  struct Edit {
    uint64_t at;
    uint32_t value;
  };
  std::vector<Edit> edits = {{offsets_seg.offset + 4, offsets[2] + 1},
                             {offsets_seg.offset, 1}};
  for (uint32_t kind : {persist::kTriplesSpo, persist::kTriplesPos}) {
    for (uint64_t field = 0; field < 3; ++field) {
      for (uint32_t id : {past_end, 0x7ffffff0u, uint32_t{kInvalidTerm}}) {
        edits.push_back({probe.Find(kind)->offset + 4 * field, id});
      }
    }
  }
  for (const Edit& e : edits) {
    SCOPED_TRACE("byte " + std::to_string(e.at) + " = " +
                 std::to_string(e.value));
    std::string bytes = bytes_;
    std::memcpy(&bytes[e.at], &e.value, sizeof(e.value));
    ExpectLoadRefused(bytes);
  }
}

TEST_F(SnapshotErrorTest, MissingFileIsAStatusNotACrash) {
  persist::SnapshotReader reader;
  Status st = reader.Open(SnapPath("does-not-exist.snap"));
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(reader.is_open());
}

TEST_F(SnapshotErrorTest, FailedLoadLeavesNoHalfAttachedState) {
  const std::string p = WriteMutated(bytes_.size() / 2, 0x01);
  SpadeOptions options = BaseOptions();
  options.load_store = p;
  Graph graph;
  Spade spade(&graph, options);
  EXPECT_FALSE(spade.RunOffline().ok());
  std::remove(p.c_str());
}

// --- Explore / serve -------------------------------------------------------

TEST(ServeTest, ExploreRejectsUnknownFactSets) {
  auto graph = GenerateSynthetic(SmallCorpus());
  Spade spade(graph.get(), BaseOptions());
  ASSERT_TRUE(spade.RunOffline().ok());
  ASSERT_TRUE(spade.PrepareFactSets().ok());
  ExploreRequest req;
  req.cfs_names.push_back("no-such-fact-set");
  auto result = spade.Explore(req, /*scheduler=*/nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kNotFound);
}

TEST(ServeTest, OutputIsByteIdenticalAcrossThreadCounts) {
  const std::string path = SnapPath("serve.snap");
  BuildAndSave(path, /*with_fact_sets=*/true);

  const std::string requests =
      "stats\n"
      "list\n"
      "explore top=3\n"
      "explore top=2 interestingness=skewness\n"
      "explore cfs=bogus\n"
      "not-a-command\n"
      "explore top=1 algorithm=arraycube earlystop=off\n"
      "# a comment, skipped\n"
      "\n"
      "explore top=2 max-dims=2 min-support=0.2\n"
      "quit\n"
      "explore top=1\n";  // after quit: never evaluated

  auto serve = [&](size_t threads) {
    SpadeOptions options = BaseOptions();
    options.load_store = path;
    Graph graph;
    Spade spade(&graph, options);
    EXPECT_TRUE(spade.RunOffline().ok());
    EXPECT_TRUE(spade.PrepareFactSets().ok());
    persist::ServeOptions sopts;
    sopts.num_threads = threads;
    persist::InsightServer server(&spade, sopts);
    std::istringstream in(requests);
    std::ostringstream out;
    persist::ServeStats stats = server.Serve(in, out);
    EXPECT_EQ(stats.num_requests, 8u);
    EXPECT_EQ(stats.num_errors, 2u);
    return out.str();
  };

  const std::string serial = serve(1);
  EXPECT_NE(serial.find("#1 ok"), std::string::npos);
  EXPECT_NE(serial.find("#5 error: "), std::string::npos);
  EXPECT_NE(serial.find("#6 error: "), std::string::npos);
  EXPECT_EQ(serial.find("#9 "), std::string::npos);  // quit stops the loop
  for (size_t threads : {2u, 4u}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    EXPECT_EQ(serial, serve(threads));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace spade
