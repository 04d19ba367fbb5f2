#include "src/rdf/turtle.h"

#include <gtest/gtest.h>

namespace spade {
namespace {

TermId Iri(Graph& g, const std::string& iri) {
  auto id = g.dict().Lookup(Term::Iri(iri));
  return id.value_or(kInvalidTerm);
}

TEST(TurtleTest, BasicTriplesWithPrefixes) {
  Graph g;
  std::string doc = R"(
@prefix ex: <http://example.org/> .
@prefix foaf: <http://xmlns.com/foaf/0.1/> .
ex:alice foaf:knows ex:bob .
ex:alice foaf:name "Alice" .
)";
  ASSERT_TRUE(TurtleReader::ParseString(doc, &g).ok());
  EXPECT_EQ(g.NumTriples(), 2u);
  TermId alice = Iri(g, "http://example.org/alice");
  TermId knows = Iri(g, "http://xmlns.com/foaf/0.1/knows");
  TermId bob = Iri(g, "http://example.org/bob");
  EXPECT_TRUE(g.Contains(alice, knows, bob));
}

TEST(TurtleTest, SparqlStyleDirectives) {
  Graph g;
  std::string doc =
      "PREFIX ex: <http://x/>\n"
      "ex:a ex:p ex:b .\n";
  ASSERT_TRUE(TurtleReader::ParseString(doc, &g).ok());
  EXPECT_EQ(g.NumTriples(), 1u);
}

TEST(TurtleTest, BaseResolution) {
  Graph g;
  std::string doc =
      "@base <http://data.org/> .\n"
      "<alice> <knows> <bob> .\n";
  ASSERT_TRUE(TurtleReader::ParseString(doc, &g).ok());
  EXPECT_NE(Iri(g, "http://data.org/alice"), kInvalidTerm);
  EXPECT_NE(Iri(g, "http://data.org/knows"), kInvalidTerm);
}

TEST(TurtleTest, PredicateAndObjectLists) {
  Graph g;
  std::string doc = R"(
@prefix ex: <http://x/> .
ex:ghosn ex:nationality ex:brazil, ex:france, ex:lebanon ;
         ex:age 66 ;
         a ex:CEO .
)";
  ASSERT_TRUE(TurtleReader::ParseString(doc, &g).ok());
  EXPECT_EQ(g.NumTriples(), 5u);
  TermId ghosn = Iri(g, "http://x/ghosn");
  EXPECT_EQ(g.Objects(ghosn, Iri(g, "http://x/nationality")).size(), 3u);
  EXPECT_EQ(g.Objects(ghosn, g.rdf_type()).size(), 1u);
}

TEST(TurtleTest, TypedAndTaggedLiterals) {
  Graph g;
  std::string doc = R"(
@prefix ex: <http://x/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:a ex:int "5"^^xsd:integer .
ex:a ex:tagged "bonjour"@fr .
ex:a ex:bare 42 .
ex:a ex:dec 3.5 .
ex:a ex:flag true .
)";
  ASSERT_TRUE(TurtleReader::ParseString(doc, &g).ok());
  EXPECT_EQ(g.NumTriples(), 5u);
  // Bare 42 carries the xsd:integer datatype.
  TermId a = Iri(g, "http://x/a");
  std::vector<TermId> bare = g.Objects(a, Iri(g, "http://x/bare"));
  ASSERT_EQ(bare.size(), 1u);
  const Term& t = g.dict().Get(bare[0]);
  EXPECT_EQ(t.lexical, "42");
  EXPECT_EQ(g.dict().Get(t.datatype).lexical, spade::vocab::kXsdInteger);
}

TEST(TurtleTest, LongStringLiterals) {
  Graph g;
  std::string doc =
      "@prefix ex: <http://x/> .\n"
      "ex:a ex:desc \"\"\"line one\nline \"two\"\"\"\" .\n";
  ASSERT_TRUE(TurtleReader::ParseString(doc, &g).ok());
  bool found = false;
  g.Match(kInvalidTerm, kInvalidTerm, kInvalidTerm, [&](const Triple& t) {
    const Term& o = g.dict().Get(t.o);
    if (o.kind == TermKind::kLiteral &&
        o.lexical == "line one\nline \"two\"") {
      found = true;
    }
  });
  EXPECT_TRUE(found);
}

TEST(TurtleTest, EscapesAndUnicode) {
  Graph g;
  std::string doc =
      "@prefix ex: <http://x/> .\n"
      "ex:a ex:v \"tab\\there \\u00e9\" .\n";
  ASSERT_TRUE(TurtleReader::ParseString(doc, &g).ok());
  bool found = false;
  g.Match(kInvalidTerm, kInvalidTerm, kInvalidTerm, [&](const Triple& t) {
    if (g.dict().Get(t.o).lexical == "tab\there \xc3\xa9") found = true;
  });
  EXPECT_TRUE(found);
}

TEST(TurtleTest, BlankNodes) {
  Graph g;
  std::string doc = R"(
@prefix ex: <http://x/> .
_:b1 ex:p ex:o .
ex:s ex:q _:b1 .
)";
  ASSERT_TRUE(TurtleReader::ParseString(doc, &g).ok());
  // The same label resolves to the same node.
  TermId s = Iri(g, "http://x/s");
  std::vector<TermId> q = g.Objects(s, Iri(g, "http://x/q"));
  ASSERT_EQ(q.size(), 1u);
  EXPECT_FALSE(g.Objects(q[0], Iri(g, "http://x/p")).empty());
}

TEST(TurtleTest, AnonymousBlankNodePropertyList) {
  Graph g;
  std::string doc = R"(
@prefix ex: <http://x/> .
ex:ceo ex:company [ ex:area "Diamond" ; ex:name "Sodian" ] .
)";
  ASSERT_TRUE(TurtleReader::ParseString(doc, &g).ok());
  EXPECT_EQ(g.NumTriples(), 3u);
  TermId ceo = Iri(g, "http://x/ceo");
  std::vector<TermId> companies = g.Objects(ceo, Iri(g, "http://x/company"));
  ASSERT_EQ(companies.size(), 1u);
  EXPECT_EQ(g.Objects(companies[0], Iri(g, "http://x/area")).size(), 1u);
}

TEST(TurtleTest, Collections) {
  Graph g;
  std::string doc = R"(
@prefix ex: <http://x/> .
ex:s ex:list ( ex:a ex:b ex:c ) .
ex:t ex:empty ( ) .
)";
  ASSERT_TRUE(TurtleReader::ParseString(doc, &g).ok());
  Dictionary& d = g.dict();
  TermId first = *d.Lookup(Term::Iri(vocab::kRdfFirst));
  TermId rest = *d.Lookup(Term::Iri(vocab::kRdfRest));
  TermId nil = *d.Lookup(Term::Iri(vocab::kRdfNil));
  // Walk the chain s -> (a b c).
  TermId s = Iri(g, "http://x/s");
  std::vector<TermId> heads = g.Objects(s, Iri(g, "http://x/list"));
  ASSERT_EQ(heads.size(), 1u);
  TermId cell = heads[0];
  std::vector<std::string> items;
  while (cell != nil) {
    std::vector<TermId> firsts = g.Objects(cell, first);
    ASSERT_EQ(firsts.size(), 1u);
    items.push_back(d.Get(firsts[0]).lexical);
    std::vector<TermId> rests = g.Objects(cell, rest);
    ASSERT_EQ(rests.size(), 1u);
    cell = rests[0];
  }
  EXPECT_EQ(items, (std::vector<std::string>{"http://x/a", "http://x/b",
                                             "http://x/c"}));
  // Empty collection maps straight to rdf:nil.
  TermId t = Iri(g, "http://x/t");
  EXPECT_EQ(g.Objects(t, Iri(g, "http://x/empty")),
            (std::vector<TermId>{nil}));
}

TEST(TurtleTest, CommentsEverywhere) {
  Graph g;
  std::string doc =
      "# leading comment\n"
      "@prefix ex: <http://x/> . # trailing\n"
      "ex:a # comment mid-statement\n"
      "  ex:p ex:b . # done\n";
  ASSERT_TRUE(TurtleReader::ParseString(doc, &g).ok());
  EXPECT_EQ(g.NumTriples(), 1u);
}

TEST(TurtleTest, ErrorsNameTheLine) {
  Graph g;
  Status st = TurtleReader::ParseString(
      "@prefix ex: <http://x/> .\nex:a ex:p\n", &g);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kParseError);
}

TEST(TurtleTest, RefusesLanguageTagsARecordCannotHold) {
  const std::string tag(Dictionary::kMaxLanguageBytes, 'a');
  const std::string doc =
      "@prefix ex: <http://x/> .\nex:a ex:p ex:b .\nex:a ex:q \"x\"@" + tag;
  Graph g;
  EXPECT_TRUE(TurtleReader::ParseString(doc + " .", &g).ok());
  Status st = TurtleReader::ParseString(doc + "a .", &g);
  EXPECT_EQ(st.code(), Status::Code::kParseError);
  EXPECT_NE(st.message().find("line 3: language tag"), std::string::npos)
      << st.message();
}

TEST(TurtleTest, RejectsBadDocuments) {
  auto bad = [](const std::string& doc) {
    Graph g;
    EXPECT_FALSE(TurtleReader::ParseString(doc, &g).ok()) << doc;
  };
  bad("@prefix ex <http://x/> .\n");            // missing ':'
  bad("ex:a ex:p ex:b .\n");                    // unknown prefix
  bad("@prefix ex: <http://x/> .\nex:a ex:p \"unterminated .\n");
  bad("@prefix ex: <http://x/> .\nex:a ex:p ex:b\n");  // missing '.'
  bad("@prefix ex: <http://x/> .\n\"lit\" ex:p ex:b .\n");
  bad("@prefix ex: <http://x/> .\nex:a ex:p [ ex:q ex:r .\n");  // unclosed [
}

TEST(TurtleTest, EquivalentToManuallyBuiltGraph) {
  // The same data written in Turtle and built through the API agree.
  Graph g1, g2;
  ASSERT_TRUE(TurtleReader::ParseString(
                  "@prefix ex: <http://x/> .\n"
                  "ex:a ex:p ex:b ; ex:q \"v\" .\n",
                  &g1)
                  .ok());
  Dictionary& d = g2.dict();
  g2.Add(d.InternIri("http://x/a"), d.InternIri("http://x/p"),
         d.InternIri("http://x/b"));
  g2.Add(d.InternIri("http://x/a"), d.InternIri("http://x/q"),
         d.InternString("v"));
  g2.Freeze();
  EXPECT_EQ(g1.NumTriples(), g2.NumTriples());
  EXPECT_TRUE(g1.Contains(*g1.dict().Lookup(Term::Iri("http://x/a")),
                          *g1.dict().Lookup(Term::Iri("http://x/q")),
                          *g1.dict().Lookup(Term::Literal("v"))));
}

}  // namespace
}  // namespace spade
