#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <stdexcept>

#include "src/rdf/dictionary.h"
#include "src/rdf/graph.h"
#include "src/rdf/ntriples.h"
#include "src/rdf/ontology.h"

namespace spade {
namespace {

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary dict;
  TermId a = dict.InternIri("http://x/a");
  TermId b = dict.InternIri("http://x/a");
  EXPECT_EQ(a, b);
  EXPECT_EQ(dict.size(), 1u);
  EXPECT_EQ(dict.Get(a).lexical, "http://x/a");
}

TEST(DictionaryTest, DistinguishesKinds) {
  Dictionary dict;
  TermId iri = dict.InternIri("x");
  TermId lit = dict.InternString("x");
  TermId blank = dict.InternBlank("x");
  EXPECT_NE(iri, lit);
  EXPECT_NE(lit, blank);
  EXPECT_NE(iri, blank);
}

TEST(DictionaryTest, DistinguishesDatatypeAndLanguage) {
  Dictionary dict;
  TermId plain = dict.InternString("5");
  TermId typed = dict.InternInteger(5);
  TermId tagged = dict.Intern(Term::Literal("5", kInvalidTerm, "en"));
  EXPECT_NE(plain, typed);
  EXPECT_NE(plain, tagged);
  EXPECT_NE(typed, tagged);
}

TEST(DictionaryTest, LookupWithoutIntern) {
  Dictionary dict;
  dict.InternIri("present");
  EXPECT_TRUE(dict.Lookup(Term::Iri("present")).has_value());
  EXPECT_FALSE(dict.Lookup(Term::Iri("absent")).has_value());
  EXPECT_EQ(dict.size(), 1u);
}

TEST(DictionaryTest, NumericValue) {
  Dictionary dict;
  double v;
  EXPECT_TRUE(dict.NumericValue(dict.InternInteger(42), &v));
  EXPECT_DOUBLE_EQ(v, 42);
  EXPECT_TRUE(dict.NumericValue(dict.InternDouble(2.5), &v));
  EXPECT_DOUBLE_EQ(v, 2.5);
  EXPECT_TRUE(dict.NumericValue(dict.InternString("17"), &v));  // plain numeric
  EXPECT_FALSE(dict.NumericValue(dict.InternString("abc"), &v));
  EXPECT_FALSE(dict.NumericValue(dict.InternIri("http://17"), &v));
  EXPECT_FALSE(dict.NumericValue(kInvalidTerm, &v));
}

// Every kind, plain/typed/tagged literals, an empty lexical form and
// non-ASCII bytes.
void InternSample(Dictionary* dict, const std::string& suffix) {
  dict->InternIri("http://x/a" + suffix);
  dict->InternBlank("b" + suffix);
  dict->InternString("");
  dict->InternString("plain" + suffix);
  dict->InternInteger(42);
  dict->InternDouble(2.5);
  dict->Intern(Term::Literal("chat\xc3\xa9" + suffix, kInvalidTerm, "fr"));
  dict->Intern(Term::Literal("x", dict->InternIri("http://x/dt")));
}

/// A dictionary attached to copies of `from`'s records and arena, as a
/// snapshot load attaches one to the mapping.
struct AttachedCopy {
  explicit AttachedCopy(const Dictionary& from)
      : records(from.records().ToVector()), arena(from.arena().ToVector()) {
    dict.AttachArena(records, arena);
  }
  std::vector<Dictionary::ArenaRecord> records;
  std::vector<char> arena;
  Dictionary dict;
};

TEST(DictionaryTest, AttachedAnswersLikeBuilt) {
  Dictionary built;
  for (int i = 0; i < 50; ++i) InternSample(&built, std::to_string(i));
  AttachedCopy attached(built);
  const Dictionary& dict = attached.dict;
  ASSERT_EQ(dict.size(), built.size());
  for (TermId id = 1; id <= built.max_id(); ++id) {
    EXPECT_EQ(dict.KindOf(id), built.KindOf(id)) << id;
    EXPECT_EQ(dict.LexicalOf(id), built.LexicalOf(id)) << id;
    EXPECT_EQ(dict.LanguageOf(id), built.LanguageOf(id)) << id;
    EXPECT_EQ(dict.DatatypeOf(id), built.DatatypeOf(id)) << id;
    double a = 0, b = 0;
    EXPECT_EQ(dict.NumericValue(id, &a), built.NumericValue(id, &b)) << id;
    EXPECT_EQ(a, b) << id;
    if (id % 7 == 0) {
      EXPECT_EQ(dict.Get(id), built.Get(id)) << id;
      EXPECT_EQ(dict.Lookup(built.Get(id)), id);
    }
  }
}

TEST(DictionaryTest, AttachedInternsLikeAFreshBuild) {
  Dictionary fresh;
  InternSample(&fresh, "");
  AttachedCopy attached(fresh);
  Dictionary& dict = attached.dict;
  for (TermId id = 1; id <= fresh.max_id(); ++id) {
    EXPECT_EQ(dict.Intern(fresh.Get(id)), id);
  }
  EXPECT_EQ(dict.size(), fresh.size());

  const Term term = Term::Literal("new", kInvalidTerm, "en");
  const TermId id = dict.Intern(term);
  EXPECT_EQ(id, dict.size());
  EXPECT_EQ(dict.Get(id), term);
  // Appends past the attached records lay out the bytes a fresh build of
  // the same intern sequence does.
  fresh.Intern(term);
  for (Dictionary* d : {&dict, &fresh}) {
    for (int i = 0; i < 1000; ++i) InternSample(d, std::to_string(i));
  }
  ASSERT_EQ(dict.size(), fresh.size());
  const size_t record_bytes =
      fresh.records().size() * sizeof(Dictionary::ArenaRecord);
  EXPECT_EQ(
      std::memcmp(dict.records().data(), fresh.records().data(), record_bytes),
      0);
  EXPECT_EQ(dict.arena().ToVector(), fresh.arena().ToVector());
}

TEST(DictionaryTest, InternRefusesALanguageTagARecordCannotHold) {
  Dictionary dict;
  const std::string tag(Dictionary::kMaxLanguageBytes + 1, 'a');
  EXPECT_THROW(dict.Intern(Term::Literal("x", kInvalidTerm, tag)),
               std::length_error);
  EXPECT_EQ(dict.size(), 0u);
}

class GraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    s1 = g.dict().InternIri("s1");
    s2 = g.dict().InternIri("s2");
    p1 = g.dict().InternIri("p1");
    p2 = g.dict().InternIri("p2");
    o1 = g.dict().InternIri("o1");
    o2 = g.dict().InternIri("o2");
    t = g.dict().InternIri("T");
    g.Add(s1, p1, o1);
    g.Add(s1, p1, o2);
    g.Add(s1, p2, o1);
    g.Add(s2, p1, o1);
    g.Add(s1, g.rdf_type(), t);
    g.Freeze();
  }
  Graph g;
  TermId s1, s2, p1, p2, o1, o2, t;
};

TEST_F(GraphTest, CountsAndDedup) {
  EXPECT_EQ(g.NumTriples(), 5u);
  g.Add(s1, p1, o1);  // duplicate
  EXPECT_EQ(g.NumTriples(), 5u);
}

TEST_F(GraphTest, Contains) {
  EXPECT_TRUE(g.Contains(s1, p1, o1));
  EXPECT_FALSE(g.Contains(s2, p2, o1));
}

TEST_F(GraphTest, Objects) {
  EXPECT_EQ(g.Objects(s1, p1), (std::vector<TermId>{o1, o2}));
  EXPECT_EQ(g.Objects(s2, p2), (std::vector<TermId>{}));
}

TEST_F(GraphTest, Subjects) {
  EXPECT_EQ(g.Subjects(p1, o1), (std::vector<TermId>{s1, s2}));
}

TEST_F(GraphTest, PropertiesOf) {
  std::vector<TermId> props = g.PropertiesOf(s1);
  EXPECT_EQ(props.size(), 3u);  // p1, p2, rdf:type
}

TEST_F(GraphTest, MatchPatterns) {
  size_t count = 0;
  g.Match(kInvalidTerm, kInvalidTerm, kInvalidTerm,
          [&](const Triple&) { ++count; });
  EXPECT_EQ(count, 5u);

  count = 0;
  g.Match(s1, kInvalidTerm, kInvalidTerm, [&](const Triple& tr) {
    EXPECT_EQ(tr.s, s1);
    ++count;
  });
  EXPECT_EQ(count, 4u);

  count = 0;
  g.Match(kInvalidTerm, p1, kInvalidTerm, [&](const Triple& tr) {
    EXPECT_EQ(tr.p, p1);
    ++count;
  });
  EXPECT_EQ(count, 3u);

  count = 0;
  g.Match(kInvalidTerm, kInvalidTerm, o1, [&](const Triple& tr) {
    EXPECT_EQ(tr.o, o1);
    ++count;
  });
  EXPECT_EQ(count, 3u);

  count = 0;
  g.Match(s1, p1, o2, [&](const Triple&) { ++count; });
  EXPECT_EQ(count, 1u);
}

TEST_F(GraphTest, TypeHelpers) {
  EXPECT_EQ(g.AllTypes(), (std::vector<TermId>{t}));
  EXPECT_EQ(g.NodesOfType(t), (std::vector<TermId>{s1}));
}

TEST_F(GraphTest, AllSubjectsAndProperties) {
  EXPECT_EQ(g.AllSubjects(), (std::vector<TermId>{s1, s2}));
  EXPECT_EQ(g.AllProperties().size(), 3u);
}

TEST_F(GraphTest, InterleavedWriteAndRead) {
  g.Add(s2, p2, o2);
  EXPECT_TRUE(g.Contains(s2, p2, o2));  // auto-freeze
  EXPECT_EQ(g.NumTriples(), 6u);
}

TEST(NTriplesTest, ParsesBasicForms) {
  Graph g;
  std::string data =
      "<http://x/s> <http://x/p> <http://x/o> .\n"
      "# a comment line\n"
      "\n"
      "_:b1 <http://x/p> \"hello\" .\n"
      "<http://x/s> <http://x/q> \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n"
      "<http://x/s> <http://x/q> \"bonjour\"@fr .\n";
  ASSERT_TRUE(NTriplesReader::ParseString(data, &g).ok());
  EXPECT_EQ(g.NumTriples(), 4u);
}

TEST(NTriplesTest, DecodesEscapes) {
  Graph g;
  std::string data =
      "<s> <p> \"line1\\nline2\\t\\\"quoted\\\" back\\\\slash\" .\n"
      "<s> <p> \"unicode \\u00e9 and \\U0001F600\" .\n";
  ASSERT_TRUE(NTriplesReader::ParseString(data, &g).ok());
  bool found_newline = false, found_unicode = false;
  g.Match(kInvalidTerm, kInvalidTerm, kInvalidTerm, [&](const Triple& t) {
    const Term& o = g.dict().Get(t.o);
    if (o.lexical.find("line1\nline2\t\"quoted\" back\\slash") != std::string::npos) {
      found_newline = true;
    }
    if (o.lexical.find("\xc3\xa9") != std::string::npos &&
        o.lexical.find("\xf0\x9f\x98\x80") != std::string::npos) {
      found_unicode = true;
    }
  });
  EXPECT_TRUE(found_newline);
  EXPECT_TRUE(found_unicode);
}

TEST(NTriplesTest, RejectsMalformedLines) {
  auto expect_bad = [](const std::string& line) {
    Graph g;
    Status st = NTriplesReader::ParseString(line, &g);
    EXPECT_FALSE(st.ok()) << line;
    EXPECT_EQ(st.code(), Status::Code::kParseError) << line;
  };
  expect_bad("<s> <p> <o>\n");                 // missing dot
  expect_bad("<s> <p .\n");                    // unclosed IRI
  expect_bad("<s> \"lit\" <o> .\n");           // literal predicate
  expect_bad("\"lit\" <p> <o> .\n");           // literal subject
  expect_bad("<s> <p> \"unterminated .\n");    // unterminated literal
  expect_bad("<s> <p> \"bad\\u12XZ\" .\n");    // bad hex
}

TEST(NTriplesTest, ErrorNamesLineNumber) {
  Graph g;
  Status st = NTriplesReader::ParseString("<a> <b> <c> .\n<bad line\n", &g);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("line 2"), std::string::npos);
}

TEST(NTriplesTest, RefusesLanguageTagsARecordCannotHold) {
  const std::string tag(Dictionary::kMaxLanguageBytes, 'a');
  Graph g;
  const std::string literal = "<a> <b> \"x\"@" + tag;
  EXPECT_TRUE(NTriplesReader::ParseString(literal + " .\n", &g).ok());
  Status st = NTriplesReader::ParseString("<a> <b> <c> .\n" + literal + "a .\n", &g);
  EXPECT_EQ(st.code(), Status::Code::kParseError);
  EXPECT_NE(st.message().find("line 2: language tag"), std::string::npos)
      << st.message();
}

TEST(NTriplesTest, RoundTrip) {
  Graph g;
  std::string data =
      "<http://x/s> <http://x/p> \"a\\n\\\"b\\\"\" .\n"
      "<http://x/s> <http://x/p> \"v\"@en .\n"
      "<http://x/s> <http://x/p> \"7\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n"
      "_:n1 <http://x/p> <http://x/o> .\n";
  ASSERT_TRUE(NTriplesReader::ParseString(data, &g).ok());
  std::ostringstream out;
  NTriplesWriter::Write(g, out);
  Graph g2;
  ASSERT_TRUE(NTriplesReader::ParseString(out.str(), &g2).ok());
  EXPECT_EQ(g2.NumTriples(), g.NumTriples());
  // Second round trip is byte-identical (canonical form reached).
  std::ostringstream out2;
  NTriplesWriter::Write(g2, out2);
  // Graphs use independent dictionaries; compare the serialized multisets.
  std::ostringstream out1_again;
  NTriplesWriter::Write(g, out1_again);
  EXPECT_EQ(out1_again.str().size(), out2.str().size());
}

TEST(OntologyTest, SubClassTransitivityAndTyping) {
  Graph g;
  Dictionary& d = g.dict();
  TermId ceo = d.InternIri("CEO");
  TermId business = d.InternIri("BusinessPerson");
  TermId person = d.InternIri("Person");
  TermId sub_class = d.InternIri(vocab::kRdfsSubClassOf);
  TermId alice = d.InternIri("alice");
  g.Add(ceo, sub_class, business);
  g.Add(business, sub_class, person);
  g.Add(alice, g.rdf_type(), ceo);

  size_t added = Saturate(&g);
  EXPECT_GE(added, 3u);  // ceo<person, alice:business, alice:person
  EXPECT_TRUE(g.Contains(ceo, sub_class, person));
  EXPECT_TRUE(g.Contains(alice, g.rdf_type(), business));
  EXPECT_TRUE(g.Contains(alice, g.rdf_type(), person));
}

TEST(OntologyTest, SubPropertyPropagation) {
  Graph g;
  Dictionary& d = g.dict();
  TermId manages = d.InternIri("manages");
  TermId related = d.InternIri("relatedTo");
  TermId sub_prop = d.InternIri(vocab::kRdfsSubPropertyOf);
  TermId a = d.InternIri("a"), b = d.InternIri("b");
  g.Add(manages, sub_prop, related);
  g.Add(a, manages, b);
  Saturate(&g);
  EXPECT_TRUE(g.Contains(a, related, b));
}

TEST(OntologyTest, DomainAndRange) {
  Graph g;
  Dictionary& d = g.dict();
  TermId manages = d.InternIri("manages");
  TermId ceo = d.InternIri("CEO");
  TermId company = d.InternIri("Company");
  TermId domain = d.InternIri(vocab::kRdfsDomain);
  TermId range = d.InternIri(vocab::kRdfsRange);
  TermId a = d.InternIri("a"), b = d.InternIri("b");
  g.Add(manages, domain, ceo);
  g.Add(manages, range, company);
  g.Add(a, manages, b);
  Saturate(&g);
  EXPECT_TRUE(g.Contains(a, g.rdf_type(), ceo));
  EXPECT_TRUE(g.Contains(b, g.rdf_type(), company));
}

TEST(OntologyTest, RangeSkipsLiterals) {
  Graph g;
  Dictionary& d = g.dict();
  TermId age_of = d.InternIri("age");
  TermId number = d.InternIri("Number");
  g.Add(age_of, d.InternIri(vocab::kRdfsRange), number);
  TermId a = d.InternIri("a");
  TermId lit = d.InternInteger(42);
  g.Add(a, age_of, lit);
  Saturate(&g);
  EXPECT_FALSE(g.Contains(lit, g.rdf_type(), number));
}

TEST(OntologyTest, SubPropertyThenDomainFixpoint) {
  // rdfs7 then rdfs2 through the *super* property.
  Graph g;
  Dictionary& d = g.dict();
  TermId p = d.InternIri("p");
  TermId q = d.InternIri("q");
  TermId c = d.InternIri("C");
  g.Add(p, d.InternIri(vocab::kRdfsSubPropertyOf), q);
  g.Add(q, d.InternIri(vocab::kRdfsDomain), c);
  TermId a = d.InternIri("a"), b = d.InternIri("b");
  g.Add(a, p, b);
  Saturate(&g);
  EXPECT_TRUE(g.Contains(a, q, b));
  EXPECT_TRUE(g.Contains(a, g.rdf_type(), c));
}

TEST(OntologyTest, SaturationIsIdempotent) {
  Graph g;
  Dictionary& d = g.dict();
  TermId ceo = d.InternIri("CEO");
  TermId person = d.InternIri("Person");
  g.Add(ceo, d.InternIri(vocab::kRdfsSubClassOf), person);
  g.Add(d.InternIri("alice"), g.rdf_type(), ceo);
  Saturate(&g);
  size_t after_first = g.NumTriples();
  EXPECT_EQ(Saturate(&g), 0u);
  EXPECT_EQ(g.NumTriples(), after_first);
}

}  // namespace
}  // namespace spade
