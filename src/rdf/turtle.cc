#include "src/rdf/turtle.h"

#include <cctype>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>

#include "src/util/string_util.h"

namespace spade {

namespace {

/// Character-level parser over the whole document (Turtle is not
/// line-oriented: statements span lines freely). Parsed triples are emitted
/// into a caller-owned buffer, not the graph: the one-shot reader drains the
/// whole document and adds them itself, the chunk reader hands batches to
/// its caller. Parsing can be suspended at any statement boundary
/// (ParseSome) and resumed — prefixes, the base IRI and the blank-node
/// counter persist across calls.
class TurtleParser {
 public:
  TurtleParser(std::string_view text, Graph* graph)
      : text_(text), graph_(graph), dict_(&graph->dict()) {}

  /// Parse whole statements into `out` until it holds >= max_triples
  /// triples or the document ends (*done). Errors latch.
  Status ParseSome(size_t max_triples, std::vector<Triple>* out, bool* done) {
    out_ = out;
    if (!error_.ok()) {  // latched: the stream ended at the error
      *done = true;
      return error_;
    }
    *done = false;
    while (out->size() < max_triples) {
      SkipWs();
      if (AtEnd()) {
        *done = true;
        break;
      }
      Status st = ParseStatement();
      if (!st.ok()) {
        error_ = st;
        *done = true;
        return error_;
      }
    }
    return Status::OK();
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return AtEnd() ? '\0' : text_[pos_]; }
  char PeekAt(size_t ahead) const {
    return pos_ + ahead >= text_.size() ? '\0' : text_[pos_ + ahead];
  }

  void SkipWs() {
    while (!AtEnd()) {
      char c = text_[pos_];
      if (c == '#') {
        while (!AtEnd() && text_[pos_] != '\n') ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        if (c == '\n') ++line_;
        ++pos_;
      } else {
        break;
      }
    }
  }

  Status Err(const std::string& msg) {
    return Status::ParseError("line " + std::to_string(line_) + ": " + msg);
  }

  bool ConsumeKeyword(const char* kw) {
    size_t len = std::strlen(kw);
    if (pos_ + len > text_.size()) return false;
    for (size_t i = 0; i < len; ++i) {
      if (std::tolower(static_cast<unsigned char>(text_[pos_ + i])) !=
          std::tolower(static_cast<unsigned char>(kw[i]))) {
        return false;
      }
    }
    // Keyword must not continue as a name.
    char next = PeekAt(len);
    if (std::isalnum(static_cast<unsigned char>(next)) || next == '_') {
      return false;
    }
    pos_ += len;
    return true;
  }

  Status ParseStatement() {
    if (Peek() == '@') {
      ++pos_;
      if (ConsumeKeyword("prefix")) return ParsePrefix(/*dotted=*/true);
      if (ConsumeKeyword("base")) return ParseBase(/*dotted=*/true);
      return Err("unknown @directive");
    }
    // SPARQL-style directives (no trailing dot).
    size_t save = pos_;
    if (ConsumeKeyword("prefix")) return ParsePrefix(/*dotted=*/false);
    pos_ = save;
    if (ConsumeKeyword("base")) return ParseBase(/*dotted=*/false);
    pos_ = save;
    return ParseTriples();
  }

  Status ParsePrefix(bool dotted) {
    SkipWs();
    // prefix name up to ':'.
    size_t start = pos_;
    while (!AtEnd() && text_[pos_] != ':' &&
           !std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    std::string name(text_.substr(start, pos_ - start));
    SkipWs();
    if (Peek() != ':') return Err("expected ':' in prefix declaration");
    ++pos_;
    SkipWs();
    std::string iri;
    SPADE_RETURN_NOT_OK(ParseIriRef(&iri));
    prefixes_[name] = iri;
    if (dotted) {
      SkipWs();
      if (Peek() != '.') return Err("expected '.' after @prefix");
      ++pos_;
    }
    return Status::OK();
  }

  Status ParseBase(bool dotted) {
    SkipWs();
    SPADE_RETURN_NOT_OK(ParseIriRef(&base_));
    if (dotted) {
      SkipWs();
      if (Peek() != '.') return Err("expected '.' after @base");
      ++pos_;
    }
    return Status::OK();
  }

  Status ParseIriRef(std::string* out) {
    if (Peek() != '<') return Err("expected IRI");
    size_t close = text_.find('>', pos_ + 1);
    if (close == std::string_view::npos) return Err("unclosed IRI");
    std::string raw(text_.substr(pos_ + 1, close - pos_ - 1));
    pos_ = close + 1;
    // Resolve relative IRIs against @base (string prefixing is all the
    // target data needs; full RFC 3986 resolution is out of scope).
    if (!base_.empty() && raw.find("://") == std::string::npos &&
        !StartsWith(raw, "urn:") && !StartsWith(raw, "mailto:")) {
      raw = base_ + raw;
    }
    *out = std::move(raw);
    return Status::OK();
  }

  Status ParseTriples() {
    TermId subject;
    if (Peek() == '[') {
      SPADE_RETURN_NOT_OK(ParseBlankNodePropertyList(&subject));
      SkipWs();
      // `[ ... ] .` is a valid statement on its own.
      if (Peek() == '.') {
        ++pos_;
        return Status::OK();
      }
    } else {
      SPADE_RETURN_NOT_OK(ParseTerm(/*as_subject=*/true, &subject));
    }
    SPADE_RETURN_NOT_OK(ParsePredicateObjectList(subject));
    SkipWs();
    if (Peek() != '.') return Err("expected '.' at end of statement");
    ++pos_;
    return Status::OK();
  }

  Status ParsePredicateObjectList(TermId subject) {
    while (true) {
      SkipWs();
      TermId predicate;
      if (Peek() == 'a' &&
          (std::isspace(static_cast<unsigned char>(PeekAt(1))) ||
           PeekAt(1) == '<' || PeekAt(1) == '[' || PeekAt(1) == '_')) {
        ++pos_;
        predicate = graph_->rdf_type();
      } else {
        SPADE_RETURN_NOT_OK(ParseTerm(/*as_subject=*/true, &predicate));
        if (dict_->KindOf(predicate) != TermKind::kIri) {
          return Err("predicate must be an IRI");
        }
      }
      // Object list.
      while (true) {
        SkipWs();
        TermId object;
        SPADE_RETURN_NOT_OK(ParseObject(&object));
        Emit(subject, predicate, object);
        SkipWs();
        if (Peek() == ',') {
          ++pos_;
          continue;
        }
        break;
      }
      SkipWs();
      if (Peek() == ';') {
        ++pos_;
        SkipWs();
        // Trailing ';' before '.' is legal Turtle.
        if (Peek() == '.' || Peek() == ']') break;
        continue;
      }
      break;
    }
    return Status::OK();
  }

  Status ParseObject(TermId* out) {
    char c = Peek();
    if (c == '[') return ParseBlankNodePropertyList(out);
    if (c == '(') return ParseCollection(out);
    return ParseTerm(/*as_subject=*/false, out);
  }

  Status ParseBlankNodePropertyList(TermId* out) {
    ++pos_;  // over '['
    TermId node = dict_->InternBlank("anon" + std::to_string(next_anon_++));
    SkipWs();
    if (Peek() != ']') {
      SPADE_RETURN_NOT_OK(ParsePredicateObjectList(node));
      SkipWs();
    }
    if (Peek() != ']') return Err("expected ']'");
    ++pos_;
    *out = node;
    return Status::OK();
  }

  Status ParseCollection(TermId* out) {
    ++pos_;  // over '('
    TermId first = dict_->InternIri(vocab::kRdfFirst);
    TermId rest = dict_->InternIri(vocab::kRdfRest);
    TermId nil = dict_->InternIri(vocab::kRdfNil);
    TermId head = nil;
    TermId tail = kInvalidTerm;
    while (true) {
      SkipWs();
      if (Peek() == ')') {
        ++pos_;
        break;
      }
      if (AtEnd()) return Err("unterminated collection");
      TermId item;
      SPADE_RETURN_NOT_OK(ParseObject(&item));
      TermId cell = dict_->InternBlank("list" + std::to_string(next_anon_++));
      Emit(cell, first, item);
      if (tail == kInvalidTerm) {
        head = cell;
      } else {
        Emit(tail, rest, cell);
      }
      tail = cell;
    }
    if (tail != kInvalidTerm) Emit(tail, rest, nil);
    *out = head;
    return Status::OK();
  }

  // IRIs, prefixed names, blank labels, literals, numbers, booleans.
  Status ParseTerm(bool as_subject, TermId* out) {
    SkipWs();
    char c = Peek();
    if (c == '<') {
      std::string iri;
      SPADE_RETURN_NOT_OK(ParseIriRef(&iri));
      *out = dict_->InternIri(iri);
      return Status::OK();
    }
    if (c == '_') {
      if (PeekAt(1) != ':') return Err("bad blank node");
      pos_ += 2;
      size_t start = pos_;
      while (!AtEnd() && (std::isalnum(static_cast<unsigned char>(Peek())) ||
                          Peek() == '_' || Peek() == '-')) {
        ++pos_;
      }
      *out = dict_->InternBlank(std::string(text_.substr(start, pos_ - start)));
      return Status::OK();
    }
    if (c == '"' || c == '\'') {
      if (as_subject) return Err("literal not allowed as subject/predicate");
      return ParseLiteral(out);
    }
    if (!as_subject &&
        (std::isdigit(static_cast<unsigned char>(c)) || c == '+' || c == '-')) {
      return ParseNumber(out);
    }
    if (!as_subject && (ConsumeKeyword("true"))) {
      *out = dict_->Intern(Term::Literal("true", dict_->InternIri(vocab::kXsdBoolean)));
      return Status::OK();
    }
    if (!as_subject && (ConsumeKeyword("false"))) {
      *out = dict_->Intern(
          Term::Literal("false", dict_->InternIri(vocab::kXsdBoolean)));
      return Status::OK();
    }
    return ParsePrefixedName(out);
  }

  Status ParsePrefixedName(TermId* out) {
    size_t start = pos_;
    while (!AtEnd() && (std::isalnum(static_cast<unsigned char>(Peek())) ||
                        Peek() == '_' || Peek() == '-' || Peek() == '.')) {
      ++pos_;
    }
    if (Peek() != ':') return Err("expected a term");
    std::string prefix(text_.substr(start, pos_ - start));
    ++pos_;  // over ':'
    size_t lstart = pos_;
    while (!AtEnd() && (std::isalnum(static_cast<unsigned char>(Peek())) ||
                        Peek() == '_' || Peek() == '-' || Peek() == '.' ||
                        Peek() == '/')) {
      ++pos_;
    }
    // A trailing '.' terminates the statement, not the name.
    while (pos_ > lstart && text_[pos_ - 1] == '.') --pos_;
    std::string local(text_.substr(lstart, pos_ - lstart));
    auto it = prefixes_.find(prefix);
    if (it == prefixes_.end()) return Err("unknown prefix '" + prefix + "'");
    *out = dict_->InternIri(it->second + local);
    return Status::OK();
  }

  Status ParseLiteral(TermId* out) {
    char quote = Peek();
    bool long_form = PeekAt(1) == quote && PeekAt(2) == quote;
    pos_ += long_form ? 3 : 1;
    std::string lex;
    while (true) {
      if (AtEnd()) return Err("unterminated literal");
      char c = text_[pos_];
      if (c == quote) {
        if (!long_form) {
          ++pos_;
          break;
        }
        // Long form: `"""` terminates, but quotes directly before the
        // terminator belong to the content (`""""` = one quote + close).
        if (PeekAt(1) == quote && PeekAt(2) == quote && PeekAt(3) != quote) {
          pos_ += 3;
          break;
        }
        lex.push_back(c);
        ++pos_;
        continue;
      }
      if (c == '\\') {
        char e = PeekAt(1);
        pos_ += 2;
        switch (e) {
          case 't':
            lex.push_back('\t');
            break;
          case 'n':
            lex.push_back('\n');
            break;
          case 'r':
            lex.push_back('\r');
            break;
          case '"':
            lex.push_back('"');
            break;
          case '\'':
            lex.push_back('\'');
            break;
          case '\\':
            lex.push_back('\\');
            break;
          case 'u':
          case 'U': {
            size_t n = (e == 'u') ? 4 : 8;
            uint32_t cp = 0;
            for (size_t k = 0; k < n; ++k) {
              char h = Peek();
              uint32_t v;
              if (h >= '0' && h <= '9') {
                v = static_cast<uint32_t>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                v = static_cast<uint32_t>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                v = static_cast<uint32_t>(h - 'A' + 10);
              } else {
                return Err("bad \\u escape");
              }
              cp = (cp << 4) | v;
              ++pos_;
            }
            // UTF-8 encode.
            if (cp <= 0x7f) {
              lex.push_back(static_cast<char>(cp));
            } else if (cp <= 0x7ff) {
              lex.push_back(static_cast<char>(0xc0 | (cp >> 6)));
              lex.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
            } else if (cp <= 0xffff) {
              lex.push_back(static_cast<char>(0xe0 | (cp >> 12)));
              lex.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
              lex.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
            } else {
              lex.push_back(static_cast<char>(0xf0 | (cp >> 18)));
              lex.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
              lex.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
              lex.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
            }
            break;
          }
          default:
            return Err(std::string("unknown escape \\") + e);
        }
        continue;
      }
      if (c == '\n') {
        if (!long_form) return Err("newline in short literal");
        ++line_;
      }
      lex.push_back(c);
      ++pos_;
    }
    if (lex.size() > Dictionary::kMaxLexicalBytes) {
      return Err("lexical form longer than 4 GiB");
    }
    // Language tag or datatype.
    TermId datatype = kInvalidTerm;
    std::string lang;
    if (Peek() == '@') {
      ++pos_;
      size_t start = pos_;
      while (!AtEnd() && (std::isalnum(static_cast<unsigned char>(Peek())) ||
                          Peek() == '-')) {
        ++pos_;
      }
      lang = std::string(text_.substr(start, pos_ - start));
      if (lang.size() > Dictionary::kMaxLanguageBytes) {
        return Err("language tag longer than 65535 bytes");
      }
    } else if (Peek() == '^' && PeekAt(1) == '^') {
      pos_ += 2;
      TermId dt_term;
      SPADE_RETURN_NOT_OK(ParseTerm(/*as_subject=*/true, &dt_term));
      datatype = dt_term;
    }
    *out = dict_->Intern(Term::Literal(std::move(lex), datatype, std::move(lang)));
    return Status::OK();
  }

  Status ParseNumber(TermId* out) {
    size_t start = pos_;
    if (Peek() == '+' || Peek() == '-') ++pos_;
    bool has_dot = false, has_exp = false;
    while (!AtEnd()) {
      char c = Peek();
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' && !has_dot &&
                 std::isdigit(static_cast<unsigned char>(PeekAt(1)))) {
        has_dot = true;
        ++pos_;
      } else if ((c == 'e' || c == 'E') && !has_exp) {
        has_exp = true;
        ++pos_;
        if (Peek() == '+' || Peek() == '-') ++pos_;
      } else {
        break;
      }
    }
    std::string lex(text_.substr(start, pos_ - start));
    const char* dt = has_dot || has_exp ? spade::vocab::kXsdDouble
                                        : spade::vocab::kXsdInteger;
    *out = dict_->Intern(Term::Literal(std::move(lex), dict_->InternIri(dt)));
    return Status::OK();
  }

  void Emit(TermId s, TermId p, TermId o) { out_->push_back(Triple{s, p, o}); }

  std::string_view text_;
  Graph* graph_;
  Dictionary* dict_;
  std::vector<Triple>* out_ = nullptr;  ///< valid during ParseSome
  size_t pos_ = 0;
  size_t line_ = 1;
  std::string base_;
  std::map<std::string, std::string> prefixes_;
  size_t next_anon_ = 0;
  Status error_ = Status::OK();  ///< latched first parse error
};

}  // namespace

Status TurtleReader::Parse(std::istream& in, Graph* graph) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseString(buffer.str(), graph);
}

Status TurtleReader::ParseString(std::string_view text, Graph* graph) {
  TurtleParser parser(text, graph);
  std::vector<Triple> triples;
  bool done = false;
  SPADE_RETURN_NOT_OK(
      parser.ParseSome(std::numeric_limits<size_t>::max(), &triples, &done));
  for (const Triple& t : triples) graph->Add(t);
  graph->Freeze();
  return Status::OK();
}

struct TurtleChunkReader::Impl {
  // The parser views `text`, so the member order matters: text first.
  std::string text;
  TurtleParser parser;
  Impl(std::string t, Graph* graph) : text(std::move(t)), parser(text, graph) {}
};

TurtleChunkReader::TurtleChunkReader(std::string text, Graph* graph)
    : impl_(std::make_unique<Impl>(std::move(text), graph)) {}

TurtleChunkReader::~TurtleChunkReader() = default;

Status TurtleChunkReader::NextChunk(size_t max_triples,
                                    std::vector<Triple>* out, bool* done) {
  out->clear();
  return impl_->parser.ParseSome(max_triples, out, done);
}

}  // namespace spade
