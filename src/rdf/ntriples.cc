#include "src/rdf/ntriples.h"

#include <cstdio>
#include <sstream>

#include "src/util/string_util.h"

namespace spade {

namespace {

// Append the UTF-8 encoding of `cp` to `out`.
void AppendUtf8(uint32_t cp, std::string* out) {
  if (cp <= 0x7f) {
    out->push_back(static_cast<char>(cp));
  } else if (cp <= 0x7ff) {
    out->push_back(static_cast<char>(0xc0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
  } else if (cp <= 0xffff) {
    out->push_back(static_cast<char>(0xe0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
  } else {
    out->push_back(static_cast<char>(0xf0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
  }
}

bool HexVal(char c, uint32_t* v) {
  if (c >= '0' && c <= '9') {
    *v = static_cast<uint32_t>(c - '0');
    return true;
  }
  if (c >= 'a' && c <= 'f') {
    *v = static_cast<uint32_t>(c - 'a' + 10);
    return true;
  }
  if (c >= 'A' && c <= 'F') {
    *v = static_cast<uint32_t>(c - 'A' + 10);
    return true;
  }
  return false;
}

// Decode the escaped body of a quoted string starting after the opening
// quote; on success sets *end to the index of the closing quote.
Status DecodeQuoted(std::string_view line, size_t start, std::string* out,
                    size_t* end) {
  out->clear();
  size_t i = start;
  while (i < line.size()) {
    char c = line[i];
    if (c == '"') {
      *end = i;
      return Status::OK();
    }
    if (c != '\\') {
      out->push_back(c);
      ++i;
      continue;
    }
    if (i + 1 >= line.size()) return Status::ParseError("dangling escape");
    char e = line[i + 1];
    i += 2;
    switch (e) {
      case 't':
        out->push_back('\t');
        break;
      case 'n':
        out->push_back('\n');
        break;
      case 'r':
        out->push_back('\r');
        break;
      case 'b':
        out->push_back('\b');
        break;
      case 'f':
        out->push_back('\f');
        break;
      case '"':
        out->push_back('"');
        break;
      case '\\':
        out->push_back('\\');
        break;
      case 'u':
      case 'U': {
        size_t n = (e == 'u') ? 4 : 8;
        if (i + n > line.size()) return Status::ParseError("truncated \\u escape");
        uint32_t cp = 0;
        for (size_t k = 0; k < n; ++k) {
          uint32_t v;
          if (!HexVal(line[i + k], &v)) return Status::ParseError("bad hex digit");
          cp = (cp << 4) | v;
        }
        i += n;
        AppendUtf8(cp, out);
        break;
      }
      default:
        return Status::ParseError(std::string("unknown escape \\") + e);
    }
  }
  return Status::ParseError("unterminated string literal");
}

void SkipWs(std::string_view line, size_t* i) {
  while (*i < line.size() && (line[*i] == ' ' || line[*i] == '\t')) ++(*i);
}

// Parse one term starting at *i; advances *i past the term.
Status ParseTerm(std::string_view line, size_t* i, bool allow_literal, Term* out,
                 Dictionary* dict) {
  SkipWs(line, i);
  if (*i >= line.size()) return Status::ParseError("unexpected end of line");
  char c = line[*i];
  if (c == '<') {
    size_t close = line.find('>', *i + 1);
    if (close == std::string_view::npos) return Status::ParseError("unclosed IRI");
    *out = Term::Iri(std::string(line.substr(*i + 1, close - *i - 1)));
    *i = close + 1;
    return Status::OK();
  }
  if (c == '_') {
    if (*i + 1 >= line.size() || line[*i + 1] != ':') {
      return Status::ParseError("bad blank node");
    }
    size_t j = *i + 2;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t') ++j;
    *out = Term::Blank(std::string(line.substr(*i + 2, j - *i - 2)));
    *i = j;
    return Status::OK();
  }
  if (c == '"') {
    if (!allow_literal) return Status::ParseError("literal not allowed here");
    std::string lex;
    size_t close = 0;
    SPADE_RETURN_NOT_OK(DecodeQuoted(line, *i + 1, &lex, &close));
    if (lex.size() > Dictionary::kMaxLexicalBytes) {
      return Status::ParseError("lexical form longer than 4 GiB");
    }
    size_t j = close + 1;
    TermId datatype = kInvalidTerm;
    std::string lang;
    if (j < line.size() && line[j] == '@') {
      size_t k = j + 1;
      while (k < line.size() && line[k] != ' ' && line[k] != '\t') ++k;
      lang = std::string(line.substr(j + 1, k - j - 1));
      if (lang.size() > Dictionary::kMaxLanguageBytes) {
        return Status::ParseError("language tag longer than 65535 bytes");
      }
      j = k;
    } else if (j + 1 < line.size() && line[j] == '^' && line[j + 1] == '^') {
      if (j + 2 >= line.size() || line[j + 2] != '<') {
        return Status::ParseError("bad datatype IRI");
      }
      size_t close_dt = line.find('>', j + 3);
      if (close_dt == std::string_view::npos) {
        return Status::ParseError("unclosed datatype IRI");
      }
      datatype = dict->InternIri(std::string(line.substr(j + 3, close_dt - j - 3)));
      j = close_dt + 1;
    }
    *out = Term::Literal(std::move(lex), datatype, std::move(lang));
    *i = j;
    return Status::OK();
  }
  return Status::ParseError(std::string("unexpected character '") + c + "'");
}

}  // namespace

Status NTriplesReader::ParseLine(std::string_view line, Term* s, Term* p, Term* o,
                                 Dictionary* dict) {
  std::string_view body = Trim(line);
  if (body.empty() || body[0] == '#') return Status::NotFound("no triple");
  size_t i = 0;
  SPADE_RETURN_NOT_OK(ParseTerm(body, &i, /*allow_literal=*/false, s, dict));
  SPADE_RETURN_NOT_OK(ParseTerm(body, &i, /*allow_literal=*/false, p, dict));
  if (p->kind != TermKind::kIri) return Status::ParseError("predicate must be IRI");
  SPADE_RETURN_NOT_OK(ParseTerm(body, &i, /*allow_literal=*/true, o, dict));
  SkipWs(body, &i);
  if (i >= body.size() || body[i] != '.') {
    return Status::ParseError("missing terminating '.'");
  }
  return Status::OK();
}

Status NTriplesChunkReader::NextChunk(size_t max_triples,
                                      std::vector<Triple>* out, bool* done) {
  out->clear();
  *done = done_;
  if (!error_.ok()) return error_;
  if (done_) return Status::OK();
  while (out->size() < max_triples && std::getline(*in_, line_)) {
    ++lineno_;
    Term s, p, o;
    Status st = NTriplesReader::ParseLine(line_, &s, &p, &o, &graph_->dict());
    if (st.code() == Status::Code::kNotFound) continue;  // blank/comment
    if (!st.ok()) {
      done_ = true;
      *done = true;
      error_ = Status::ParseError("line " + std::to_string(lineno_) + ": " +
                                  st.message());
      return error_;
    }
    out->push_back(Triple{graph_->dict().Intern(s), graph_->dict().Intern(p),
                          graph_->dict().Intern(o)});
  }
  if (out->size() < max_triples) {
    done_ = true;
    *done = true;
  }
  return Status::OK();
}

Status NTriplesReader::Parse(std::istream& in, Graph* graph) {
  NTriplesChunkReader reader(in, graph);
  std::vector<Triple> chunk;
  bool done = false;
  while (!done) {
    SPADE_RETURN_NOT_OK(reader.NextChunk(1 << 16, &chunk, &done));
    for (const Triple& t : chunk) graph->Add(t);
  }
  graph->Freeze();
  return Status::OK();
}

Status NTriplesReader::ParseString(std::string_view text, Graph* graph) {
  std::istringstream in{std::string(text)};
  return Parse(in, graph);
}

std::string NTriplesWriter::FormatTerm(const Dictionary& dict, TermId id) {
  const std::string lexical(dict.LexicalOf(id));
  switch (dict.KindOf(id)) {
    case TermKind::kIri:
      return "<" + lexical + ">";
    case TermKind::kBlank:
      return "_:" + lexical;
    case TermKind::kLiteral: {
      std::string out = "\"";
      for (char c : lexical) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            out.push_back(c);
        }
      }
      out += "\"";
      if (!dict.LanguageOf(id).empty()) {
        out.append("@").append(dict.LanguageOf(id));
      } else if (dict.DatatypeOf(id) != kInvalidTerm) {
        out.append("^^<").append(dict.LexicalOf(dict.DatatypeOf(id)));
        out += ">";
      }
      return out;
    }
  }
  return "";
}

void NTriplesWriter::Write(const Graph& graph, std::ostream& out) {
  for (const Triple& t : graph.triples()) {
    out << FormatTerm(graph.dict(), t.s) << ' ' << FormatTerm(graph.dict(), t.p)
        << ' ' << FormatTerm(graph.dict(), t.o) << " .\n";
  }
}

}  // namespace spade
