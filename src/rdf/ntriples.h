#ifndef SPADE_RDF_NTRIPLES_H_
#define SPADE_RDF_NTRIPLES_H_

#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/rdf/graph.h"
#include "src/util/status.h"

namespace spade {

/// \brief N-Triples reader/writer (the format of the paper's dataset dumps).
///
/// Supports the full line-oriented N-Triples grammar needed in practice:
/// IRIs, blank nodes, plain / typed / language-tagged literals, the string
/// escapes \" \\ \n \r \t \b \f and \uXXXX / \UXXXXXXXX (decoded to UTF-8),
/// comments (#...) and blank lines.
class NTriplesReader {
 public:
  /// Parse an entire stream into `graph`. Stops at the first malformed line
  /// with a ParseError naming the line number.
  static Status Parse(std::istream& in, Graph* graph);

  /// Parse a string (convenience for tests and generators).
  static Status ParseString(std::string_view text, Graph* graph);

  /// Parse one line into s/p/o Terms; a literal's datatype IRI is interned
  /// into `dict`. Returns NotFound for blank/comment lines (no triple),
  /// ParseError on bad syntax.
  static Status ParseLine(std::string_view line, Term* s, Term* p, Term* o,
                          Dictionary* dict);
};

/// \brief Pull-based N-Triples reader: the chunk-source counterpart of
/// NTriplesReader::Parse (which is itself implemented on top of this class,
/// so the two paths cannot drift).
///
/// Each NextChunk() call parses up to `max_triples` triples, interning their
/// terms into `graph->dict()` in document order — the same interning order
/// the one-shot parse produces, so a build from chunks is byte-identical to
/// one from Parse (TermIds are assigned by first appearance). The reader
/// does NOT add triples to the graph; the caller (DrainChunkSource, the
/// delta path, or Parse) owns that.
///
/// Errors stop the stream at the offending line with a ParseError naming the
/// absolute line number, no matter how many chunks preceded it.
class NTriplesChunkReader {
 public:
  /// `in` and `graph` are borrowed and must outlive the reader.
  NTriplesChunkReader(std::istream& in, Graph* graph)
      : in_(&in), graph_(graph) {}

  /// Parse up to `max_triples` more triples into `out` (cleared first).
  /// Sets *done = true once the stream is exhausted — the final batch may
  /// arrive together with done, and a comment-only tail yields an empty
  /// final chunk. A ParseError ends the stream (further calls re-fail).
  Status NextChunk(size_t max_triples, std::vector<Triple>* out, bool* done);

  /// Lines consumed so far (error messages use absolute line numbers).
  size_t line_number() const { return lineno_; }

 private:
  std::istream* in_;
  Graph* graph_;
  std::string line_;
  size_t lineno_ = 0;
  bool done_ = false;
  Status error_ = Status::OK();
};

class NTriplesWriter {
 public:
  /// Serialize the whole graph, one triple per line, escaping literals.
  static void Write(const Graph& graph, std::ostream& out);

  /// Serialize one term in N-Triples syntax.
  static std::string FormatTerm(const Dictionary& dict, TermId id);
};

}  // namespace spade

#endif  // SPADE_RDF_NTRIPLES_H_
