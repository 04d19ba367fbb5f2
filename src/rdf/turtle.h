#ifndef SPADE_RDF_TURTLE_H_
#define SPADE_RDF_TURTLE_H_

#include <istream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/rdf/graph.h"
#include "src/util/status.h"

namespace spade {

/// \brief Turtle (Terse RDF Triple Language) reader.
///
/// The paper's datasets circulate both as N-Triples dumps and as Turtle
/// (e.g. the Nobel endpoint); this parser covers the Turtle constructs those
/// files use:
///   - @prefix / @base directives (and the SPARQL-style PREFIX/BASE),
///   - prefixed names (ex:name) and relative IRIs resolved against the base,
///   - predicate lists (`;`) and object lists (`,`),
///   - `a` as rdf:type,
///   - literals with escapes, language tags, datatypes, and the long-string
///     `"""..."""` form; bare integers, decimals, and booleans,
///   - blank node labels (_:b) and anonymous blank nodes `[]`, including
///     property lists `[ p o ; q r ]`,
///   - RDF collections `( a b c )`, expanded to rdf:first/rdf:rest chains,
///   - comments.
///
/// Not supported (absent from the target data): @forSome/@forAll (N3),
/// reification syntax, RDF-star.
class TurtleReader {
 public:
  /// Parse a whole document into `graph`. On error, names the line.
  static Status Parse(std::istream& in, Graph* graph);
  static Status ParseString(std::string_view text, Graph* graph);
};

/// \brief Pull-based Turtle reader: the chunk-source counterpart of
/// TurtleReader (whose one-shot parse runs on the same statement parser, so
/// the two paths cannot drift).
///
/// Turtle is not line-oriented — statements span lines, and @prefix/@base
/// directives scope over everything after them — so the chunk unit is the
/// *statement*: NextChunk() parses whole statements until at least
/// `max_triples` triples have been produced. A chunk boundary therefore
/// never splits a directive or a statement; a single statement that expands
/// to more triples than the budget (object lists, collections, nested blank
/// nodes) overflows its chunk rather than being torn. Prefixes declared in
/// one chunk stay in force for all later chunks.
///
/// The reader owns the document text (Turtle needs lookahead; the paper's
/// Turtle dumps are the small ones — the DBpedia-scale inputs circulate as
/// line-oriented N-Triples, which stream without buffering). Terms are
/// interned into `graph->dict()` in document order, matching the one-shot
/// parse; triples are returned to the caller, not added to the graph.
/// Errors carry absolute line numbers and latch: after a ParseError the
/// stream stays failed.
class TurtleChunkReader {
 public:
  /// `graph` is borrowed and must outlive the reader; `text` is owned.
  TurtleChunkReader(std::string text, Graph* graph);
  ~TurtleChunkReader();

  /// Parse whole statements into `out` (cleared first) until it holds at
  /// least `max_triples` triples or the document ends; sets *done at the
  /// end of the document (the final batch may arrive together with done).
  Status NextChunk(size_t max_triples, std::vector<Triple>* out, bool* done);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// RDF collection vocabulary (used by the expansion of `( ... )`).
namespace vocab {
inline constexpr const char* kRdfFirst =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#first";
inline constexpr const char* kRdfRest =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#rest";
inline constexpr const char* kRdfNil =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#nil";
inline constexpr const char* kXsdBoolean =
    "http://www.w3.org/2001/XMLSchema#boolean";
}  // namespace vocab

}  // namespace spade

#endif  // SPADE_RDF_TURTLE_H_
