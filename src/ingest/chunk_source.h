#ifndef SPADE_INGEST_CHUNK_SOURCE_H_
#define SPADE_INGEST_CHUNK_SOURCE_H_

#include <istream>
#include <string>
#include <vector>

#include "src/rdf/graph.h"
#include "src/rdf/ntriples.h"
#include "src/rdf/turtle.h"
#include "src/util/status.h"

namespace spade {

/// How a whole source is read (DrainChunkSource pulls with these).
struct IngestOptions {
  /// Triple budget per pulled chunk. Statement-oriented sources (Turtle)
  /// may overflow a chunk rather than split a statement.
  size_t chunk_triples = 65536;
};

/// \brief A pull source of dictionary-encoded triple batches: the input of
/// Spade::RunOffline(TripleChunkSource*) and of Spade::ApplyDelta.
///
/// Contract shared by every implementation:
///   - NextChunk(max, out, done) fills `out` (cleared first) with up to
///     `max` triples whose terms are already interned in the target graph's
///     dictionary, in document order. Statement-oriented formats (Turtle)
///     may overflow `max` rather than split a statement.
///   - *done = true means the source is exhausted; the final batch may
///     arrive together with done, and `out` may legitimately be empty on
///     any call (e.g. a comment-only stretch of input) — an empty chunk is
///     NOT an end-of-stream signal.
///   - An error (ParseError with an absolute line number, for the parsers)
///     ends the stream; subsequent calls return the same error.
///
/// Sources are single-threaded: one caller pulls, on the thread that owns
/// the dictionary while the source interns.
class TripleChunkSource {
 public:
  virtual ~TripleChunkSource() = default;

  virtual Status NextChunk(size_t max_triples, std::vector<Triple>* out,
                           bool* done) = 0;
};

/// Streams an N-Triples document line by line (never buffers the file).
class NTriplesChunkSource : public TripleChunkSource {
 public:
  /// `in` and `graph` are borrowed and must outlive the source.
  NTriplesChunkSource(std::istream& in, Graph* graph) : reader_(in, graph) {}

  Status NextChunk(size_t max_triples, std::vector<Triple>* out,
                   bool* done) override {
    return reader_.NextChunk(max_triples, out, done);
  }

 private:
  NTriplesChunkReader reader_;
};

/// Streams a Turtle document statement by statement (owns the text; see
/// TurtleChunkReader for why Turtle is buffered).
class TurtleChunkSource : public TripleChunkSource {
 public:
  TurtleChunkSource(std::string text, Graph* graph)
      : reader_(std::move(text), graph) {}

  Status NextChunk(size_t max_triples, std::vector<Triple>* out,
                   bool* done) override {
    return reader_.NextChunk(max_triples, out, done);
  }

 private:
  TurtleChunkReader reader_;
};

/// Replays pre-encoded triples in fixed caller-chosen batches — the test
/// and benchmark harness for the chunk protocol (including deliberately
/// empty mid-stream chunks). Triple TermIds must already be interned in the
/// target graph's dictionary.
class VectorChunkSource : public TripleChunkSource {
 public:
  explicit VectorChunkSource(std::vector<std::vector<Triple>> chunks)
      : chunks_(std::move(chunks)) {}

  Status NextChunk(size_t /*max_triples*/, std::vector<Triple>* out,
                   bool* done) override {
    out->clear();
    if (next_ < chunks_.size()) *out = chunks_[next_++];
    *done = next_ >= chunks_.size();
    return Status::OK();
  }

 private:
  std::vector<std::vector<Triple>> chunks_;
  size_t next_ = 0;
};

/// Drain `source` into `graph` (append every triple in chunks of
/// IngestOptions::chunk_triples, then freeze). On an error the graph is left
/// partially filled and unfrozen.
Status DrainChunkSource(TripleChunkSource* source, Graph* graph);

}  // namespace spade

#endif  // SPADE_INGEST_CHUNK_SOURCE_H_
