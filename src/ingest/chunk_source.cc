#include "src/ingest/chunk_source.h"

namespace spade {

Status DrainChunkSource(TripleChunkSource* source, Graph* graph) {
  const size_t chunk_triples = IngestOptions{}.chunk_triples;
  std::vector<Triple> chunk;
  bool done = false;
  while (!done) {
    SPADE_RETURN_NOT_OK(source->NextChunk(chunk_triples, &chunk, &done));
    for (const Triple& t : chunk) graph->Add(t);
  }
  graph->Freeze();
  return Status::OK();
}

}  // namespace spade
