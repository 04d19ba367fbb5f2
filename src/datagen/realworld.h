#ifndef SPADE_DATAGEN_REALWORLD_H_
#define SPADE_DATAGEN_REALWORLD_H_

#include <memory>
#include <vector>

#include "src/rdf/graph.h"

namespace spade {

/// The six real-world graphs of Table 2. The original dumps are not
/// redistributable / reachable offline, so each is simulated by a
/// deterministic generator reproducing the structural characteristics that
/// drive every experiment (see DESIGN.md, substitution table):
///   - Airline: originally relational; one fact type, flat single-valued
///     numeric tuples, no links => no derivations apply (Experiment 1's
///     negative control);
///   - CEOs: heterogeneous 2-hop WikiData neighbourhood; many types,
///     multi-valued nationality / occupation / company, political-connection
///     and company links (path derivations), money and age measures;
///   - DBLP: one publication type, year as the only direct dimension, long
///     titles (keyword derivations), multi-valued authors;
///   - Foodista: recipes/foods/techniques, multi-valued ingredients, text
///     descriptions in several languages (language derivation);
///   - NASA: launches / spacecraft / launch sites / agencies, spacecraft
///     mass & discipline, spacecraft->agency paths (Figure 6b's insight);
///   - Nobel: laureates / prizes / universities, multi-valued affiliations,
///     category x year structure, motivation text.
enum class RealDataset : uint8_t {
  kAirline = 0,
  kCeos,
  kDblp,
  kFoodista,
  kNasa,
  kNobel,
};

const char* RealDatasetName(RealDataset dataset);
std::vector<RealDataset> AllRealDatasets();

/// Generate a dataset. `scale` multiplies entity counts (1.0 reproduces the
/// Table 2 profile for the small graphs; DBLP/Airline are generated at a
/// documented fraction of their original size — see bench/README.md,
/// "Datasets and scales").
std::unique_ptr<Graph> GenerateRealDataset(RealDataset dataset, uint64_t seed,
                                           double scale = 1.0);

std::unique_ptr<Graph> GenerateAirline(uint64_t seed, double scale = 1.0);
std::unique_ptr<Graph> GenerateCeos(uint64_t seed, double scale = 1.0);
std::unique_ptr<Graph> GenerateDblp(uint64_t seed, double scale = 1.0);
std::unique_ptr<Graph> GenerateFoodista(uint64_t seed, double scale = 1.0);
std::unique_ptr<Graph> GenerateNasa(uint64_t seed, double scale = 1.0);
std::unique_ptr<Graph> GenerateNobel(uint64_t seed, double scale = 1.0);

}  // namespace spade

#endif  // SPADE_DATAGEN_REALWORLD_H_
