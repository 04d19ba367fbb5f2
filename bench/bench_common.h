#ifndef SPADE_BENCH_BENCH_COMMON_H_
#define SPADE_BENCH_BENCH_COMMON_H_

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/core/cfs.h"
#include "src/core/enumeration.h"
#include "src/core/spade.h"
#include "src/datagen/realworld.h"
#include "src/util/table_printer.h"
#include "src/util/timer.h"

namespace spade {
namespace bench {

/// Generation scale per dataset. CEOs / NASA / Nobel / Foodista are generated
/// at their natural size; the two large graphs (DBLP 33M, Airline 56M
/// triples in the paper) are scaled down to laptop size — documented in
/// bench/README.md ("Datasets and scales"), and each bench prints the
/// measured triple counts.
inline double DatasetScale(RealDataset ds) {
  switch (ds) {
    case RealDataset::kDblp:
      return 0.6;
    case RealDataset::kAirline:
      return 0.6;
    default:
      return 1.0;
  }
}

/// Pipeline options shared by the real-graph benches.
inline SpadeOptions BenchOptions() {
  SpadeOptions options;
  options.cfs.min_size = 25;
  options.cfs.max_sets = 24;
  options.enumeration.max_dims = 3;
  options.enumeration.max_lattices_per_cfs = 8;
  options.enumeration.max_measures_per_lattice = 4;
  options.top_k = 10;
  return options;
}

/// A dataset prepared through the offline phase + steps 1-3 of the online
/// phase, so benches can drive Aggregate Evaluation directly.
struct Prepared {
  std::string name;
  std::unique_ptr<Graph> graph;
  std::unique_ptr<Spade> spade;  ///< offline phase done
  std::vector<CandidateFactSet> fact_sets;
  /// lattices[i] belongs to fact_sets[i] (cfs_id == i).
  std::vector<std::vector<LatticeSpec>> lattices;
};

inline Prepared PrepareDataset(RealDataset ds, const SpadeOptions& options,
                               uint64_t seed = 42) {
  Prepared out;
  out.name = RealDatasetName(ds);
  out.graph = GenerateRealDataset(ds, seed, DatasetScale(ds));
  out.spade = std::make_unique<Spade>(out.graph.get(), options);
  Status st = out.spade->RunOffline();
  if (!st.ok()) {
    std::cerr << "offline phase failed: " << st.ToString() << "\n";
    std::exit(1);
  }
  out.fact_sets = SelectCandidateFactSets(
      *out.graph, &out.spade->summary(), options.cfs);
  for (const auto& cfs : out.fact_sets) {
    CfsIndex index(cfs.members);
    CfsAnalysis analysis =
        AnalyzeAttributes(out.spade->store(), index,
                          out.spade->offline_stats(), options.enumeration);
    out.lattices.push_back(EnumerateLattices(out.spade->store(), index,
                                             analysis,
                                             out.spade->offline_stats(),
                                             options.enumeration));
  }
  return out;
}

inline std::string Pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", 100.0 * fraction);
  return buf;
}

inline std::string Ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", ms);
  return buf;
}

}  // namespace bench
}  // namespace spade

#endif  // SPADE_BENCH_BENCH_COMMON_H_
