// Regenerates Table 2: the profile of the six real graphs — #triples, #CFSs,
// #P (direct properties), #DP by derivation kind, and the number of candidate
// aggregates without (#A_woD) and with (#A_wD) derivations.
//
// Paper reference values (Table 2) for shape comparison:
//   Airline: 1 CFS, 0 derivations, #A_woD == #A_wD;
//   native-RDF graphs: many CFSs, kw/lang/count/path derivations, and a
//   large multiplicative jump from #A_woD to #A_wD.

#include "bench/bench_common.h"

namespace spade {
namespace bench {
namespace {

struct Profile {
  size_t triples = 0, cfs = 0, props = 0;
  DerivationReport dp;
  size_t aggs = 0;
};

Profile Run(RealDataset ds, bool derivations) {
  SpadeOptions options = BenchOptions();
  options.enable_derivations = derivations;
  Prepared prep = PrepareDataset(ds, options);
  Profile p;
  p.triples = prep.spade->report().num_triples;
  p.cfs = prep.fact_sets.size();
  p.props = prep.spade->report().num_direct_properties;
  p.dp = prep.spade->report().derivations;
  for (uint32_t cfs_id = 0; cfs_id < prep.lattices.size(); ++cfs_id) {
    p.aggs += CountCandidateAggregates(cfs_id, prep.lattices[cfs_id]);
  }
  return p;
}

void Main() {
  std::cout << "== Table 2: real datasets used for testing ==\n"
            << "(simulated graphs; DBLP/Airline scaled — see "
               "bench/README.md, \"Datasets and scales\")\n\n";
  TablePrinter table({"Dataset", "#triples", "#CFSs", "#P", "#A_woD", "#DP kw",
                      "#DP lang", "#DP count", "#DP path", "#A_wD"});
  for (RealDataset ds : AllRealDatasets()) {
    Profile wo = Run(ds, /*derivations=*/false);
    Profile w = Run(ds, /*derivations=*/true);
    table.AddRow({RealDatasetName(ds), std::to_string(w.triples),
                  std::to_string(w.cfs), std::to_string(wo.props),
                  std::to_string(wo.aggs), std::to_string(w.dp.num_keyword_attrs),
                  std::to_string(w.dp.num_language_attrs),
                  std::to_string(w.dp.num_count_attrs),
                  std::to_string(w.dp.num_path_attrs), std::to_string(w.aggs)});
  }
  table.Print(std::cout);
  std::cout << "\nShape checks vs the paper:\n"
            << "  - Airline derives nothing (flat relational tuples);\n"
            << "  - every native RDF graph derives counts/keywords/paths and\n"
            << "    #A_wD >= #A_woD (R1: derivations enrich the space).\n";
}

}  // namespace
}  // namespace bench
}  // namespace spade

int main() {
  spade::bench::Main();
  return 0;
}
