// Regenerates Figure 12 (Experiment 6): scalability of the online pipeline in
// the number of facts (12a), measures (12b) and dimensions (12c), comparing
// PGCube* / MVDCube / MVDCube+ES as the Aggregate Evaluation module. Facts
// are scaled 10x down from the paper's server-scale runs (500k base instead
// of 5M). Paper shape (R9): MVDCube scales linearly in |CFS| and M, grows
// faster in N, is consistently faster than PGCube* (up to 2.9x), and ES is
// the fastest.
//
// Usage: bench_fig12_scalability [--vary=facts|measures|dims] (default: all)

#include <cstring>

#include "bench/bench_common.h"
#include "src/datagen/synthetic.h"

namespace spade {
namespace bench {
namespace {

double RunOnce(size_t facts, size_t measures, size_t dims, EvalAlgorithm algo,
               bool earlystop) {
  SyntheticOptions sopts;
  sopts.num_facts = facts;
  sopts.dim_cardinality.assign(dims, 100);
  sopts.num_measures = measures;
  sopts.sparsity = 0.1;
  auto graph = GenerateSynthetic(sopts);

  SpadeOptions options = BenchOptions();
  options.algorithm = algo;
  options.enable_earlystop = earlystop;
  options.enumeration.max_dims = dims;
  options.enumeration.max_measures_per_lattice = measures;
  options.cfs.min_size = 100;
  Spade spade(graph.get(), options);
  if (!spade.RunOffline().ok()) std::exit(1);
  Timer timer;
  if (!spade.RunOnline().ok()) std::exit(1);
  return timer.ElapsedMillis();
}

void VaryFacts() {
  std::cout << "-- Figure 12a: varying |CFS| in {50k..400k} (N=3, M=15, uniform, s=0.1) --\n";
  TablePrinter table({"|CFS|", "PGCube* ms", "MVDCube ms", "MVD+ES ms",
                      "speedup vs PG*"});
  for (size_t facts : {50000u, 100000u, 200000u, 400000u}) {
    double pg = RunOnce(facts, 15, 3, EvalAlgorithm::kPgCubeStar, false);
    double mvd = RunOnce(facts, 15, 3, EvalAlgorithm::kMvdCube, false);
    double es = RunOnce(facts, 15, 3, EvalAlgorithm::kMvdCube, true);
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx", pg / std::max(1.0, mvd));
    table.AddRow({std::to_string(facts), Ms(pg), Ms(mvd), Ms(es), speedup});
  }
  table.Print(std::cout);
  std::cout << "\n";
}

void VaryMeasures() {
  std::cout << "-- Figure 12b: varying M (|CFS|=150k, N=3) --\n";
  TablePrinter table({"M", "PGCube* ms", "MVDCube ms", "MVD+ES ms",
                      "speedup vs PG*"});
  for (size_t m : {5u, 10u, 15u, 20u, 25u, 30u}) {
    double pg = RunOnce(150000, m, 3, EvalAlgorithm::kPgCubeStar, false);
    double mvd = RunOnce(150000, m, 3, EvalAlgorithm::kMvdCube, false);
    double es = RunOnce(150000, m, 3, EvalAlgorithm::kMvdCube, true);
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx", pg / std::max(1.0, mvd));
    table.AddRow({std::to_string(m), Ms(pg), Ms(mvd), Ms(es), speedup});
  }
  table.Print(std::cout);
  std::cout << "\n";
}

void VaryDims() {
  std::cout << "-- Figure 12c: varying N (|CFS|=150k, M=15) --\n";
  TablePrinter table({"N", "PGCube* ms", "MVDCube ms", "MVD+ES ms",
                      "speedup vs PG*"});
  for (size_t n : {1u, 2u, 3u, 4u}) {
    double pg = RunOnce(150000, 15, n, EvalAlgorithm::kPgCubeStar, false);
    double mvd = RunOnce(150000, 15, n, EvalAlgorithm::kMvdCube, false);
    double es = RunOnce(150000, 15, n, EvalAlgorithm::kMvdCube, true);
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx", pg / std::max(1.0, mvd));
    table.AddRow({std::to_string(n), Ms(pg), Ms(mvd), Ms(es), speedup});
  }
  table.Print(std::cout);
  std::cout << "\nR9: MVDCube < PGCube* everywhere; ES fastest; growth is\n"
            << "linear in |CFS| and M, superlinear in N (lattice count).\n";
}

}  // namespace
}  // namespace bench
}  // namespace spade

int main(int argc, char** argv) {
  std::cout << "== Figure 12: scalability in facts / measures / dimensions "
               "==\n(scaled 10x down from the paper's hardware; see "
               "bench/README.md, \"Datasets and scales\")\n\n";
  const char* vary = argc > 1 ? argv[1] : "";
  bool all = std::strlen(vary) == 0;
  if (all || std::strstr(vary, "facts")) spade::bench::VaryFacts();
  if (all || std::strstr(vary, "measures")) spade::bench::VaryMeasures();
  if (all || std::strstr(vary, "dims")) spade::bench::VaryDims();
  return 0;
}
