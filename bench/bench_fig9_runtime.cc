// Regenerates Figure 9 (Experiment 2, run time): Aggregate Evaluation time of
// MVDCube vs PGCube* vs PGCube_d on the six real graphs, derivations on,
// early-stop off. Paper shape (R2/R3): MVDCube gains 20-80% over PGCube* and
// 30-83% over PGCube_d whenever more than ~15 aggregates are evaluated.

#include "bench/bench_common.h"
#include "src/core/mvdcube.h"
#include "src/core/pgcube.h"

namespace spade {
namespace bench {
namespace {

struct Times {
  double mvd_ms = 0, pg_star_ms = 0, pg_d_ms = 0;
  size_t num_mdas = 0;
};

Times Run(const Prepared& prep) {
  Times t;
  // MVDCube: shared measure cache + ARM dedup per CFS.
  {
    Timer timer;
    Arm arm(4);
    for (uint32_t cfs_id = 0; cfs_id < prep.fact_sets.size(); ++cfs_id) {
      CfsIndex index(prep.fact_sets[cfs_id].members);
      MeasureCache cache;
      const std::vector<LatticeSpec>& lattices = prep.lattices[cfs_id];
      std::vector<PreparedLattice> prepared = PrepareLattices(
          prep.spade->store(), index, lattices, MvdCubeOptions(), &cache);
      for (size_t li = 0; li < lattices.size(); ++li) {
        MvdCubeStats stats =
            EvaluateLatticeMvd(cfs_id, lattices[li], prepared[li], cache,
                               MvdCubeOptions(), &arm);
        t.num_mdas += stats.num_mdas_evaluated;
      }
    }
    t.mvd_ms = timer.ElapsedMillis();
  }
  // PGCube variants: per-lattice queries, no sharing.
  for (PgCubeVariant variant : {PgCubeVariant::kStar, PgCubeVariant::kDistinct}) {
    Timer timer;
    for (uint32_t cfs_id = 0; cfs_id < prep.fact_sets.size(); ++cfs_id) {
      CfsIndex index(prep.fact_sets[cfs_id].members);
      for (const auto& spec : prep.lattices[cfs_id]) {
        PgCubeStats stats;
        EvaluateLatticePgCube(prep.spade->store(), cfs_id, index, spec,
                              variant, nullptr, &stats);
      }
    }
    (variant == PgCubeVariant::kStar ? t.pg_star_ms : t.pg_d_ms) =
        timer.ElapsedMillis();
  }
  return t;
}

void Main() {
  std::cout << "== Figure 9: Aggregate Evaluation run time (ms) ==\n"
            << "(MVDCube vs PGCube* vs PGCube_d; derivations on, ES off)\n\n";
  TablePrinter table({"Dataset", "#MDAs", "MVDCube", "PGCube*", "PGCube_d",
                      "gain vs PG*", "gain vs PG_d"});
  for (RealDataset ds : AllRealDatasets()) {
    Prepared prep = PrepareDataset(ds, BenchOptions());
    Times t = Run(prep);
    auto gain = [&](double pg) {
      return pg <= 0 ? std::string("-") : Pct(1.0 - t.mvd_ms / pg);
    };
    table.AddRow({prep.name, std::to_string(t.num_mdas), Ms(t.mvd_ms),
                  Ms(t.pg_star_ms), Ms(t.pg_d_ms), gain(t.pg_star_ms),
                  gain(t.pg_d_ms)});
  }
  table.Print(std::cout);
  std::cout << "\nR2/R3: positive gains expected wherever #MDAs > 15.\n";
}

}  // namespace
}  // namespace bench
}  // namespace spade

int main() {
  spade::bench::Main();
  return 0;
}
