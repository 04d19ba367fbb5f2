// Regenerates Table 4 (Experiment 4): early-stop effectiveness per dataset —
// evaluation time without/with ES, the time gain, the fraction of aggregates
// pruned, and the top-k accuracy, for k in {3, 5, 10}; sample size 60, two
// batches (the paper's configuration).
//
// Paper shape (R6/R7): gains of 10-43% with aggressive pruning and
// mostly-100% accuracy, with occasional misses on graphs whose score
// distribution is flat near the threshold (Nobel in the paper).
//
// Substrate note (see bench/README.md, "Datasets and scales"): the paper
// evaluates aggregates via PostgreSQL, so skipping an aggregate saves
// milliseconds; our in-memory MVDCube evaluates so fast that sampling
// overhead only amortizes once groups are much larger than the sample (the
// planner applies exactly that rule). Datasets are therefore scaled up (x4)
// relative to the other benches; graphs whose groups stay smaller than the
// sample (CEOs-like shapes) legitimately show negative gains here, as
// Foodista does in the paper's own Table 4.

#include <set>

#include "bench/bench_common.h"

namespace spade {
namespace bench {
namespace {

constexpr double kScaleBoost = 4.0;

struct EsRun {
  double eval_ms = 0;
  size_t total = 0, pruned = 0;
  std::vector<AggregateKey> topk;
};

EsRun Run(RealDataset ds, bool earlystop, size_t k) {
  SpadeOptions options = BenchOptions();
  options.enable_earlystop = earlystop;
  options.earlystop.sample_size = 60;
  options.earlystop.num_batches = 2;
  options.earlystop.top_k = k;
  options.top_k = k;
  // Airline gets an extra boost: it is the paper's strongest ES case (6M
  // facts there), and its group sizes grow linearly with scale while the
  // sampling cost stays fixed.
  double scale = DatasetScale(ds) * kScaleBoost *
                 (ds == RealDataset::kAirline ? 3.0 : 1.0);
  auto graph = GenerateRealDataset(ds, 42, scale);
  Spade spade(graph.get(), options);
  if (!spade.RunOffline().ok()) std::exit(1);
  auto insights = spade.RunOnline();
  if (!insights.ok()) std::exit(1);
  EsRun out;
  out.eval_ms = spade.report().timings.evaluation_ms +
                spade.report().timings.earlystop_ms;
  out.total = spade.report().num_evaluated_aggregates +
              spade.report().num_pruned_aggregates;
  out.pruned = spade.report().num_pruned_aggregates;
  for (const auto& insight : *insights) out.topk.push_back(insight.ranked.key);
  return out;
}

void Main() {
  std::cout << "== Table 4: early-stop effectiveness (sample 60, 2 batches) "
               "==\n\n";
  TablePrinter table({"Dataset", "k", "MVD ms", "MVD+ES ms", "gain%",
                      "pruned%", "acc%"});
  for (RealDataset ds : AllRealDatasets()) {
    // The exhaustive baseline does not depend on k (its ranking is a prefix
    // of the k=10 ranking); run it once.
    EsRun base = Run(ds, false, 10);
    for (size_t k : {3u, 5u, 10u}) {
      EsRun es = Run(ds, true, k);
      double gain = base.eval_ms > 0 ? 1.0 - es.eval_ms / base.eval_ms : 0;
      double pruned_frac =
          es.total > 0 ? static_cast<double>(es.pruned) / es.total : 0;
      size_t take = std::min<size_t>(k, base.topk.size());
      std::set<AggregateKey> truth(base.topk.begin(),
                                   base.topk.begin() + static_cast<long>(take));
      size_t hits = 0;
      for (const auto& key : es.topk) hits += truth.count(key);
      double acc = truth.empty()
                       ? 1.0
                       : static_cast<double>(hits) / static_cast<double>(truth.size());
      table.AddRow({RealDatasetName(ds), std::to_string(k), Ms(base.eval_ms),
                    Ms(es.eval_ms), Pct(gain), Pct(pruned_frac), Pct(acc)});
    }
  }
  table.Print(std::cout);
  std::cout << "\nR6/R7: pruning is aggressive where groups outsize the\n"
            << "sample (Airline); graphs with tiny groups show the sampling\n"
            << "overhead instead (the paper's Foodista phenomenon).\n";
}

}  // namespace
}  // namespace bench
}  // namespace spade

int main() {
  spade::bench::Main();
  return 0;
}
