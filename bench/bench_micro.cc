// Micro-benchmarks (google-benchmark) for the performance-critical kernels:
// Roaring bitmap operations, MVDCube lattice evaluation, the MMST builder,
// the reference evaluator (as the non-shared baseline), and the early-stop
// estimator. Run with --benchmark_filter=... to focus.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>

#include "src/bitmap/roaring.h"
#include "src/core/earlystop.h"
#include "src/core/mvdcube.h"
#include "src/core/reference.h"
#include "src/datagen/synthetic.h"
#include "src/util/rng.h"

namespace spade {
namespace {

void BM_RoaringAddSparse(benchmark::State& state) {
  Rng rng(1);
  std::vector<uint32_t> values;
  for (int i = 0; i < 10000; ++i) {
    values.push_back(static_cast<uint32_t>(rng.Uniform(1u << 28)));
  }
  for (auto _ : state) {
    RoaringBitmap bm;
    for (uint32_t v : values) bm.Add(v);
    benchmark::DoNotOptimize(bm.Cardinality());
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_RoaringAddSparse);

void BM_RoaringAddDense(benchmark::State& state) {
  for (auto _ : state) {
    RoaringBitmap bm;
    for (uint32_t v = 0; v < 20000; ++v) bm.Add(v);
    benchmark::DoNotOptimize(bm.Cardinality());
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_RoaringAddDense);

void BM_RoaringUnion(benchmark::State& state) {
  Rng rng(2);
  RoaringBitmap a, b;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    a.Add(static_cast<uint32_t>(rng.Uniform(1u << 20)));
    b.Add(static_cast<uint32_t>(rng.Uniform(1u << 20)));
  }
  for (auto _ : state) {
    RoaringBitmap c = a;
    c.UnionWith(b);
    benchmark::DoNotOptimize(c.Cardinality());
  }
}
BENCHMARK(BM_RoaringUnion)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_RoaringIterate(benchmark::State& state) {
  Rng rng(3);
  RoaringBitmap a;
  for (int i = 0; i < 50000; ++i) {
    a.Add(static_cast<uint32_t>(rng.Uniform(1u << 22)));
  }
  for (auto _ : state) {
    uint64_t sum = 0;
    a.ForEach([&](uint32_t v) { sum += v; });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_RoaringIterate);

/// Shared fixture data for the cube kernels.
struct CubeData {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<AttributeStore> db;
  std::unique_ptr<CfsIndex> cfs;
  LatticeSpec spec;
};

CubeData MakeCubeData(size_t facts, size_t dims, size_t measures) {
  CubeData out;
  SyntheticOptions sopts;
  sopts.num_facts = facts;
  sopts.dim_cardinality.assign(dims, 20);
  sopts.num_measures = measures;
  out.graph = GenerateSynthetic(sopts);
  out.db = std::make_unique<AttributeStore>(out.graph.get());
  out.db->BuildDirectAttributes();
  TermId type = out.graph->dict().InternIri(synth::kFactType);
  out.cfs = std::make_unique<CfsIndex>(out.graph->NodesOfType(type));
  for (size_t d = 0; d < dims; ++d) {
    out.spec.dims.push_back(*out.db->FindAttribute("dim" + std::to_string(d)));
  }
  std::sort(out.spec.dims.begin(), out.spec.dims.end());
  out.spec.measures.push_back(MeasureSpec{kInvalidAttr, sparql::AggFunc::kCount});
  for (size_t m = 0; m < measures; ++m) {
    AttrId a = *out.db->FindAttribute("measure" + std::to_string(m));
    out.spec.measures.push_back(MeasureSpec{a, sparql::AggFunc::kSum});
    out.spec.measures.push_back(MeasureSpec{a, sparql::AggFunc::kAvg});
  }
  return out;
}

void BM_MvdCubeLattice(benchmark::State& state) {
  CubeData data = MakeCubeData(static_cast<size_t>(state.range(0)), 3, 3);
  for (auto _ : state) {
    Arm arm(4);
    MeasureCache cache;
    std::vector<PreparedLattice> prepared = PrepareLattices(
        *data.db, *data.cfs, {data.spec}, MvdCubeOptions(), &cache);
    EvaluateLatticeMvd(0, data.spec, prepared[0], cache, MvdCubeOptions(),
                       &arm);
    benchmark::DoNotOptimize(arm.num_aggregates());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MvdCubeLattice)->Arg(10000)->Arg(50000)->Arg(200000);

void BM_ReferenceLattice(benchmark::State& state) {
  CubeData data = MakeCubeData(static_cast<size_t>(state.range(0)), 3, 3);
  for (auto _ : state) {
    auto results = EvaluateReference(*data.db, 0, *data.cfs, data.spec);
    benchmark::DoNotOptimize(results.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReferenceLattice)->Arg(10000)->Arg(50000);

void BM_MmstBuild(benchmark::State& state) {
  std::vector<int> extents(static_cast<size_t>(state.range(0)), 101);
  for (auto _ : state) {
    Mmst mmst = Mmst::Build(extents, 16);
    benchmark::DoNotOptimize(mmst.total_memory_cells());
  }
}
BENCHMARK(BM_MmstBuild)->Arg(2)->Arg(3)->Arg(4);

void BM_EstimateScore(benchmark::State& state) {
  Rng rng(5);
  size_t groups = static_cast<size_t>(state.range(0));
  std::vector<std::vector<double>> values(groups);
  std::vector<double> scales(groups, 1.0);
  for (auto& v : values) {
    for (int i = 0; i < 60; ++i) v.push_back(rng.NextGaussian());
  }
  for (auto _ : state) {
    ScoreEstimate est =
        EstimateScore(InterestingnessKind::kVariance, values, scales, 0.05);
    benchmark::DoNotOptimize(est.upper);
  }
  state.SetItemsProcessed(state.iterations() * groups);
}
BENCHMARK(BM_EstimateScore)->Arg(10)->Arg(100)->Arg(1000);

// --- Scaffold emit path: templated functors vs std::function ---------------
//
// PR 3 templatized CubeScaffold on the load/merge/emit callable types and
// made the flush path allocation-free (flat per-node coordinate scratch
// instead of a vector<vector<int32_t>> per flush, DecodePartitionInto
// instead of a fresh vector per partition). Passing std::function-wrapped
// callables instantiates the same template with indirect dispatch per
// fact/cell — the old cost model — so the pair documents the scalar win.

struct MicroCountCell {
  uint64_t n = 0;
  bool Empty() const { return n == 0; }
};

struct ScaffoldData {
  std::vector<DimensionEncoding> encs;
  Mmst mmst;
  Translation tr;
};

ScaffoldData MakeScaffoldData(size_t num_facts, int chunk) {
  Rng rng(11);
  ScaffoldData out;
  std::vector<size_t> domains = {24, 16, 8};
  out.encs.resize(domains.size());
  for (size_t d = 0; d < domains.size(); ++d) {
    out.encs[d].attr = static_cast<AttrId>(d);
    out.encs[d].fact_codes.resize(num_facts);
    for (size_t f = 0; f < num_facts; ++f) {
      if (rng.Bernoulli(0.15)) continue;
      size_t k = 1 + rng.Uniform(2);
      auto& codes = out.encs[d].fact_codes[f];
      for (size_t i = 0; i < k; ++i) {
        codes.push_back(static_cast<int32_t>(rng.Uniform(domains[d])));
      }
      std::sort(codes.begin(), codes.end());
      codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
    }
    for (size_t v = 0; v < domains[d]; ++v) {
      out.encs[d].values.push_back(static_cast<TermId>(v + 1));
    }
  }
  out.mmst = Mmst::Build({out.encs[0].domain_size(), out.encs[1].domain_size(),
                          out.encs[2].domain_size()},
                         chunk);
  out.tr = TranslateData(out.encs, out.mmst.layout(), TranslationOptions());
  return out;
}

void BM_ScaffoldTemplatedFunctors(benchmark::State& state) {
  ScaffoldData data = MakeScaffoldData(static_cast<size_t>(state.range(0)), 4);
  for (auto _ : state) {
    uint64_t checksum = 0;
    CubeScaffold<MicroCountCell> scaffold(&data.mmst);
    scaffold.Run(
        data.tr, [](MicroCountCell* c, FactId) { c->n += 1; },
        [](MicroCountCell* dst, const MicroCountCell& src) { dst->n += src.n; },
        [&](uint32_t, Span<int32_t>, const MicroCountCell& cell) {
          checksum += cell.n;
        });
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScaffoldTemplatedFunctors)->Arg(20000)->Arg(100000);

void BM_ScaffoldStdFunction(benchmark::State& state) {
  ScaffoldData data = MakeScaffoldData(static_cast<size_t>(state.range(0)), 4);
  uint64_t checksum = 0;
  std::function<void(MicroCountCell*, FactId)> load =
      [](MicroCountCell* c, FactId) { c->n += 1; };
  std::function<void(MicroCountCell*, const MicroCountCell&)> merge =
      [](MicroCountCell* dst, const MicroCountCell& src) { dst->n += src.n; };
  std::function<void(uint32_t, Span<int32_t>, const MicroCountCell&)> emit =
      [&](uint32_t, Span<int32_t>, const MicroCountCell& cell) {
        checksum += cell.n;
      };
  for (auto _ : state) {
    checksum = 0;
    CubeScaffold<MicroCountCell> scaffold(&data.mmst);
    scaffold.Run(data.tr, load, merge, emit);
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScaffoldStdFunction)->Arg(20000)->Arg(100000);

// The collect-into-canonical-lists protocol at one worker, walked in
// canonical order, measures the overhead the parallel path pays over direct
// streaming emit (the price of worker-count-independent results even at 1
// thread).
void BM_ParallelLatticeRunOneWorker(benchmark::State& state) {
  ScaffoldData data = MakeScaffoldData(static_cast<size_t>(state.range(0)), 4);
  for (auto _ : state) {
    uint64_t checksum = 0;
    std::vector<NodeGroups<MicroCountCell>> lists =
        ParallelLatticeRun<MicroCountCell>(
            data.mmst, data.tr, /*wanted=*/nullptr, /*num_workers=*/1,
            /*scheduler=*/nullptr,
            [](MicroCountCell* c, FactId) { c->n += 1; },
            [](MicroCountCell* dst, const MicroCountCell& src) {
              dst->n += src.n;
            },
            [](uint32_t, Span<int32_t>) { return true; });
    for (const NodeGroups<MicroCountCell>& list : lists) {
      for (const auto& group : list) checksum += group.second.n;
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParallelLatticeRunOneWorker)->Arg(20000)->Arg(100000);

void BM_OnlineMoments(benchmark::State& state) {
  Rng rng(6);
  std::vector<double> values;
  for (int i = 0; i < 100000; ++i) values.push_back(rng.NextDouble());
  for (auto _ : state) {
    OnlineMoments om;
    for (double v : values) om.Add(v);
    benchmark::DoNotOptimize(om.kurtosis());
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_OnlineMoments);

}  // namespace
}  // namespace spade

BENCHMARK_MAIN();
