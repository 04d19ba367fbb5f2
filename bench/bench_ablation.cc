// Ablation benches for the design choices called out in DESIGN.md §5:
//   A) cell encoding: Roaring bitmap vs std::set vs sorted vector — the
//      union-heavy propagation is where Roaring earns its keep;
//   B) measure sharing across lattices (MeasureCache) on/off — one of
//      MVDCube's two structural advantages over PGCube;
//   C) partition chunk size — the ArrayCube memory/time trade-off
//      (small chunks: less memory, more flush overhead).

#include <set>

#include "bench/bench_common.h"
#include "src/bitmap/roaring.h"
#include "src/core/mvdcube.h"
#include "src/datagen/synthetic.h"

namespace spade {
namespace bench {
namespace {

struct Fixture {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<AttributeStore> db;
  std::unique_ptr<CfsIndex> cfs;
  std::vector<DimensionEncoding> encodings;
  Mmst mmst;
  Translation translation;
};

Fixture MakeFixture(size_t facts, int chunk) {
  Fixture fx;
  SyntheticOptions sopts;
  sopts.num_facts = facts;
  sopts.dim_cardinality = {60, 40, 20};
  sopts.num_measures = 2;
  sopts.multi_valued_dims = {0, 1};
  sopts.multi_value_prob = 0.3;
  fx.graph = GenerateSynthetic(sopts);
  fx.db = std::make_unique<AttributeStore>(fx.graph.get());
  fx.db->BuildDirectAttributes();
  TermId type = fx.graph->dict().InternIri(synth::kFactType);
  fx.cfs = std::make_unique<CfsIndex>(fx.graph->NodesOfType(type));
  LatticeSpec spec;
  for (int d = 0; d < 3; ++d) {
    spec.dims.push_back(*fx.db->FindAttribute("dim" + std::to_string(d)));
  }
  std::sort(spec.dims.begin(), spec.dims.end());
  fx.mmst = BuildMmstForSpec(*fx.db, *fx.cfs, spec, &fx.encodings, chunk);
  fx.translation =
      TranslateData(fx.encodings, fx.mmst.layout(), TranslationOptions());
  return fx;
}

// --- A) cell encodings ---

struct RoaringCell {
  RoaringBitmap facts;
  bool Empty() const { return facts.Empty(); }
};
struct SetCell {
  std::set<uint32_t> facts;
  bool Empty() const { return facts.empty(); }
};
struct VecCell {
  std::vector<uint32_t> facts;  // sorted-unique on demand
  bool Empty() const { return facts.empty(); }
};

/// One ablation run: wall time, cardinality checksum (equal across cell
/// types, or the encodings disagree), and the summed per-emitted-cell memory
/// footprint — the Section 4.3 memory model measured on live cells.
struct CellRun {
  double ms = 0;
  uint64_t checksum = 0;
  uint64_t bytes = 0;
};

template <typename Cell, typename Load, typename Merge, typename Card,
          typename Mem>
CellRun RunCells(const Fixture& fx, Load load, Merge merge, Card card,
                 Mem mem) {
  Timer timer;
  CellRun r;
  CubeScaffold<Cell> scaffold(&fx.mmst);
  scaffold.Run(fx.translation, load, merge,
               [&](uint32_t, Span<int32_t>, const Cell& cell) {
                 r.checksum += card(cell);
                 r.bytes += mem(cell);
               });
  r.ms = timer.ElapsedMillis();
  return r;
}

void CellEncodingAblation() {
  std::cout << "-- Ablation A: cell encoding (200k facts, 3 dims, "
               "multi-valued) --\n";
  size_t num_facts = 200000;
  Fixture fx = MakeFixture(num_facts, 16);
  uint64_t paper_bound = 0;  // Section 4.3: M_RB summed over emitted cells
  CellRun roaring = RunCells<RoaringCell>(
      fx, [](RoaringCell* c, FactId f) { c->facts.AppendOrdered(f); },
      [](RoaringCell* d, const RoaringCell& s) { d->facts.UnionWith(s.facts); },
      [](const RoaringCell& c) { return c.facts.Cardinality(); },
      [&](const RoaringCell& c) {
        paper_bound += RoaringBitmap::MemoryUpperBound(c.facts.Cardinality(),
                                                       num_facts);
        return c.facts.MemoryBytes();
      });
  CellRun set = RunCells<SetCell>(
      fx, [](SetCell* c, FactId f) { c->facts.insert(f); },
      [](SetCell* d, const SetCell& s) {
        d->facts.insert(s.facts.begin(), s.facts.end());
      },
      [](const SetCell& c) { return static_cast<uint64_t>(c.facts.size()); },
      [](const SetCell& c) {
        // Every rb-tree node: 3 pointers + color + the value, allocated.
        return sizeof(std::set<uint32_t>) + c.facts.size() * 48u;
      });
  CellRun vec = RunCells<VecCell>(
      fx, [](VecCell* c, FactId f) { c->facts.push_back(f); },
      [](VecCell* d, const VecCell& s) {
        std::vector<uint32_t> merged;
        merged.reserve(d->facts.size() + s.facts.size());
        std::set_union(d->facts.begin(), d->facts.end(), s.facts.begin(),
                       s.facts.end(), std::back_inserter(merged));
        d->facts = std::move(merged);
      },
      [](const VecCell& c) { return static_cast<uint64_t>(c.facts.size()); },
      [](const VecCell& c) {
        return sizeof(std::vector<uint32_t>) +
               c.facts.capacity() * sizeof(uint32_t);
      });
  if (roaring.checksum != set.checksum || roaring.checksum != vec.checksum) {
    std::cout << "  CHECKSUM MISMATCH: " << roaring.checksum << " "
              << set.checksum << " " << vec.checksum << "\n";
  }
  TablePrinter table({"cell type", "lattice eval ms", "cell bytes (sum)"});
  table.AddRow({"RoaringBitmap", Ms(roaring.ms), std::to_string(roaring.bytes)});
  table.AddRow({"std::set<uint32>", Ms(set.ms), std::to_string(set.bytes)});
  table.AddRow({"sorted vector", Ms(vec.ms), std::to_string(vec.bytes)});
  table.Print(std::cout);
  // The paper's 2Z + 9(u/65535 + 1) + 8 model bounds the container
  // *payload* (2 B/value arrays, bitsets). Run containers and the inline
  // small-set representation only ever undercut the payload term; the
  // measured number additionally counts the object and per-container
  // bookkeeping the model's 8 B header abstracts away, which dominates for
  // tiny cells — so the ratio, not the absolute, is the comparable figure.
  std::cout << "  Section 4.3 M_RB payload bound over the same cells: "
            << paper_bound << " B; measured (incl. object overhead) "
            << roaring.bytes << " B ("
            << Pct(static_cast<double>(roaring.bytes) /
                   static_cast<double>(paper_bound))
            << ")\n\n";
}

// --- B) measure sharing ---

void MeasureSharingAblation() {
  std::cout << "-- Ablation B: measure loading shared vs per-lattice --\n";
  SyntheticOptions sopts;
  sopts.num_facts = 300000;
  sopts.dim_cardinality = {40, 30, 20, 10};
  sopts.num_measures = 10;
  auto graph = GenerateSynthetic(sopts);
  AttributeStore db(graph.get());
  db.BuildDirectAttributes();
  TermId type = graph->dict().InternIri(synth::kFactType);
  CfsIndex cfs(graph->NodesOfType(type));
  // Four 2-dim lattices sharing the same 10 measures.
  std::vector<LatticeSpec> lattices;
  for (int i = 0; i < 4; ++i) {
    LatticeSpec spec;
    spec.dims = {*db.FindAttribute("dim" + std::to_string(i % 4)),
                 *db.FindAttribute("dim" + std::to_string((i + 1) % 4))};
    std::sort(spec.dims.begin(), spec.dims.end());
    for (size_t m = 0; m < sopts.num_measures; ++m) {
      AttrId a = *db.FindAttribute("measure" + std::to_string(m));
      spec.measures.push_back(MeasureSpec{a, sparql::AggFunc::kSum});
      spec.measures.push_back(MeasureSpec{a, sparql::AggFunc::kAvg});
    }
    lattices.push_back(std::move(spec));
  }
  Timer shared_timer;
  {
    Arm arm(4);
    MeasureCache shared;
    for (const auto& spec : lattices) {
      std::vector<PreparedLattice> prepared =
          PrepareLattices(db, cfs, {spec}, MvdCubeOptions(), &shared);
      EvaluateLatticeMvd(0, spec, prepared[0], shared, MvdCubeOptions(), &arm);
    }
  }
  double shared_ms = shared_timer.ElapsedMillis();
  Timer unshared_timer;
  {
    Arm arm(4);
    for (const auto& spec : lattices) {
      MeasureCache fresh;  // PGCube-style re-join per lattice
      std::vector<PreparedLattice> prepared =
          PrepareLattices(db, cfs, {spec}, MvdCubeOptions(), &fresh);
      EvaluateLatticeMvd(0, spec, prepared[0], fresh, MvdCubeOptions(), &arm);
    }
  }
  double unshared_ms = unshared_timer.ElapsedMillis();
  TablePrinter table({"measure loading", "4 lattices ms"});
  table.AddRow({"shared cache", Ms(shared_ms)});
  table.AddRow({"per-lattice", Ms(unshared_ms)});
  table.Print(std::cout);
  std::cout << "\n";
}

// --- C) chunk size ---

void ChunkSizeAblation() {
  std::cout << "-- Ablation C: partition chunk size (MMST memory vs time) "
               "--\n";
  TablePrinter table({"chunk", "partitions", "MMST cells", "eval ms"});
  for (int chunk : {2, 4, 8, 16, 64, 256}) {
    Fixture fx = MakeFixture(200000, chunk);
    CellRun r = RunCells<RoaringCell>(
        fx, [](RoaringCell* c, FactId f) { c->facts.AppendOrdered(f); },
        [](RoaringCell* d, const RoaringCell& s) {
          d->facts.UnionWith(s.facts);
        },
        [](const RoaringCell& c) { return c.facts.Cardinality(); },
        [](const RoaringCell& c) { return c.facts.MemoryBytes(); });
    table.AddRow({std::to_string(chunk),
                  std::to_string(fx.mmst.layout().num_partitions),
                  std::to_string(fx.mmst.total_memory_cells()), Ms(r.ms)});
  }
  table.Print(std::cout);
}

}  // namespace
}  // namespace bench
}  // namespace spade

int main() {
  std::cout << "== Ablations (DESIGN.md §5) ==\n\n";
  spade::bench::CellEncodingAblation();
  spade::bench::MeasureSharingAblation();
  spade::bench::ChunkSizeAblation();
  return 0;
}
