// Persistence bench: cold-start-to-first-insight with a memory-mapped
// snapshot vs a full re-ingest, plus sustained serve-mode throughput.
//
// The corpus is a multi-type synthetic graph (three 100-value dimensions,
// six measures) serialized as N-Triples, ~132 MiB at the default scale.
// Three phases:
//
//   reingest    parse + offline phase + fact-set selection + one explore
//               request — the build-every-morning cold start
//   save        SaveStore() on the built state; snapshot size on disk
//   load        attach the snapshot + the same explore request — the
//               build-once cold start (the paper's "explore many times")
//
// cold_start_speedup = reingest total / load total; the two runs must
// produce identical insights (checked, reported in the JSON). A final
// serve-mode phase replays a request stream through InsightServer and
// reports requests/sec at 1 and N threads.
//
// Usage: bench_persist [--facts=N] [--types=K] [--requests=N] [--json[=FILE]]
//
// --json writes the numbers as a machine-readable JSON array (default file:
// BENCH_persist.json; schema in bench/README.md).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench/bench_common.h"
#include "src/datagen/synthetic.h"
#include "src/ingest/chunk_source.h"
#include "src/persist/serve.h"
#include "src/persist/snapshot.h"
#include "src/rdf/ntriples.h"

namespace spade {
namespace bench {
namespace {

struct ColdStart {
  std::string mode;  ///< "reingest" | "load"
  double attach_ms = 0;   ///< parse+offline (reingest) or snapshot attach
  double prepare_ms = 0;  ///< fact-set selection (0 when reused)
  double explore_ms = 0;  ///< the first explore request
  double total_ms = 0;
  size_t num_triples = 0;
  uint64_t insight_checksum = 0;
};

struct ServeRun {
  size_t threads = 0;
  uint64_t requests = 0;
  double wall_ms = 0;
  double requests_per_sec = 0;
};

/// Content fingerprint of an explore outcome: exact score bits, keys and
/// descriptions. Equal outcomes => equal checksums.
uint64_t InsightChecksum(const ExploreOutcome& outcome) {
  uint64_t sum = outcome.insights.size();
  for (const Insight& insight : outcome.insights) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(insight.ranked.score), "bitcast");
    std::memcpy(&bits, &insight.ranked.score, sizeof(bits));
    sum = sum * 1000003 + bits;
    for (char c : insight.description) sum = sum * 131 + static_cast<uint8_t>(c);
  }
  return sum;
}

/// The "first insight" request both cold starts answer: the interactive
/// gesture — top insights of one fact set, not a full sweep.
ExploreRequest FirstRequest(const Spade& spade) {
  ExploreRequest req;
  req.top_k = 5;
  const CandidateFactSet* pick = nullptr;
  for (const CandidateFactSet& s : spade.fact_sets()) {
    if (pick == nullptr || s.members.size() < pick->members.size()) pick = &s;
  }
  if (pick != nullptr) req.cfs_names.push_back(pick->name);
  return req;
}

SpadeOptions PersistOptions() {
  SpadeOptions options;
  options.cfs.min_size = 20;
  options.enumeration.max_dims = 3;
  options.enumeration.max_lattices_per_cfs = 6;
  options.enumeration.max_measures_per_lattice = 3;
  options.top_k = 10;
  options.num_threads = 1;  // the single-thread cold-start comparison
  return options;
}

ColdStart RunReingest(const std::string& nt, const std::string& save_path,
                      double* save_ms) {
  ColdStart r;
  r.mode = "reingest";
  Timer total;
  Graph graph;
  Spade spade(&graph, PersistOptions());
  {
    Timer t;
    std::istringstream in(nt);
    NTriplesChunkSource source(in, &graph);
    if (!spade.RunOffline(&source).ok()) {
      std::cerr << "bench_persist: offline phase failed\n";
      std::exit(1);
    }
    r.attach_ms = t.ElapsedMillis();
  }
  {
    Timer t;
    if (!spade.PrepareFactSets().ok()) std::exit(1);
    r.prepare_ms = t.ElapsedMillis();
  }
  {
    Timer t;
    auto outcome = spade.Explore(FirstRequest(spade), nullptr);
    if (!outcome.ok()) {
      std::cerr << "bench_persist: explore failed: "
                << outcome.status().ToString() << "\n";
      std::exit(1);
    }
    r.explore_ms = t.ElapsedMillis();
    r.insight_checksum = InsightChecksum(*outcome);
  }
  r.total_ms = total.ElapsedMillis();
  r.num_triples = graph.NumTriples();

  // The save is outside the cold-start clock: it happens once, the evening
  // before.
  Timer t;
  if (!spade.SaveStore(save_path).ok()) {
    std::cerr << "bench_persist: save failed\n";
    std::exit(1);
  }
  *save_ms = t.ElapsedMillis();
  return r;
}

ColdStart RunLoad(const std::string& load_path) {
  ColdStart r;
  r.mode = "load";
  Timer total;
  Graph graph;
  SpadeOptions options = PersistOptions();
  options.load_store = load_path;
  Spade spade(&graph, options);
  {
    Timer t;
    if (!spade.RunOffline().ok()) {
      std::cerr << "bench_persist: snapshot load failed\n";
      std::exit(1);
    }
    r.attach_ms = t.ElapsedMillis();
  }
  {
    Timer t;
    if (!spade.PrepareFactSets().ok()) std::exit(1);
    r.prepare_ms = t.ElapsedMillis();
  }
  {
    Timer t;
    auto outcome = spade.Explore(FirstRequest(spade), nullptr);
    if (!outcome.ok()) std::exit(1);
    r.explore_ms = t.ElapsedMillis();
    r.insight_checksum = InsightChecksum(*outcome);
  }
  r.total_ms = total.ElapsedMillis();
  r.num_triples = graph.NumTriples();
  return r;
}

ServeRun RunServe(const std::string& load_path, size_t threads,
                  size_t requests) {
  Graph graph;
  SpadeOptions options = PersistOptions();
  options.load_store = load_path;
  options.num_threads = threads;
  Spade spade(&graph, options);
  if (!spade.RunOffline().ok() || !spade.PrepareFactSets().ok()) std::exit(1);

  // A mixed request stream: rotate over the fact sets, vary top-k.
  std::ostringstream reqs;
  const auto& sets = spade.fact_sets();
  for (size_t i = 0; i < requests; ++i) {
    reqs << "explore top=" << (2 + i % 4);
    if (!sets.empty() && i % 3 != 0) {
      reqs << " cfs=" << sets[i % sets.size()].name;
    }
    reqs << "\n";
  }
  persist::ServeOptions sopts;
  sopts.num_threads = threads;
  persist::InsightServer server(&spade, sopts);
  std::istringstream in(reqs.str());
  std::ostringstream sink;
  persist::ServeStats stats = server.Serve(in, sink);
  if (stats.num_errors != 0) {
    std::cerr << "bench_persist: serve produced " << stats.num_errors
              << " errors\n";
    std::exit(1);
  }
  ServeRun r;
  r.threads = threads;
  r.requests = stats.num_requests;
  r.wall_ms = stats.wall_ms;
  r.requests_per_sec =
      stats.wall_ms > 0 ? 1000.0 * stats.num_requests / stats.wall_ms : 0;
  return r;
}

void WriteJson(const std::string& path, const ColdStart& full,
               const ColdStart& load, double save_ms, uint64_t snapshot_bytes,
               double speedup, const std::vector<ServeRun>& serves) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_persist: cannot write " << path << "\n";
    std::exit(1);
  }
  auto cold = [&](const ColdStart& r) {
    out << "  {\"kind\": \"cold_start\", \"mode\": \"" << r.mode
        << "\", \"attach_ms\": " << r.attach_ms
        << ", \"prepare_ms\": " << r.prepare_ms
        << ", \"explore_ms\": " << r.explore_ms
        << ", \"total_ms\": " << r.total_ms
        << ", \"num_triples\": " << r.num_triples
        << ", \"insight_checksum\": " << r.insight_checksum << "},\n";
  };
  out << "[\n";
  cold(full);
  cold(load);
  out << "  {\"kind\": \"snapshot\", \"bytes\": " << snapshot_bytes
      << ", \"save_ms\": " << save_ms << "},\n";
  out << "  {\"kind\": \"summary\", \"cold_start_speedup\": " << speedup
      << ", \"identical_insights\": "
      << (full.insight_checksum == load.insight_checksum ? "true" : "false")
      << "},\n";
  for (size_t i = 0; i < serves.size(); ++i) {
    const ServeRun& s = serves[i];
    out << "  {\"kind\": \"serve\", \"threads\": " << s.threads
        << ", \"requests\": " << s.requests << ", \"wall_ms\": " << s.wall_ms
        << ", \"requests_per_sec\": " << s.requests_per_sec << "}"
        << (i + 1 < serves.size() ? "," : "") << "\n";
  }
  out << "]\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace
}  // namespace bench
}  // namespace spade

int main(int argc, char** argv) {
  size_t facts = 120000;
  size_t types = 8;
  size_t requests = 48;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--facts=", 8) == 0) {
      facts = static_cast<size_t>(std::atoll(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--types=", 8) == 0) {
      types = static_cast<size_t>(std::atoll(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--requests=", 11) == 0) {
      requests = static_cast<size_t>(std::atoll(argv[i] + 11));
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = "BENCH_persist.json";
    }
  }

  using spade::bench::ColdStart;
  using spade::bench::Ms;
  using spade::bench::ServeRun;

  // The bench measures the real parse + intern + build path against the
  // mmap attach path.
  spade::SyntheticOptions sopts;
  sopts.num_facts = facts;
  sopts.dim_cardinality.assign(3, 100);
  sopts.num_measures = 6;
  sopts.num_fact_types = types;
  auto graph = spade::GenerateSynthetic(sopts);
  std::ostringstream nt_stream;
  spade::NTriplesWriter::Write(*graph, nt_stream);
  const std::string nt = nt_stream.str();
  graph.reset();

  const std::string snap_path = "bench_persist.spade-snapshot";
  std::cout << "== Snapshot cold start vs full re-ingest (corpus "
            << nt.size() / (1024 * 1024) << " MiB, 1 thread) ==\n\n";

  double save_ms = 0;
  ColdStart full = spade::bench::RunReingest(nt, snap_path, &save_ms);
  uint64_t snapshot_bytes = 0;
  {
    std::ifstream f(snap_path, std::ios::binary | std::ios::ate);
    snapshot_bytes = f ? static_cast<uint64_t>(f.tellg()) : 0;
  }
  ColdStart load = spade::bench::RunLoad(snap_path);
  const double speedup = load.total_ms > 0 ? full.total_ms / load.total_ms : 0;

  spade::TablePrinter table(
      {"mode", "attach ms", "prepare ms", "explore ms", "total ms"});
  for (const ColdStart* r : {&full, &load}) {
    table.AddRow({r->mode, Ms(r->attach_ms), Ms(r->prepare_ms),
                  Ms(r->explore_ms), Ms(r->total_ms)});
  }
  table.Print(std::cout);
  std::cout << "\nsnapshot " << snapshot_bytes / (1024 * 1024) << " MiB, saved in "
            << Ms(save_ms) << " ms\n";
  std::cout << "cold-start speedup " << Ms(speedup) << "x, insights "
            << (full.insight_checksum == load.insight_checksum
                    ? "identical"
                    : "DIFFER — the snapshot path is wrong")
            << "\n\n";

  std::vector<ServeRun> serves;
  serves.push_back(spade::bench::RunServe(snap_path, 1, requests));
  const size_t hw = spade::ThreadPool::HardwareConcurrency();
  if (hw > 1) serves.push_back(spade::bench::RunServe(snap_path, hw, requests));
  spade::TablePrinter serve_table(
      {"threads", "requests", "wall ms", "req/s"});
  for (const ServeRun& s : serves) {
    char rps[32];
    std::snprintf(rps, sizeof(rps), "%.1f", s.requests_per_sec);
    serve_table.AddRow({std::to_string(s.threads), std::to_string(s.requests),
                        Ms(s.wall_ms), rps});
  }
  std::cout << "== Serve mode throughput ==\n\n";
  serve_table.Print(std::cout);

  if (!json_path.empty()) {
    spade::bench::WriteJson(json_path, full, load, save_ms, snapshot_bytes,
                            speedup, serves);
  }
  std::remove(snap_path.c_str());
  const bool ok = full.insight_checksum == load.insight_checksum;
  if (!ok) std::cout << "\ninsight checksums DIFFER\n";
  return ok ? 0 : 1;
}
