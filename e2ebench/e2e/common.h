#ifndef SPADE_E2EBENCH_E2E_COMMON_H_
#define SPADE_E2EBENCH_E2E_COMMON_H_

/// \file common.h
/// \brief What every workload of the end-to-end benchmark shares: the run
/// configuration and result, the generated inputs, the operator's build
/// step, snapshot attach, memory accounting, the insight oracle and the
/// child processes that time one-shot work from a fresh start.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "e2e/trace.h"
#include "src/core/spade.h"
#include "src/rdf/graph.h"
#include "src/util/status.h"

namespace spade {
namespace e2e {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;  ///< measured-phase budget
  bool trace = false;
  std::string workdir;     ///< scratch files (inputs, snapshots, batches)
  std::string trace_json;  ///< where a traced run writes its spans
};

/// What one run measured. `values` holds the end-to-end metrics, or the
/// per-layer ones in a traced run; names and units are fixed in metrics.h.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;
  std::vector<std::string> errors;
  /// Traces of the run's child processes (JSON objects), in run order.
  std::vector<std::string> child_traces;

  void Set(const std::string& name, double value) { values[name] = value; }
  /// An oracle mismatch: the run's outputs are wrong.
  void Mismatch(const std::string& what) {
    correct = false;
    errors.push_back(what);
  }
};

/// "C_multi" dimensions, shared with the churn batch writer.
inline constexpr size_t kMultiFacts = 16000;
inline constexpr size_t kMultiTypes = 16;
inline constexpr size_t kMultiMeasures = 6;

/// The two graph shapes the workloads run on.
enum class Shape {
  /// Figure 12's scalability graph at a fifth of its 200k-fact point:
  /// one fact type, 3 dimensions of 100 values, 15 measures, sparsity 0.1.
  kFig12,
  /// "C_multi": kMultiFacts facts of kMultiTypes types over the same
  /// dimensions, kMultiMeasures measures — one small fact set per type plus
  /// the structural-summary class.
  kMulti,
};

/// The generated graph for `shape` and `seed`, and the same triples as an
/// N-Triples file at `path` (the file a user would hand to spade_cli).
/// Returns the file's size in bytes.
Result<uint64_t> MakeInput(Shape shape, uint64_t seed, const std::string& path,
                           std::unique_ptr<Graph>* graph);

/// spade_cli's defaults: library defaults, every core for the online phase.
SpadeOptions CliOptions();

/// A pipeline and the graph it analyzes.
struct Pipeline {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<Spade> spade;
};

/// Where one build's time went.
struct BuildProfile {
  double offline_ms = 0;  ///< RunOffline: the parse and the store build
  double parse_ms = 0;    ///< traced builds: draining the parser alone
  double build_ms = 0;    ///< traced builds: the offline phase alone
  double select_ms = 0;
  double save_ms = 0;
  SpadeTimings timings;  ///< the offline steps as the pipeline reports them
};

/// The operator's build step, `spade_cli DATA.nt --save-store PATH`: stream
/// the N-Triples file through the offline phase with the CLI defaults,
/// select the fact sets and save the snapshot. Traced (non-null `trace`),
/// the parse is drained first (rdf.parse) and replayed into the offline
/// phase from memory (ingest.build), so the two layers are timed apart; the
/// spans hang under `parent`. Returns the built pipeline.
Result<Pipeline> BuildSnapshot(const std::string& ntriples_path,
                               const std::string& snapshot_path, Trace* trace,
                               Trace::SpanId parent, uint64_t request,
                               BuildProfile* profile);

/// A fresh pipeline attached to a snapshot, with its fact sets prepared.
Result<Pipeline> Attach(const std::string& path, SpadeOptions options);

uint64_t FileBytes(const std::string& path);

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so the
/// peak measured later excludes set-up. False when the kernel refuses.
bool ResetPeakRss();
/// This process's VmHWM in MiB.
double PeakRssMb();

/// Spins every hardware thread for `seconds`. A virtual CPU that sat idle
/// runs the next burst of work markedly slower, which would make the first
/// timed operation after set-up an outlier.
void WarmCpus(double seconds);

/// Times a fixed single-threaded computation that does not involve Spade:
/// the host's current speed.
double ProbeMs();

/// A fingerprint of insights for exact comparison: every score bit, fact
/// set, description and SPARQL text (FNV-1a, hex).
std::string InsightDigest(const std::vector<Insight>& insights);

/// The "first insight" gesture: the top 5 of the smallest fact set.
ExploreRequest FirstRequest(const Spade& spade);

/// "%.17g": a measured value printed with every digit it has.
std::string FullDigits(double value);

/// What a child process (bench_e2e --child ...) reported: `value NAME X`
/// lines into `values`, `layer NAME X` lines into `layers`, and the
/// `digest` line.
struct ChildOutput {
  std::map<std::string, double> values;
  std::vector<std::pair<std::string, double>> layers;
  std::string digest;
};

/// Runs this binary with `args` (after argv[0]) in a fresh process, waits
/// for it, and parses its standard output. Fails unless it exits 0.
Result<ChildOutput> RunChild(const std::vector<std::string>& args);

}  // namespace e2e
}  // namespace spade

#endif  // SPADE_E2EBENCH_E2E_COMMON_H_
