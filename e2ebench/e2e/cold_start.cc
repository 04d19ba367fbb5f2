// Workload `cold_start`: from an N-Triples file to the first insight.
//
// Almost all of its time is in rdf (parse, intern), ingest / store / stats /
// summary / derive and persist; the online work — one small fact set — is
// small. This is the "build every morning" path the snapshot exists to
// avoid, and the attach half is the path it replaces it with.

#include <algorithm>
#include <iostream>
#include <memory>

#include "e2e/metrics.h"
#include "e2e/workloads.h"
#include "src/util/timer.h"

namespace spade {
namespace e2e {

namespace {

/// Cold starts (build process + first-insight process) per second of the
/// budget: fewer than the reference box runs (about 3), since this
/// workload repeats more steadily than the serve ones, which get the full
/// budget.
constexpr double kColdStartsPerSecond = 2;

}  // namespace

RunResult RunColdStart(const RunConfig& config, Trace* trace) {
  RunResult result;
  LayerSamples layers;
  const std::string input = config.workdir + "/cold.nt";
  const std::string reference_snapshot = config.workdir + "/reference.snapshot";
  const std::string snapshot = config.workdir + "/cold.snapshot";

  std::unique_ptr<Graph> graph;
  auto input_bytes = MakeInput(Shape::kMulti, config.seed, input, &graph);
  graph.reset();
  if (!input_bytes.ok()) {
    result.Mismatch(input_bytes.status().ToString());
    return result;
  }
  std::cout << "input: " << *input_bytes << " bytes of N-Triples\n";

  // Set-up: the same build, as the snapshot the reference first insight is
  // read from.
  std::vector<double> setup_s;
  size_t num_triples = 0;
  for (int i = 0; i < kSetupReps; ++i) {
    BuildProfile profile;
    Timer timer;
    auto built = BuildSnapshot(input, reference_snapshot, trace,
                               Trace::kNoParent, static_cast<uint64_t>(i + 1),
                               &profile);
    setup_s.push_back(timer.ElapsedSeconds());
    if (!built.ok()) {
      result.Mismatch("snapshot build failed: " + built.status().ToString());
      return result;
    }
    num_triples = built->graph->NumTriples();
    if (trace != nullptr) {
      layers.AddBuild(profile, static_cast<double>(*input_bytes));
    }
  }
  std::string reference;
  {
    auto attached = Attach(reference_snapshot, CliOptions());
    if (!attached.ok()) {
      result.Mismatch("reference attach failed");
      return result;
    }
    ThreadPool pool(ThreadPool::HardwareConcurrency() - 1);
    TaskScheduler scheduler(&pool);
    const Spade& spade = *attached->spade;
    auto outcome = spade.Explore(FirstRequest(spade), &scheduler);
    if (!outcome.ok() || outcome->insights.empty()) {
      result.Mismatch("reference first insight failed or empty");
      return result;
    }
    reference = InsightDigest(outcome->insights);
  }

  const std::string trace_file = config.workdir + "/trace.json";
  const ChildConfig build{"build", input, snapshot, "", 0};
  const ChildConfig first{"first", "", snapshot, "", 0};
  const ChildConfig traced_build{"build", input, snapshot, trace_file, 0};
  const ChildConfig traced_first{"first", "", snapshot, trace_file, 0};
  std::vector<double> main_ms;
  std::vector<double> alt_ms;
  std::vector<double> rss_mb;
  std::vector<double> untraced_total;
  std::vector<double> traced_total;
  std::vector<double> probe_ms;
  // One cold start: the build in one process, the first insight in the
  // next. Both must reproduce the reference first insight.
  auto cold_start = [&](bool traced, bool timed) {
    auto built = SpawnChild(traced ? traced_build : build, &result, &layers);
    if (!built.ok()) return;
    auto loaded = SpawnChild(traced ? traced_first : first, &result, &layers);
    if (!loaded.ok()) return;
    if (built->digest != reference || loaded->digest != reference) {
      result.Mismatch(traced ? "traced first insights differ"
                             : "reingested and loaded first insights differ");
    }
    const double total = built->values["ms"] + loaded->values["ms"];
    if (!timed) return;
    if (traced) {
      traced_total.push_back(total);
      return;
    }
    main_ms.push_back(built->values["offline_ms"]);
    alt_ms.push_back(loaded->values["ms"]);
    rss_mb.push_back(
        std::max(built->values["rss_mb"], loaded->values["rss_mb"]));
    untraced_total.push_back(total);
  };

  WarmCpus(0.5);
  cold_start(/*traced=*/false, /*timed=*/false);
  // A traced run does a traced cold start beside each untraced one, so it
  // does half as many to take about as long.
  const size_t reps = Repetitions(config.seconds / (trace ? 2 : 1),
                                  kColdStartsPerSecond);
  for (size_t i = 0; i < reps; ++i) {
    probe_ms.push_back(ProbeMs());
    cold_start(false, true);
    if (trace != nullptr) cold_start(true, true);
  }

  const double snapshot_bytes = static_cast<double>(FileBytes(snapshot));
  if (trace == nullptr) {
    SetEndToEnd(setup_s, main_ms, alt_ms, probe_ms, Median(rss_mb).value,
                snapshot_bytes / static_cast<double>(num_triples), &result);
  } else {
    PrintTiming("untraced cold start", untraced_total);
    PrintTiming("traced cold start", traced_total);
    layers.Add("persist.snapshot_bytes", snapshot_bytes);
    layers.Add("trace.overhead_frac",
               Median(traced_total).value / Median(untraced_total).value - 1);
    layers.Emit(&result);
  }
  return result;
}

}  // namespace e2e
}  // namespace spade
