// Workload `discover`: the one-shot online wall on one large fact set.
//
// Almost all of its time is in core + exec + bitmap + simd over a single
// CFS — the within-fact-set parallelism the 4-vs-1-thread pair exposes —
// while net, rdf and ingest sit idle during the measured phase.

#include <iostream>
#include <memory>

#include "e2e/metrics.h"
#include "e2e/workloads.h"
#include "src/util/timer.h"

namespace spade {
namespace e2e {

namespace {

/// 4-thread + 1-thread pairs per second of the budget: fewer than the
/// reference box runs (about 1.5), since this workload repeats more
/// steadily than the serve ones, which get the full budget.
constexpr double kPairsPerSecond = 1.0;

}  // namespace

RunResult RunDiscover(const RunConfig& config, Trace* trace) {
  RunResult result;
  LayerSamples layers;
  const std::string input = config.workdir + "/discover.nt";
  const std::string snapshot = config.workdir + "/discover.snapshot";

  Timer gen_timer;
  std::unique_ptr<Graph> graph;
  auto input_bytes = MakeInput(Shape::kFig12, config.seed, input, &graph);
  graph.reset();
  if (!input_bytes.ok()) {
    result.Mismatch(input_bytes.status().ToString());
    return result;
  }
  std::cout << "input: " << *input_bytes << " bytes of N-Triples in "
            << gen_timer.ElapsedMillis() << " ms\n";

  std::vector<double> setup_s;
  size_t num_triples = 0;
  for (int i = 0; i < kSetupReps; ++i) {
    BuildProfile profile;
    Timer timer;
    auto built = BuildSnapshot(input, snapshot, trace, Trace::kNoParent,
                               static_cast<uint64_t>(i + 1), &profile);
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
  const double snapshot_bytes = static_cast<double>(FileBytes(snapshot));
  layers.Add("persist.snapshot_bytes", snapshot_bytes);
  std::cout << "set-up: " << num_triples << " triples, snapshot "
            << snapshot_bytes << " bytes\n";

  WarmCpus(0.5);
  const ChildConfig four{"oneshot", "", snapshot, "", 4};
  const ChildConfig one{"oneshot", "", snapshot, "", 1};
  const ChildConfig traced{"oneshot", "", snapshot,
                           config.workdir + "/trace.json", 4};
  // Untimed warm-up; its insights are the reference every later pass (any
  // thread count, traced or not) must reproduce bit for bit.
  auto reference = SpawnChild(four, &result, &layers);
  if (!reference.ok()) {
    result.Mismatch("warm-up discovery failed");
    return result;
  }

  std::vector<double> main_ms;
  std::vector<double> alt_ms;
  std::vector<double> traced_ms;
  std::vector<double> rss_mb;
  std::vector<double> probe_ms;
  const size_t pairs = Repetitions(config.seconds, kPairsPerSecond);
  for (size_t i = 0; i < pairs; ++i) {
    probe_ms.push_back(ProbeMs());
    for (int leg = 0; leg < 2; ++leg) {
      const ChildConfig& job = leg == 0 ? four : trace == nullptr ? one : traced;
      auto shot = SpawnChild(job, &result, &layers);
      if (!shot.ok()) continue;
      if (shot->digest != reference->digest) {
        result.Mismatch(leg == 0 ? "4-thread insights differ"
                        : trace == nullptr ? "serial insights differ"
                                           : "traced replica insights differ");
      }
      const double ms = shot->values["ms"];
      if (leg == 0) {
        main_ms.push_back(ms);
        rss_mb.push_back(shot->values["rss_mb"]);
      } else {
        (trace == nullptr ? alt_ms : traced_ms).push_back(ms);
      }
    }
  }

  if (trace == nullptr) {
    SetEndToEnd(setup_s, main_ms, alt_ms, probe_ms, Median(rss_mb).value,
                snapshot_bytes / static_cast<double>(num_triples), &result);
  } else {
    PrintTiming("untraced", main_ms);
    PrintTiming("traced", traced_ms);
    layers.Add("trace.overhead_frac",
               Median(traced_ms).value / Median(main_ms).value - 1);
    layers.Emit(&result);
  }
  return result;
}

}  // namespace e2e
}  // namespace spade
