#ifndef SPADE_E2EBENCH_E2E_WORKLOADS_H_
#define SPADE_E2EBENCH_E2E_WORKLOADS_H_

#include <algorithm>
#include <cmath>
#include <string>

#include "e2e/common.h"

namespace spade {
namespace e2e {

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 5;

/// How many operations a phase of `seconds` measures at `per_second`. The
/// count, not the time, is fixed, so every commit is measured on the same
/// number of samples and the tail is the same percentile.
inline size_t Repetitions(double seconds, double per_second) {
  return static_cast<size_t>(std::max(1.0, std::round(seconds * per_second)));
}

// Each workload measures its end-to-end metrics, or — with a non-null
// `trace` (a traced run) — its per-layer ones.

/// One-shot discovery on the Figure 12 graph: a fresh process attaches the
/// snapshot and runs RunOnline(), alternating 4 threads (main) and 1 thread
/// (alt).
RunResult RunDiscover(const RunConfig& config, Trace* trace);

/// Cold start on C_multi, each half in a fresh process: the offline build
/// from N-Triples (main), then attach, fact-set selection and the first
/// explore (alt).
RunResult RunColdStart(const RunConfig& config, Trace* trace);

/// Reads over TCP: the explore/stats mix open-loop at the lo rate (main)
/// and closed-loop at the server's admission cap (alt).
RunResult RunServeRead(const RunConfig& config, Trace* trace);

/// The lo-rate read mix (main) beside a churn writer whose apply -> fresh
/// explore round trips are alt.
RunResult RunServeChurn(const RunConfig& config, Trace* trace);

/// A child process's job (bench_e2e --child OP): `oneshot` (attach
/// `snapshot`, RunOnline at `threads`), `build` (`input` N-Triples to
/// `snapshot`) or `first` (attach `snapshot`, first insight). Traced when
/// `trace_file` is set.
struct ChildConfig {
  std::string op;
  std::string input;
  std::string snapshot;
  std::string trace_file;
  size_t threads = 0;
};

/// In the child: runs the job and prints its report; returns the exit
/// status.
int RunChildOp(const ChildConfig& config);

class LayerSamples;

/// In the parent: runs `job` in a child process and counts it in `result`
/// as one attempted operation, failed if the child fails. A traced child's
/// per-layer samples go to `layers` and its trace to result->child_traces.
Result<ChildOutput> SpawnChild(const ChildConfig& job, RunResult* result,
                               LayerSamples* layers);

}  // namespace e2e
}  // namespace spade

#endif  // SPADE_E2EBENCH_E2E_WORKLOADS_H_
