// The end-to-end benchmark of Spade: one workload per process.
//
//   bench_e2e --workload discover|cold_start|serve_read|serve_churn
//             --seed N --seconds S --trace 0|1 --workdir DIR
//             [--trace-json FILE]
//
// Prints progress lines, then as its last line one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {NAME:
//    {"value": V, "unit": U}, ...}}
// with the end-to-end metrics, or with --trace 1 the per-layer ones (names
// and units in e2e/metrics.h and BENCHMARK.json). Exits 1 when an output
// was wrong, 2 on bad arguments. run.py builds this binary and is the
// command BENCHMARK.json records; see README.md.
//
// The workloads re-run this binary for one-shot work (`--child OP ...`,
// e2e/child.cc); that mode is not meant to be called by hand.

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "e2e/metrics.h"
#include "e2e/workloads.h"
#include "src/util/timer.h"

namespace {

int Usage(const std::string& why) {
  std::cerr << "bench_e2e: " << why << "\n"
            << "usage: bench_e2e --workload discover|cold_start|serve_read|"
               "serve_churn --seed N --seconds S --trace 0|1 --workdir DIR "
               "[--trace-json FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spade::e2e;
  RunConfig config;
  ChildConfig child;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--workdir") {
      config.workdir = value;
    } else if (arg == "--trace-json") {
      config.trace_json = value;
    } else if (arg == "--child") {
      child.op = value;
    } else if (arg == "--input") {
      child.input = value;
    } else if (arg == "--snapshot") {
      child.snapshot = value;
    } else if (arg == "--threads") {
      child.threads = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--trace-file") {
      child.trace_file = value;
    } else {
      return Usage("unknown option " + arg);
    }
  }
  if (!child.op.empty()) return RunChildOp(child);
  if (config.workdir.empty() || config.seconds <= 0) {
    return Usage("--workdir and --seconds are required");
  }

  RunResult (*workload)(const RunConfig&, Trace*) = nullptr;
  if (config.workload == "discover") workload = RunDiscover;
  if (config.workload == "cold_start") workload = RunColdStart;
  if (config.workload == "serve_read") workload = RunServeRead;
  if (config.workload == "serve_churn") workload = RunServeChurn;
  if (workload == nullptr) return Usage("unknown workload " + config.workload);

  std::cout << "workload " << config.workload << ", seed " << config.seed
            << (config.trace ? ", traced" : "") << "\n";
  spade::Timer wall;
  Trace trace;
  RunResult result = workload(config, config.trace ? &trace : nullptr);
  if (config.trace) {
    std::string error;
    if (!trace.Check(&error)) result.Mismatch("trace: " + error);
    if (!config.trace_json.empty()) {
      // {"run": this process's spans, "children": each child process's}.
      std::ofstream out(config.trace_json);
      out << "{\"run\": ";
      trace.WriteJson(out);
      out << ",\n\"children\": [";
      for (size_t i = 0; i < result.child_traces.size(); ++i) {
        out << (i == 0 ? "\n" : ",\n") << result.child_traces[i];
      }
      out << "\n]}\n";
    }
  }

  const std::vector<MetricSpec>& specs =
      config.trace ? PerLayerMetrics() : EndToEndMetrics();
  for (const MetricSpec& spec : specs) {
    auto it = result.values.find(spec.name);
    if (result.correct &&
        (it == result.values.end() || !std::isfinite(it->second))) {
      result.Mismatch(std::string("metric ") + spec.name + " not measured");
    }
  }
  for (size_t i = 0; i < result.errors.size() && i < 5; ++i) {
    std::cerr << "bench_e2e: WRONG: " << result.errors[i] << "\n";
  }
  std::cout << "run wall " << wall.ElapsedSeconds() << " s\n";

  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    auto it = result.values.find(spec.name);
    if (it == result.values.end() || !std::isfinite(it->second)) continue;
    std::cout << (first ? "" : ", ") << "\"" << spec.name
              << "\": {\"value\": " << FullDigits(it->second)
              << ", \"unit\": \"" << spec.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return result.correct ? 0 : 1;
}
