#ifndef SPADE_E2EBENCH_E2E_METRICS_H_
#define SPADE_E2EBENCH_E2E_METRICS_H_

/// \file metrics.h
/// \brief The metric catalogue (names and units, the same lists as
/// BENCHMARK.json) and the collector traced runs fill.
///
/// Every workload reports every metric of its mode. The end-to-end ones are
/// defined per workload through its two kinds of operation, "main" and
/// "alt" (README.md has the table); the per-layer times are timed calls that
/// every traced run makes, so none reads zero because its layer sat idle.

#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "e2e/common.h"
#include "e2e/replica.h"
#include "e2e/stats.h"

namespace spade {
namespace e2e {

struct MetricSpec {
  const char* name;
  const char* unit;
};

inline const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"ok_rate", "fraction"},
      {"peak_rss_mb", "MiB"},
      {"snapshot_bytes_per_triple", "B/triple"},
      {"main_p50_ms", "ms"},
      {"main_tail_ms", "ms"},
      {"alt_p50_ms", "ms"},
  };
  return specs;
}

inline const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"rdf.parse_ms", "ms"},
      {"rdf.parse_mb_per_s", "MB/s"},
      {"ingest.build_ms", "ms"},
      {"store.attribute_tables_ms", "ms"},
      {"stats.offline_stats_ms", "ms"},
      {"summary.summary_ms", "ms"},
      {"derive.derivation_ms", "ms"},
      {"core.cfs_select_ms", "ms"},
      {"persist.save_ms", "ms"},
      {"persist.snapshot_bytes", "B"},
      {"persist.attach_ms", "ms"},
      {"core.cfs_index_ms", "ms"},
      {"core.analyze_ms", "ms"},
      {"core.enumerate_ms", "ms"},
      {"exec.prepare_ms", "ms"},
      {"exec.lattice_ms", "ms"},
      {"exec.lattice_work_ms", "ms"},
      {"exec.lattice_workers", "count"},
      {"exec.lattice_parallel_eff", "fraction"},
      {"exec.shard_merge_ms", "ms"},
      {"exec.lattice_peak_partial_cells", "count"},
      {"bitmap.peak_bytes", "B"},
      {"core.groups_emitted", "count"},
      {"core.mdas_evaluated", "count"},
      {"core.topk_ms", "ms"},
      {"core.present_ms", "ms"},
      {"net.requests_shed", "count"},
      {"net.connections_shed", "count"},
      {"net.io_errors", "count"},
      {"delta.attrs_changed", "count"},
      {"delta.cfs_reused", "count"},
      {"trace.unattributed_ms", "ms"},
      {"trace.overhead_frac", "fraction"},
  };
  return specs;
}

/// Per-layer samples of a traced run; each metric reports the median of
/// its samples.
class LayerSamples {
 public:
  void Add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }

  /// One traced build (BuildSnapshot with a trace) of `ntriples_bytes`.
  void AddBuild(const BuildProfile& p, double ntriples_bytes) {
    Add("rdf.parse_ms", p.parse_ms);
    Add("rdf.parse_mb_per_s", ntriples_bytes / 1e6 / (p.parse_ms / 1e3));
    Add("ingest.build_ms", p.build_ms);
    Add("store.attribute_tables_ms", p.timings.attribute_tables_ms);
    Add("stats.offline_stats_ms", p.timings.offline_stats_ms);
    Add("summary.summary_ms", p.timings.summary_ms);
    Add("derive.derivation_ms", p.timings.derivation_ms);
    Add("core.cfs_select_ms", p.select_ms);
    Add("persist.save_ms", p.save_ms);
  }

  /// One traced online pass (TracedOnline), read back from the trace.
  void AddOnline(const OnlineLayers& l) {
    Add("core.cfs_index_ms", l.cfs_index_ms);
    Add("core.analyze_ms", l.analyze_ms);
    Add("core.enumerate_ms", l.enumerate_ms);
    Add("exec.prepare_ms", l.prepare_ms);
    Add("exec.lattice_ms", l.lattice_ms);
    Add("exec.lattice_work_ms", l.lattice_work_ms);
    Add("exec.lattice_workers", l.lattice_workers);
    const double capacity = l.lattice_wall_ms * l.lattice_workers;
    Add("exec.lattice_parallel_eff",
        capacity > 0 ? l.lattice_work_ms / capacity : 0);
    Add("exec.shard_merge_ms", l.shard_merge_ms);
    Add("exec.lattice_peak_partial_cells", l.peak_partial_cells);
    Add("bitmap.peak_bytes", l.peak_bitmap_bytes);
    Add("core.groups_emitted", l.groups_emitted);
    Add("core.mdas_evaluated", l.mdas_evaluated);
    Add("core.topk_ms", l.topk_ms);
    Add("core.present_ms", l.present_ms);
  }

  /// A traced child's per-layer samples (ChildOutput::layers).
  void AddAll(const std::vector<std::pair<std::string, double>>& samples) {
    for (const auto& [name, value] : samples) Add(name, value);
  }

  const std::map<std::string, std::vector<double>>& samples() const {
    return samples_;
  }

  /// Medians into `out`. Counters a workload never touches (the serve and
  /// delta ones outside the serve workloads) report 0; any other metric
  /// without samples is a benchmark bug and fails the run.
  void Emit(RunResult* out) const {
    for (const MetricSpec& spec : PerLayerMetrics()) {
      auto it = samples_.find(spec.name);
      if (it != samples_.end()) {
        out->Set(spec.name, Median(it->second).value);
      } else if (std::string(spec.unit) == "count") {
        out->Set(spec.name, 0);
      } else {
        out->Mismatch(std::string("per-layer metric ") + spec.name +
                      " was not measured");
      }
    }
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Prints one timing (raw, as measured) with its sample count, quartiles
/// and, from 21 samples on, the tail: the highest percentile that has ten
/// samples beyond it.
inline void PrintTiming(const std::string& label,
                        const std::vector<double>& ms) {
  const Stat p50 = Median(ms);
  double q1 = 0;
  double q3 = 0;
  Quartiles(ms, &q1, &q3);
  std::cout << label << ": n=" << p50.n << " q1 " << q1 << " p50 "
            << p50.value << " q3 " << q3;
  if (p50.n >= 21) {
    std::cout << " p" << 100.0 * static_cast<double>(p50.n - 10) /
                             static_cast<double>(p50.n)
              << " " << Tail(ms).value;
  }
  std::cout << " ms\n";
}

/// ProbeMs() on the reference box (a 4-core Intel Xeon VM).
inline constexpr double kReferenceProbeMs = 9.0;

/// The end-to-end metrics every workload reports: the medians of both
/// operations, the main operation's Tail(), and ok_rate from `r`'s counts.
/// Times are scaled to the reference box: multiplied by kReferenceProbeMs
/// over the median of `probe_ms`, the probes taken through the run.
inline void SetEndToEnd(const std::vector<double>& setup_s,
                        const std::vector<double>& main_ms,
                        const std::vector<double>& alt_ms,
                        const std::vector<double>& probe_ms,
                        double peak_rss_mb, double snapshot_bytes_per_triple,
                        RunResult* r) {
  PrintTiming("main", main_ms);
  PrintTiming("alt", alt_ms);
  PrintTiming("probe", probe_ms);
  const double scale = kReferenceProbeMs / Median(probe_ms).value;
  std::cout << "scale to the reference box: " << scale << "\n";
  r->Set("setup_s", scale * Median(setup_s).value);
  r->Set("ok_rate", r->attempted == 0
                        ? 0
                        : static_cast<double>(r->attempted - r->failed) /
                              static_cast<double>(r->attempted));
  r->Set("peak_rss_mb", peak_rss_mb);
  r->Set("snapshot_bytes_per_triple", snapshot_bytes_per_triple);
  r->Set("main_p50_ms", scale * Median(main_ms).value);
  r->Set("main_tail_ms", scale * Tail(main_ms).value);
  r->Set("alt_p50_ms", scale * Median(alt_ms).value);
}

}  // namespace e2e
}  // namespace spade

#endif  // SPADE_E2EBENCH_E2E_METRICS_H_
