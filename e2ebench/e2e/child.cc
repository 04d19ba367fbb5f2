// One-shot work timed in a fresh process: a `spade_cli` run from start.
//
// The parent workload runs each repetition of discover and cold_start as a
// child process (bench_e2e --child OP ...), so every repetition starts from
// a fresh heap, as a user's command would. Reused in one process, the heap
// a previous repetition left behind changes the next one's time by up to a
// third, and by how much depends on the seed.
//
// A child prints `value NAME X`, `layer NAME X` (traced) and `digest D`
// lines on standard output and exits 0; on failure it prints the error and
// exits 1.

#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "e2e/metrics.h"
#include "e2e/replica.h"
#include "e2e/workloads.h"
#include "src/util/timer.h"

namespace spade {
namespace e2e {

namespace {

constexpr uint64_t kRequest = 1;

void Value(const std::string& name, double value) {
  std::cout << "value " << name << " " << FullDigits(value) << "\n";
}

/// Hands the traced run's per-layer samples to the parent.
void PrintLayers(const LayerSamples& layers) {
  for (const auto& [name, values] : layers.samples()) {
    for (double v : values) {
      std::cout << "layer " << name << " " << FullDigits(v) << "\n";
    }
  }
}

size_t ResolveThreads(size_t threads) {
  return threads == 0 ? ThreadPool::HardwareConcurrency() : threads;
}

/// `spade_cli --load-store SNAPSHOT --threads N`: attach, then one online
/// pass over every fact set. Traced, the pass is replayed from outside.
Status OneShot(const ChildConfig& c, Trace* trace, LayerSamples* layers) {
  SpadeOptions options = CliOptions();
  options.num_threads = c.threads;
  options.load_store = c.snapshot;
  Graph graph;
  std::vector<Insight> insights;
  Timer timer;
  Spade spade(&graph, options);
  if (trace == nullptr) {
    SPADE_RETURN_NOT_OK(spade.RunOffline());
    auto online = spade.RunOnline();
    SPADE_RETURN_NOT_OK(online.status());
    insights = std::move(*online);
  } else {
    Trace::Scope root(trace, "one_shot", Trace::kNoParent, kRequest);
    {
      Trace::Scope span(trace, "persist.attach", root.id(), kRequest);
      SPADE_RETURN_NOT_OK(spade.RunOffline());
    }
    {
      Trace::Scope span(trace, "core.cfs_select", root.id(), kRequest);
      SPADE_RETURN_NOT_OK(spade.PrepareFactSets());
    }
    const size_t threads = ResolveThreads(c.threads);
    std::unique_ptr<ThreadPool> pool;
    {
      Trace::Scope span(trace, "exec.pool", root.id(), kRequest);
      if (threads > 1) pool = std::make_unique<ThreadPool>(threads - 1);
    }
    TaskScheduler scheduler(pool.get());
    std::vector<uint32_t> ids;
    SpadeOptions effective;
    ResolveRequest(spade, ExploreRequest{}, options, &ids, &effective);
    insights = TracedOnline(spade, ids, effective, &scheduler, trace,
                            root.id(), kRequest);
  }
  Value("ms", timer.ElapsedMillis());
  std::cout << "digest " << InsightDigest(insights) << "\n";
  if (trace != nullptr) {
    layers->Add("persist.attach_ms", trace->Total(kRequest, "persist.attach"));
    layers->AddOnline(ReadOnlineLayers(*trace, kRequest));
  }
  return Status::OK();
}

/// `spade_cli DATA.nt --save-store SNAPSHOT`; the digest is the first
/// insight of the pipeline it built (explored after the clock stops).
Status Build(const ChildConfig& c, Trace* trace, LayerSamples* layers) {
  BuildProfile profile;
  Timer timer;
  auto built = BuildSnapshot(c.input, c.snapshot, trace, Trace::kNoParent,
                             kRequest, &profile);
  SPADE_RETURN_NOT_OK(built.status());
  Value("ms", timer.ElapsedMillis());
  Value("offline_ms", profile.offline_ms);
  const Spade& spade = *built->spade;
  auto first = spade.Explore(FirstRequest(spade), /*scheduler=*/nullptr);
  SPADE_RETURN_NOT_OK(first.status());
  std::cout << "digest " << InsightDigest(first->insights) << "\n";
  if (trace != nullptr) {
    layers->AddBuild(profile, static_cast<double>(FileBytes(c.input)));
  }
  return Status::OK();
}

/// A fresh process's first insight: attach the snapshot, prepare the fact
/// sets, and explore the top 5 of the smallest one on 4 threads.
Status First(const ChildConfig& c, Trace* trace, LayerSamples* layers) {
  std::vector<Insight> insights;
  Timer timer;
  {
    Trace::Scope root(trace, "first_insight", Trace::kNoParent, kRequest);
    Result<Pipeline> attached = Status::Internal("not attached");
    {
      Trace::Scope span(trace, "persist.attach", root.id(), kRequest);
      attached = Attach(c.snapshot, CliOptions());
      SPADE_RETURN_NOT_OK(attached.status());
    }
    std::unique_ptr<ThreadPool> pool;
    {
      Trace::Scope span(trace, "exec.pool", root.id(), kRequest);
      pool = std::make_unique<ThreadPool>(ResolveThreads(0) - 1);
    }
    TaskScheduler scheduler(pool.get());
    const Spade& spade = *attached->spade;
    if (trace == nullptr) {
      auto outcome = spade.Explore(FirstRequest(spade), &scheduler);
      SPADE_RETURN_NOT_OK(outcome.status());
      insights = std::move(outcome->insights);
    } else {
      std::vector<uint32_t> ids;
      SpadeOptions effective;
      ResolveRequest(spade, FirstRequest(spade), CliOptions(), &ids,
                     &effective);
      insights = TracedOnline(spade, ids, effective, &scheduler, trace,
                              root.id(), kRequest);
    }
  }
  Value("ms", timer.ElapsedMillis());
  std::cout << "digest " << InsightDigest(insights) << "\n";
  if (trace != nullptr) {
    layers->Add("persist.attach_ms", trace->Total(kRequest, "persist.attach"));
    layers->AddOnline(ReadOnlineLayers(*trace, kRequest));
  }
  return Status::OK();
}

}  // namespace

Result<ChildOutput> SpawnChild(const ChildConfig& job, RunResult* result,
                               LayerSamples* layers) {
  std::vector<std::string> args = {"--child", job.op, "--threads",
                                   std::to_string(job.threads)};
  if (!job.input.empty()) args.insert(args.end(), {"--input", job.input});
  if (!job.snapshot.empty()) {
    args.insert(args.end(), {"--snapshot", job.snapshot});
  }
  if (!job.trace_file.empty()) {
    args.insert(args.end(), {"--trace-file", job.trace_file});
  }
  ++result->attempted;
  auto out = RunChild(args);
  if (!out.ok()) {
    ++result->failed;
    std::cerr << "bench_e2e: " << out.status().ToString() << "\n";
    return out;
  }
  if (!job.trace_file.empty()) {
    std::ifstream in(job.trace_file);
    std::ostringstream text;
    text << in.rdbuf();
    result->child_traces.push_back(text.str());
    layers->AddAll(out->layers);
  }
  return out;
}

int RunChildOp(const ChildConfig& config) {
  Trace trace;
  Trace* traced = config.trace_file.empty() ? nullptr : &trace;
  LayerSamples layers;
  Status st = Status::InvalidArgument("unknown child op " + config.op);
  if (config.op == "oneshot") st = OneShot(config, traced, &layers);
  if (config.op == "build") st = Build(config, traced, &layers);
  if (config.op == "first") st = First(config, traced, &layers);
  if (st.ok() && traced != nullptr) {
    std::string error;
    if (!trace.Check(&error)) st = Status::Internal("trace: " + error);
    layers.Add("trace.unattributed_ms", trace.Unattributed(kRequest));
    PrintLayers(layers);
    std::ofstream out(config.trace_file);
    trace.WriteJson(out);
    if (!out) st = Status::Internal("cannot write " + config.trace_file);
  }
  Value("rss_mb", PeakRssMb());
  if (!st.ok()) {
    std::cout << "error " << st.ToString() << std::endl;
    return 1;
  }
  std::cout.flush();
  return 0;
}

}  // namespace e2e
}  // namespace spade
