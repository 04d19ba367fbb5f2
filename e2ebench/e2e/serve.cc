// Workloads `serve_read` and `serve_churn`: the insight server over TCP.
//
// serve_read exercises net, the serve core and cross-request scheduling in
// exec over many small lattices, with no writes. The fact-set choice is
// Zipf-skewed so that a response or fact-set cache would have hot keys to
// hit. serve_churn runs the same reads beside a writer: the writer lock,
// ApplyDelta and the refresh path, so a gain for readers that costs writers
// (or the reverse) shows up.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "e2e/loadgen.h"
#include "e2e/metrics.h"
#include "e2e/replica.h"
#include "e2e/workloads.h"
#include "src/datagen/synthetic.h"
#include "src/net/tcp_server.h"
#include "src/persist/serve.h"
#include "src/rdf/ntriples.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace spade {
namespace e2e {

namespace {

constexpr size_t kWarmRequests = 40;
// The load generator's connections: at most 4, as many as the reference
// box has cores. How many requests each may have outstanding is derived
// from the server's admission cap (AdmissionWindow).
constexpr size_t kReadConnections = 4;
// The open-loop rate, frozen: about 0.2 x sat_rps (110 to 155 requests/s
// on the reference box), so the queue stays short and nothing is shed. At
// 64 requests/s, about half of sat_rps, the spread of the reads' p95 over
// ten runs of the same code was 0.22, against 0.06 at this rate.
constexpr double kLoRps = 25;
// serve_read splits its budget: a fifth closed-loop at saturation, the
// rest open-loop at kLoRps.
constexpr double kSatShare = 0.2;
// The closed loop's throughput (sat_rps) on the reference box: its request
// count is what that box answers in its share of the budget.
constexpr double kSatRps = 120;
// The writer's cycle. Its apply and its explore of every fact set take
// about a sixth of the period, so most reads run beside it without
// waiting and the tail shows those that do. At half this period the
// spread of the reads' median over ten runs was 0.27, against 0.15.
constexpr double kChurnPeriodMs = 1500;
// Share of facts whose measure values one churn batch rewrites.
constexpr double kChurnFraction = 0.005;
constexpr double kChurnShift = 250.0;

enum RequestClass { kExploreOne, kEarlyStop, kSummary, kExploreAll, kStats };
constexpr int kNumClasses = 5;
const char* const kClassNames[kNumClasses] = {"explore_one", "earlystop",
                                              "summary", "explore_all",
                                              "stats"};

/// The fact sets the mix draws from: type CFSs, most requested first.
struct MixSpec {
  std::vector<std::string> types;
  std::string summary;
};

MixSpec MakeMixSpec(const Spade& spade, Rng* rng) {
  MixSpec mix;
  for (const CandidateFactSet& s : spade.fact_sets()) {
    if (s.name.rfind("type:", 0) == 0) mix.types.push_back(s.name);
    if (s.name.rfind("summary:", 0) == 0 && mix.summary.empty()) {
      mix.summary = s.name;
    }
  }
  for (size_t i = mix.types.size(); i > 1; --i) {
    std::swap(mix.types[i - 1], mix.types[rng->Uniform(i)]);
  }
  return mix;
}

std::string DrawRequest(const MixSpec& mix, RequestClass cls, Rng* rng) {
  static const int kTops[] = {3, 5, 10};
  const std::string top = " top=" + std::to_string(kTops[rng->Uniform(3)]);
  switch (cls) {
    case kExploreOne:
    case kEarlyStop:
      return "explore cfs=" + mix.types[rng->Zipf(mix.types.size(), 1.0)] +
             top + (cls == kEarlyStop ? " earlystop=on" : "");
    case kSummary:
      return "explore cfs=" + mix.summary + top;
    case kExploreAll:
      return "explore" + top;
    case kStats:
      return rng->Bernoulli(0.5) ? "stats" : "list";
  }
  return "";
}

/// Per 100 requests: 80 explores of one type CFS (Zipf 1.0 over the types),
/// 8 the same with early-stop, 5 of the summary CFS, 2 of every CFS, 5
/// stats / list, in seeded order; top-k uniform over {3, 5, 10}. Exact
/// counts keep a seed from changing how much heavy work a phase carries.
std::vector<RequestClass> ClassBlock(Rng* rng) {
  std::vector<RequestClass> block;
  for (auto [cls, count] : {std::pair{kExploreOne, 80}, {kEarlyStop, 8},
                            {kSummary, 5}, {kExploreAll, 2}, {kStats, 5}}) {
    block.insert(block.end(), count, cls);
  }
  for (size_t i = block.size(); i > 1; --i) {
    std::swap(block[i - 1], block[rng->Uniform(i)]);
  }
  return block;
}

struct Phase {
  std::vector<LoadRequest> requests;
  std::vector<RequestClass> classes;
};

/// `rate_per_s` > 0: Poisson arrivals at that rate; 0: a closed loop.
Phase MakePhase(const MixSpec& mix, Rng* rng, size_t count, double rate_per_s) {
  Phase phase;
  double due = 0;
  std::vector<RequestClass> block;
  for (size_t i = 0; i < count; ++i) {
    if (i % 100 == 0) block = ClassBlock(rng);
    const RequestClass cls = block[i % 100];
    LoadRequest r;
    r.line = DrawRequest(mix, cls, rng);
    if (rate_per_s > 0) {
      due += -std::log(1.0 - rng->NextDouble()) / rate_per_s * 1000.0;
      r.due_ms = due;
    }
    phase.requests.push_back(std::move(r));
    phase.classes.push_back(cls);
  }
  return phase;
}

std::set<std::string> DistinctLines(const std::vector<const Phase*>& phases) {
  std::set<std::string> lines;
  for (const Phase* p : phases) {
    for (const LoadRequest& r : p->requests) lines.insert(r.line);
  }
  return lines;
}

using Bodies = std::map<std::string, std::string>;

/// Pipe-mode answers for `lines`, computed through InsightServer::HandleLine
/// on a pipeline of its own — the byte-for-byte reference every TCP reply is
/// held to. Lines evaluate concurrently on `scheduler`, like the server's,
/// unless `handle_ms` asks for each line's time alone (serve.handle_ms).
Bodies ReferenceBodies(const persist::InsightServer& server,
                       const std::set<std::string>& lines,
                       TaskScheduler* scheduler,
                       std::map<std::string, double>* handle_ms) {
  std::vector<std::string> list(lines.begin(), lines.end());
  std::vector<std::string> bodies(list.size());
  std::vector<double> ms(list.size());
  auto handle = [&](size_t i) {
    bool is_error = false;
    bool truncated = false;
    Timer timer;
    bodies[i] = server.HandleLine(list[i], scheduler, nullptr, &is_error,
                                  &truncated);
    ms[i] = timer.ElapsedMillis();
  };
  if (handle_ms != nullptr) {
    for (size_t i = 0; i < list.size(); ++i) handle(i);
  } else {
    scheduler->ParallelFor(list.size(), handle);
  }
  Bodies out;
  for (size_t i = 0; i < list.size(); ++i) {
    out[list[i]] = std::move(bodies[i]);
    if (handle_ms != nullptr) (*handle_ms)[list[i]] = ms[i];
  }
  return out;
}

/// The TCP front end as `spade_cli --listen 127.0.0.1:0` runs it: CLI
/// defaults, on a thread of its own.
class LiveServer {
 public:
  LiveServer() = default;
  ~LiveServer() { Stop(); }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  Status Start(Spade* spade) {
    net::TcpServerOptions options;
    options.listen.host = "127.0.0.1";
    options.listen.port = 0;
    options.serve.num_threads = CliOptions().num_threads;
    options.install_signal_handlers = false;
    // TcpServerOptions::max_inflight = 0: twice the resolved thread count.
    admission_cap_ = 2 * (options.serve.num_threads == 0
                              ? ThreadPool::HardwareConcurrency()
                              : options.serve.num_threads);
    server_ = std::make_unique<net::TcpServer>(spade, options);
    SPADE_RETURN_NOT_OK(server_->Start());
    thread_ = std::thread([this] { stats_ = server_->Run(); });
    return Status::OK();
  }

  net::HostPort address() const {
    net::HostPort hp;
    hp.port = server_->port();
    return hp;
  }

  /// Requests the server evaluates at once; beyond them it answers `busy`.
  size_t admission_cap() const { return admission_cap_; }

  /// Graceful shutdown; returns what the server served.
  net::TcpServeStats Stop() {
    if (thread_.joinable()) {
      server_->RequestShutdown();
      thread_.join();
    }
    return stats_;
  }

 private:
  std::unique_ptr<net::TcpServer> server_;
  net::TcpServeStats stats_;
  std::thread thread_;
  size_t admission_cap_ = 0;
};

/// How many requests each of `connections` read connections may have
/// outstanding: the server's admission cap, less `reserved` slots, shared
/// evenly. The closed loop then saturates the server without ever being
/// shed. Fails on a host whose cap is too small to give each connection one.
Result<size_t> AdmissionWindow(const LiveServer& server, size_t connections,
                               size_t reserved) {
  const size_t cap = server.admission_cap();
  if (cap < connections + reserved) {
    return Status::InvalidArgument(
        "the server admits " + std::to_string(cap) +
        " requests at once, fewer than the load generator's " +
        std::to_string(connections + reserved) + " connections");
  }
  return (cap - reserved) / connections;
}

/// Everything a serve workload stands up before it measures.
struct ServeSetup {
  Pipeline live;
  std::unique_ptr<LiveServer> server;
  std::vector<double> setup_s;
  size_t num_triples = 0;
  double snapshot_bytes = 0;
  std::string snapshot;
};

/// Generates C_multi into `input`, then kSetupReps times: build the
/// snapshot, attach it, prepare the fact sets and start listening. The last
/// repetition's server stays up.
Status SetUpServe(const RunConfig& config, const std::string& input,
                  Trace* trace, LayerSamples* layers, ServeSetup* out,
                  std::unique_ptr<Graph>* graph) {
  auto input_bytes = MakeInput(Shape::kMulti, config.seed, input, graph);
  SPADE_RETURN_NOT_OK(input_bytes.status());
  out->snapshot = config.workdir + "/serve.snapshot";
  for (int i = 0; i < kSetupReps; ++i) {
    out->server.reset();
    out->live = Pipeline{};
    BuildProfile profile;
    Timer timer;
    {
      auto built = BuildSnapshot(input, out->snapshot, trace,
                                 Trace::kNoParent,
                                 static_cast<uint64_t>(i + 1), &profile);
      SPADE_RETURN_NOT_OK(built.status());
      out->num_triples = built->graph->NumTriples();
    }
    Timer attach_timer;
    auto attached = Attach(out->snapshot, CliOptions());
    SPADE_RETURN_NOT_OK(attached.status());
    const double attach_ms = attach_timer.ElapsedMillis();
    out->live = std::move(*attached);
    out->server = std::make_unique<LiveServer>();
    SPADE_RETURN_NOT_OK(out->server->Start(out->live.spade.get()));
    out->setup_s.push_back(timer.ElapsedSeconds());
    if (trace != nullptr) {
      layers->AddBuild(profile, static_cast<double>(*input_bytes));
      layers->Add("persist.attach_ms", attach_ms);
    }
  }
  out->snapshot_bytes = static_cast<double>(FileBytes(out->snapshot));
  layers->Add("persist.snapshot_bytes", out->snapshot_bytes);
  std::cout << "set-up: " << out->num_triples << " triples, snapshot "
            << out->snapshot_bytes << " bytes, "
            << out->live.spade->fact_sets().size() << " fact sets\n";
  return Status::OK();
}

/// `n` host-speed probes (ProbeMs) into `out`, taken while the server idles.
void Probe(int n, std::vector<double>* out) {
  for (int i = 0; i < n; ++i) out->push_back(ProbeMs());
}

bool IsFailure(const std::string& body) {
  return body == "busy\n" || body.rfind("error:", 0) == 0;
}

/// Holds every reply of `phase` to the references: a reply must equal the
/// answer to its line in one of `states`. Failed requests (busy, error)
/// count against ok_rate, and their latency becomes the phase's wall — a
/// refused request misses every latency limit.
void CheckReads(const Phase& phase, PhaseResult* pr,
                const std::vector<const Bodies*>& states, RunResult* result) {
  for (size_t i = 0; i < pr->bodies.size(); ++i) {
    ++result->attempted;
    const std::string& line = phase.requests[i].line;
    const std::string& body = pr->bodies[i];
    if (IsFailure(body)) {
      ++result->failed;
      pr->latency_ms[i] = std::max(pr->latency_ms[i], pr->wall_ms);
      continue;
    }
    bool matched = false;
    for (const Bodies* state : states) {
      auto it = state->find(line);
      if (it != state->end() && it->second == body) matched = true;
    }
    if (!matched) result->Mismatch("reply to '" + line + "' differs: " + body);
  }
}

void PrintClasses(const char* label, const Phase& phase,
                  const PhaseResult& pr) {
  std::vector<double> by_class[kNumClasses];
  for (size_t i = 0; i < pr.latency_ms.size(); ++i) {
    by_class[phase.classes[i]].push_back(pr.latency_ms[i]);
  }
  for (int c = 0; c < kNumClasses; ++c) {
    PrintTiming(std::string(label) + " " + kClassNames[c], by_class[c]);
  }
  if (!pr.lag_ms.empty()) {
    PrintTiming(std::string(label) + " loadgen.lag", pr.lag_ms);
  }
}

/// Per-layer breakdown of a served explore of every CFS: the traced replica
/// alternating with the real Spade::Explore, on the live pipeline while the
/// server idles. The replica must answer exactly what Explore answers.
void TraceExploreAll(const Spade& spade, Trace* trace, LayerSamples* layers,
                     RunResult* result) {
  ThreadPool pool(ThreadPool::HardwareConcurrency() - 1);
  TaskScheduler scheduler(&pool);
  ExploreRequest request;
  request.top_k = 10;
  std::vector<uint32_t> ids;
  SpadeOptions effective;
  ResolveRequest(spade, request, CliOptions(), &ids, &effective);
  std::vector<double> direct_ms;
  std::vector<double> traced_ms;
  for (int rep = 0; rep < 7; ++rep) {
    Timer direct_timer;
    auto direct = spade.Explore(request, &scheduler);
    direct_ms.push_back(direct_timer.ElapsedMillis());
    const uint64_t id = 1000 + static_cast<uint64_t>(rep);
    Timer traced_timer;
    std::vector<Insight> replica;
    {
      Trace::Scope root(trace, "serve.explore_all", Trace::kNoParent, id);
      replica = TracedOnline(spade, ids, effective, &scheduler, trace,
                             root.id(), id);
    }
    traced_ms.push_back(traced_timer.ElapsedMillis());
    ++result->attempted;
    if (!direct.ok()) {
      ++result->failed;
      continue;
    }
    if (InsightDigest(replica) != InsightDigest(direct->insights)) {
      result->Mismatch("traced replica of explore-all differs from Explore");
    }
    layers->Add("trace.unattributed_ms", trace->Unattributed(id));
    layers->AddOnline(ReadOnlineLayers(*trace, id));
  }
  PrintTiming("explore-all direct", direct_ms);
  PrintTiming("explore-all traced", traced_ms);
  layers->Add("trace.overhead_frac",
              Median(traced_ms).value / Median(direct_ms).value - 1);
}

void AddServerCounters(const net::TcpServeStats& stats, LayerSamples* layers) {
  layers->Add("net.requests_shed", static_cast<double>(stats.num_requests_shed));
  layers->Add("net.connections_shed",
              static_cast<double>(stats.num_connections_shed));
  layers->Add("net.io_errors", static_cast<double>(stats.num_io_errors));
  std::cout << "server: " << stats.serve.num_requests << " requests, "
            << stats.num_requests_shed << " shed, " << stats.num_io_errors
            << " I/O errors\n";
}

/// Client p50 minus pipe-mode handle time, per request class.
void PrintNetOverhead(const Phase& phase, const PhaseResult& pr,
                      const std::map<std::string, double>& handle_ms) {
  for (int c = 0; c < kNumClasses; ++c) {
    std::vector<double> client;
    std::vector<double> handle;
    for (size_t i = 0; i < pr.latency_ms.size(); ++i) {
      if (phase.classes[i] != c) continue;
      client.push_back(pr.latency_ms[i]);
      handle.push_back(handle_ms.at(phase.requests[i].line));
    }
    if (client.empty()) continue;
    std::cout << "serve.handle_ms." << kClassNames[c] << ": p50 "
              << Median(handle).value << " (n=" << handle.size()
              << "), net.overhead_ms p50 "
              << Median(client).value - Median(handle).value << "\n";
  }
}

/// Runs `phase` on `gen`; on a transport failure records it and returns
/// false.
bool RunPhase(LoadGen* gen, const Phase& phase, bool open_loop, size_t window,
              const ChurnPlan* churn, PhaseResult* out, RunResult* result) {
  auto r = gen->Run(phase.requests, open_loop, window, churn);
  if (!r.ok()) {
    result->Mismatch("load generator: " + r.status().ToString());
    return false;
  }
  *out = std::move(*r);
  return true;
}

}  // namespace

RunResult RunServeRead(const RunConfig& config, Trace* trace) {
  RunResult result;
  LayerSamples layers;
  ServeSetup setup;
  {
    std::unique_ptr<Graph> graph;
    Status st = SetUpServe(config, config.workdir + "/serve.nt", trace,
                           &layers, &setup, &graph);
    if (!st.ok()) {
      result.Mismatch("set-up failed: " + st.ToString());
      return result;
    }
  }

  const double sat_s = kSatShare * config.seconds;
  Rng rng(config.seed * 0x9e3779b97f4a7c15ULL + 17);
  const MixSpec mix = MakeMixSpec(*setup.live.spade, &rng);
  const Phase warm = MakePhase(mix, &rng, kWarmRequests, 0);
  const Phase sat = MakePhase(mix, &rng, Repetitions(sat_s, kSatRps), 0);
  const Phase lo = MakePhase(
      mix, &rng, Repetitions(config.seconds - sat_s, kLoRps), kLoRps);

  Bodies s0;
  std::map<std::string, double> handle_ms;
  {
    Timer timer;
    const std::set<std::string> lines = DistinctLines({&warm, &sat, &lo});
    auto reference = Attach(setup.snapshot, CliOptions());
    if (!reference.ok()) {
      result.Mismatch("reference attach failed");
      return result;
    }
    persist::InsightServer server(
        static_cast<const Spade*>(reference->spade.get()),
        persist::ServeOptions{});
    ThreadPool pool(ThreadPool::HardwareConcurrency() - 1);
    TaskScheduler scheduler(&pool);
    s0 = ReferenceBodies(server, lines, &scheduler, &handle_ms);
    std::cout << "oracle: " << lines.size() << " distinct requests in "
              << timer.ElapsedMillis() << " ms\n";
  }

  WarmCpus(0.5);
  std::vector<double> probe_ms;
  Probe(9, &probe_ms);
  ResetPeakRss();
  const Result<size_t> window =
      AdmissionWindow(*setup.server, kReadConnections, 0);
  LoadGen gen;
  Status st = window.ok() ? gen.Connect(setup.server->address(),
                                        kReadConnections, false)
                          : window.status();
  if (!st.ok()) {
    result.Mismatch("load generator: " + st.ToString());
    return result;
  }
  // A traced run skips the lo phase: its per-layer numbers come from the
  // set-up builds, the saturation phase's server counters and the
  // explore-all replica.
  PhaseResult warm_r, sat_r, lo_r;
  if (!RunPhase(&gen, warm, false, *window, nullptr, &warm_r, &result) ||
      !RunPhase(&gen, sat, false, *window, nullptr, &sat_r, &result) ||
      (trace == nullptr &&
       !RunPhase(&gen, lo, true, *window, nullptr, &lo_r, &result))) {
    return result;
  }
  CheckReads(warm, &warm_r, {&s0}, &result);
  CheckReads(sat, &sat_r, {&s0}, &result);
  PrintClasses("sat", sat, sat_r);
  std::cout << "sat_rps: " << 1000.0 * sat_r.bodies.size() / sat_r.wall_ms
            << " (closed loop, " << kReadConnections << "x" << *window
            << " outstanding, n=" << sat_r.bodies.size() << ")\n";
  Probe(9, &probe_ms);
  if (trace == nullptr) {
    CheckReads(lo, &lo_r, {&s0}, &result);
    PrintClasses("lo", lo, lo_r);
    PrintNetOverhead(lo, lo_r, handle_ms);
  } else {
    TraceExploreAll(*setup.live.spade, trace, &layers, &result);
  }
  AddServerCounters(setup.server->Stop(), &layers);

  if (trace == nullptr) {
    SetEndToEnd(setup.setup_s, lo_r.latency_ms, sat_r.latency_ms, probe_ms,
                PeakRssMb(),
                setup.snapshot_bytes / static_cast<double>(setup.num_triples),
                &result);
  } else {
    layers.Emit(&result);
  }
  return result;
}

namespace {

/// Writes the churn batch: every measure value of kChurnFraction of the
/// facts, taken as one contiguous run of each of the two most-requested
/// types. `old_path` holds the current triples, `new_path` the shifted ones;
/// applying (add new, retract old) and then the reverse flips the graph
/// between two states.
Status WriteChurnBatch(const Graph& graph, const MixSpec& mix, Rng* rng,
                       const std::string& old_path,
                       const std::string& new_path) {
  const size_t per_type =
      static_cast<size_t>(kChurnFraction * kMultiFacts) / 2;
  const Dictionary& dict = graph.dict();
  std::vector<TermId> measures;
  for (size_t m = 0; m < kMultiMeasures; ++m) {
    auto id = dict.Lookup(Term::Iri(synth::kMeasurePrefix + std::to_string(m)));
    if (!id) return Status::Internal("measure property missing");
    measures.push_back(*id);
  }
  std::set<TermId> hot;
  for (size_t rank = 0; rank < 2; ++rank) {
    // "type:Fact" is type 0, "type:FactN" type N; fact f has type f % 16.
    const std::string suffix =
        mix.types[rank].substr(std::string("type:Fact").size());
    const size_t type = suffix.empty() ? 0 : std::stoul(suffix);
    const size_t first = rng->Uniform(kMultiFacts / kMultiTypes - per_type);
    for (size_t j = first; j < first + per_type; ++j) {
      const std::string iri =
          "http://bench.spade/fact/" + std::to_string(type + kMultiTypes * j);
      auto id = dict.Lookup(Term::Iri(iri));
      if (!id) return Status::Internal("fact missing: " + iri);
      hot.insert(*id);
    }
  }
  std::ofstream old_out(old_path);
  std::ofstream new_out(new_path);
  Dictionary shifted;
  for (const Triple& t : graph.triples()) {
    if (hot.count(t.s) == 0 ||
        std::find(measures.begin(), measures.end(), t.p) == measures.end()) {
      continue;
    }
    const std::string sp = NTriplesWriter::FormatTerm(dict, t.s) + " " +
                           NTriplesWriter::FormatTerm(dict, t.p) + " ";
    const double value = std::stod(dict.Get(t.o).lexical);
    old_out << sp << NTriplesWriter::FormatTerm(dict, t.o) << " .\n";
    new_out << sp
            << NTriplesWriter::FormatTerm(
                   shifted, shifted.InternDouble(value + kChurnShift))
            << " .\n";
  }
  old_out.close();
  new_out.close();
  if (!old_out || !new_out) return Status::Internal("cannot write churn batch");
  return Status::OK();
}

}  // namespace

RunResult RunServeChurn(const RunConfig& config, Trace* trace) {
  RunResult result;
  LayerSamples layers;
  ServeSetup setup;
  std::unique_ptr<Graph> graph;
  Status st = SetUpServe(config, config.workdir + "/serve.nt", trace, &layers,
                         &setup, &graph);
  if (!st.ok()) {
    result.Mismatch("set-up failed: " + st.ToString());
    return result;
  }

  Rng rng(config.seed * 0x9e3779b97f4a7c15ULL + 17);
  const MixSpec mix = MakeMixSpec(*setup.live.spade, &rng);
  const Phase warm = MakePhase(mix, &rng, kWarmRequests, 0);
  const Phase lo =
      MakePhase(mix, &rng, Repetitions(config.seconds, kLoRps), kLoRps);
  const std::string old_path = config.workdir + "/churn_old.nt";
  const std::string new_path = config.workdir + "/churn_new.nt";
  st = WriteChurnBatch(*graph, mix, &rng, old_path, new_path);
  graph.reset();
  if (!st.ok()) {
    result.Mismatch("churn batch: " + st.ToString());
    return result;
  }
  ChurnPlan churn;
  churn.period_ms = kChurnPeriodMs;
  churn.applies = {"apply add=" + new_path + " retract=" + old_path,
                   "apply add=" + old_path + " retract=" + new_path};
  churn.explore = "explore top=10";

  // References for the three states the graph passes through: S0 (start),
  // S1 (after batch A), S0' (after A then B: S0's triples, S1's dictionary).
  // A second A/B round must reproduce them exactly, which pins the
  // periodicity every later churn cycle is checked against.
  Bodies s0, s1, s0b;
  std::string apply_a, apply_b;
  std::vector<double> direct_apply_ms;
  {
    Timer timer;
    std::set<std::string> lines = DistinctLines({&warm, &lo});
    lines.insert(churn.explore);
    auto reference = Attach(setup.snapshot, CliOptions());
    if (!reference.ok()) {
      result.Mismatch("reference attach failed");
      return result;
    }
    persist::InsightServer server(reference->spade.get(),
                                  persist::ServeOptions{});
    ThreadPool pool(ThreadPool::HardwareConcurrency() - 1);
    TaskScheduler scheduler(&pool);
    auto apply = [&](const std::string& line) {
      bool is_error = false;
      bool truncated = false;
      Timer t;
      std::string body =
          server.HandleLine(line, &scheduler, nullptr, &is_error, &truncated);
      direct_apply_ms.push_back(t.ElapsedMillis());
      return body;
    };
    const std::set<std::string> explore_only = {churn.explore};
    s0 = ReferenceBodies(server, lines, &scheduler, nullptr);
    apply_a = apply(churn.applies[0]);
    s1 = ReferenceBodies(server, lines, &scheduler, nullptr);
    apply_b = apply(churn.applies[1]);
    s0b = ReferenceBodies(server, lines, &scheduler, nullptr);
    const bool periodic =
        apply(churn.applies[0]) == apply_a &&
        ReferenceBodies(server, explore_only, &scheduler, nullptr) ==
            Bodies{{churn.explore, s1[churn.explore]}} &&
        apply(churn.applies[1]) == apply_b &&
        ReferenceBodies(server, explore_only, &scheduler, nullptr) ==
            Bodies{{churn.explore, s0b[churn.explore]}};
    if (IsFailure(apply_a) || IsFailure(apply_b) || !periodic) {
      result.Mismatch("reference churn is not periodic: " + apply_a + apply_b);
      return result;
    }
    std::cout << "oracle: " << lines.size()
              << " distinct requests x 3 states in " << timer.ElapsedMillis()
              << " ms; batch A: " << apply_a;
  }
  auto count_of = [](const std::string& reply, const std::string& key) {
    const size_t at = reply.find(" " + key + "=");
    return at == std::string::npos
               ? 0.0
               : std::strtod(reply.c_str() + at + key.size() + 2, nullptr);
  };
  layers.Add("delta.attrs_changed", count_of(apply_a, "attrs_changed"));
  layers.Add("delta.cfs_reused", count_of(apply_a, "cfs_reused"));

  WarmCpus(0.5);
  std::vector<double> probe_ms;
  Probe(9, &probe_ms);
  ResetPeakRss();
  // The writer takes one of the four connections and one admission slot
  // (its apply and explore go one at a time), so reads use three.
  const Result<size_t> window =
      AdmissionWindow(*setup.server, kReadConnections - 1, 1);
  LoadGen gen;
  st = window.ok() ? gen.Connect(setup.server->address(),
                                 kReadConnections - 1, true)
                   : window.status();
  if (!st.ok()) {
    result.Mismatch("load generator: " + st.ToString());
    return result;
  }
  PhaseResult warm_r, cycles;
  if (!RunPhase(&gen, warm, false, *window, nullptr, &warm_r, &result) ||
      !RunPhase(&gen, lo, true, *window, &churn, &cycles, &result)) {
    return result;
  }
  Probe(9, &probe_ms);
  CheckReads(warm, &warm_r, {&s0}, &result);
  CheckReads(lo, &cycles, {&s0, &s1, &s0b}, &result);
  PrintClasses("lo", lo, cycles);

  for (size_t k = 0; k < cycles.apply_bodies.size(); ++k) {
    result.attempted += 2;
    const bool odd = k % 2 == 1;
    const std::string& apply_body = cycles.apply_bodies[k];
    if (IsFailure(apply_body)) ++result.failed;
    if (k < cycles.fresh_bodies.size() && IsFailure(cycles.fresh_bodies[k])) {
      ++result.failed;
      cycles.fresh_ms[k] = std::max(cycles.fresh_ms[k], cycles.wall_ms);
    }
    if (!IsFailure(apply_body) && apply_body != (odd ? apply_b : apply_a)) {
      result.Mismatch("apply reply differs: " + apply_body);
    }
    if (k < cycles.fresh_bodies.size() && !IsFailure(cycles.fresh_bodies[k]) &&
        cycles.fresh_bodies[k] != (odd ? s0b : s1)[churn.explore]) {
      result.Mismatch("explore after apply " + std::to_string(k + 1) +
                      " differs from the reference");
    }
  }
  PrintTiming("apply", cycles.apply_ms);
  PrintTiming("direct apply", direct_apply_ms);
  std::cout << "serve.apply_wait_ms p50: "
            << Median(cycles.apply_ms).value - Median(direct_apply_ms).value
            << "\n";
  if (trace != nullptr) {
    TraceExploreAll(*setup.live.spade, trace, &layers, &result);
  }
  AddServerCounters(setup.server->Stop(), &layers);

  if (trace == nullptr) {
    SetEndToEnd(setup.setup_s, cycles.latency_ms, cycles.fresh_ms, probe_ms,
                PeakRssMb(),
                setup.snapshot_bytes / static_cast<double>(setup.num_triples),
                &result);
  } else {
    layers.Emit(&result);
  }
  return result;
}

}  // namespace e2e
}  // namespace spade
