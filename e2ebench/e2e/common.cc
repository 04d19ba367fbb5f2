#include "e2e/common.h"

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/datagen/synthetic.h"
#include "src/ingest/chunk_source.h"
#include "src/rdf/ntriples.h"
#include "src/util/timer.h"

extern char** environ;

namespace spade {
namespace e2e {

Result<uint64_t> MakeInput(Shape shape, uint64_t seed, const std::string& path,
                           std::unique_ptr<Graph>* graph) {
  SyntheticOptions options;
  options.dim_cardinality.assign(3, 100);
  options.sparsity = 0.1;
  options.seed = seed;
  if (shape == Shape::kFig12) {
    options.num_facts = 40000;
    options.num_measures = 15;
    options.num_fact_types = 1;
  } else {
    options.num_facts = kMultiFacts;
    options.num_measures = kMultiMeasures;
    options.num_fact_types = kMultiTypes;
  }
  *graph = GenerateSynthetic(options);
  std::ofstream out(path, std::ios::binary);
  NTriplesWriter::Write(**graph, out);
  out.close();
  if (!out) return Status::Internal("cannot write " + path);
  return FileBytes(path);
}

SpadeOptions CliOptions() {
  SpadeOptions options;
  options.num_threads = 0;
  return options;
}

Result<Pipeline> BuildSnapshot(const std::string& ntriples_path,
                               const std::string& snapshot_path, Trace* trace,
                               Trace::SpanId parent, uint64_t request,
                               BuildProfile* profile) {
  std::ifstream in(ntriples_path, std::ios::binary);
  if (!in) return Status::Internal("cannot open " + ntriples_path);
  Pipeline p;
  p.graph = std::make_unique<Graph>();
  p.spade = std::make_unique<Spade>(p.graph.get(), CliOptions());
  Trace::Scope root(trace, "build", parent, request);
  if (trace == nullptr) {
    Timer timer;
    NTriplesChunkSource source(in, p.graph.get());
    SPADE_RETURN_NOT_OK(p.spade->RunOffline(&source));
    profile->offline_ms = timer.ElapsedMillis();
  } else {
    std::vector<std::vector<Triple>> chunks;
    {
      Trace::Scope span(trace, "rdf.parse", root.id(), request);
      Timer timer;
      NTriplesChunkSource source(in, p.graph.get());
      const size_t chunk_triples = IngestOptions{}.chunk_triples;
      bool done = false;
      while (!done) {
        std::vector<Triple> chunk;
        SPADE_RETURN_NOT_OK(source.NextChunk(chunk_triples, &chunk, &done));
        if (!chunk.empty()) chunks.push_back(std::move(chunk));
      }
      profile->parse_ms = timer.ElapsedMillis();
    }
    {
      Trace::Scope span(trace, "ingest.build", root.id(), request);
      Timer timer;
      VectorChunkSource replay(std::move(chunks));
      SPADE_RETURN_NOT_OK(p.spade->RunOffline(&replay));
      profile->build_ms = timer.ElapsedMillis();
    }
    profile->offline_ms = profile->parse_ms + profile->build_ms;
  }
  {
    Trace::Scope span(trace, "core.cfs_select", root.id(), request);
    Timer timer;
    SPADE_RETURN_NOT_OK(p.spade->PrepareFactSets());
    profile->select_ms = timer.ElapsedMillis();
  }
  {
    Trace::Scope span(trace, "persist.save", root.id(), request);
    Timer timer;
    SPADE_RETURN_NOT_OK(p.spade->SaveStore(snapshot_path));
    profile->save_ms = timer.ElapsedMillis();
  }
  profile->timings = p.spade->report().timings;
  return p;
}

Result<Pipeline> Attach(const std::string& path, SpadeOptions options) {
  Pipeline out;
  options.load_store = path;
  out.graph = std::make_unique<Graph>();
  out.spade = std::make_unique<Spade>(out.graph.get(), options);
  SPADE_RETURN_NOT_OK(out.spade->RunOffline());
  SPADE_RETURN_NOT_OK(out.spade->PrepareFactSets());
  return out;
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  return f ? static_cast<uint64_t>(f.tellg()) : 0;
}

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";  // 5 = reset the peak resident set size
  out.flush();
  return static_cast<bool>(out);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

void WarmCpus(double seconds) {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  std::atomic<uint64_t> sink{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < n; ++t) {
    threads.emplace_back([seconds, &sink] {
      Timer timer;
      uint64_t x = 0x9e3779b97f4a7c15ULL;
      while (timer.ElapsedSeconds() < seconds) {
        for (int i = 0; i < 100000; ++i) x = x * 6364136223846793005ULL + 1;
      }
      sink += x;
    });
  }
  for (std::thread& t : threads) t.join();
}

double ProbeMs() {
  // A fixed mix of integer arithmetic and reads that mostly miss the
  // private caches; the table (4 MiB) is built once so the probe never
  // page-faults.
  static const std::vector<uint64_t> table = [] {
    std::vector<uint64_t> t(size_t{1} << 19);
    for (size_t i = 0; i < t.size(); ++i) t[i] = i * 0x9e3779b97f4a7c15ULL;
    return t;
  }();
  static uint64_t sink = 0;
  Timer timer;
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 8000000; ++i) x = x * 6364136223846793005ULL + 1;
  for (int i = 0; i < 300000; ++i) {
    x = x * 6364136223846793005ULL + 1;
    sink += table[x >> 45];
  }
  const double ms = timer.ElapsedMillis();
  sink += x;
  return ms;
}

std::string InsightDigest(const std::vector<Insight>& insights) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* data, size_t size) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h = (h ^ p[i]) * 0x100000001b3ULL;
    }
    const unsigned char separator = 0;
    h = (h ^ separator) * 0x100000001b3ULL;
  };
  for (const Insight& insight : insights) {
    uint64_t bits = 0;
    std::memcpy(&bits, &insight.ranked.score, sizeof(bits));
    mix(&bits, sizeof(bits));
    mix(insight.cfs_name.data(), insight.cfs_name.size());
    mix(insight.description.data(), insight.description.size());
    mix(insight.sparql.data(), insight.sparql.size());
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%zu:%016llx", insights.size(),
                static_cast<unsigned long long>(h));
  return buf;
}

ExploreRequest FirstRequest(const Spade& spade) {
  ExploreRequest request;
  request.top_k = 5;
  const CandidateFactSet* pick = nullptr;
  for (const CandidateFactSet& s : spade.fact_sets()) {
    if (pick == nullptr || s.members.size() < pick->members.size()) pick = &s;
  }
  if (pick != nullptr) request.cfs_names.push_back(pick->name);
  return request;
}

std::string FullDigits(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

namespace {

/// Closes a file descriptor on scope exit.
struct FdCloser {
  int fd;
  ~FdCloser() {
    if (fd >= 0) close(fd);
  }
};

void ParseChildOutput(const std::string& text, ChildOutput* out) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string kind;
    std::string name;
    fields >> kind >> name;
    if (kind == "digest") {
      out->digest = name;
      continue;
    }
    double value = 0;
    if (!(fields >> value)) continue;  // progress text
    if (kind == "value") out->values[name] = value;
    if (kind == "layer") out->layers.emplace_back(name, value);
  }
}

}  // namespace

Result<ChildOutput> RunChild(const std::vector<std::string>& args) {
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) return Status::Internal("cannot resolve /proc/self/exe");
  exe[len] = '\0';
  std::vector<char*> argv = {exe};
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    return Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  FdCloser read_end{fds[0]};
  FdCloser write_end{fds[1]};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, exe, &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return Status::Internal(std::string("spawn: ") + std::strerror(rc));
  close(write_end.fd);
  write_end.fd = -1;

  std::string text;
  char buf[4096];
  while (true) {
    const ssize_t got = read(read_end.fd, buf, sizeof(buf));
    if (got > 0) {
      text.append(buf, static_cast<size_t>(got));
    } else if (got == 0 || errno != EINTR) {
      break;
    }
  }
  int wstatus = 0;
  pid_t waited = 0;
  do {
    waited = waitpid(pid, &wstatus, 0);
  } while (waited < 0 && errno == EINTR);
  if (waited != pid || !WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    std::string command;
    for (const std::string& a : args) command += " " + a;
    return Status::Internal("child" + command + " failed: " + text);
  }
  ChildOutput out;
  ParseChildOutput(text, &out);
  return out;
}

}  // namespace e2e
}  // namespace spade
