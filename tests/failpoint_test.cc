// Fault-injection matrix over the registered failpoints: each site, fired,
// must surface as a graceful Status (or an isolated per-request error in the
// serve loop) — never a crash, a partial attach, or a torn snapshot. In
// builds with SPADE_FAILPOINTS compiled out, every test here skips and the
// configuration API reports the feature as unavailable.

#include "src/util/failpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/spade.h"
#include "src/datagen/synthetic.h"
#include "src/exec/thread_pool.h"
#include "src/ingest/chunk_source.h"
#include "src/persist/serve.h"
#include "src/persist/snapshot.h"
#include "src/rdf/ntriples.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace spade {
namespace {

SyntheticOptions SmallCorpus() {
  SyntheticOptions sopts;
  sopts.num_facts = 2000;
  sopts.dim_cardinality.assign(3, 15);
  sopts.num_measures = 2;
  sopts.num_fact_types = 2;
  return sopts;
}

SpadeOptions BaseOptions() {
  SpadeOptions options;
  options.cfs.min_size = 20;
  options.enumeration.max_dims = 2;
  options.enumeration.max_lattices_per_cfs = 4;
  options.enumeration.max_measures_per_lattice = 2;
  options.top_k = 5;
  return options;
}

std::string TmpPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Every test starts and ends with a clean failpoint registry.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { fail::Reset(); }
  void TearDown() override { fail::Reset(); }
};

TEST_F(FailpointTest, ConfigureGrammarAndReset) {
  if (!fail::Enabled()) GTEST_SKIP() << "failpoints compiled out";
  EXPECT_TRUE(fail::Configure("").ok());
  EXPECT_TRUE(fail::Configure("some.site=error").ok());
  EXPECT_TRUE(fail::Configure("a=error:3,b=throw,c=oom:0.5,d=off").ok());
  EXPECT_FALSE(fail::Configure("no-equals-sign").ok());
  EXPECT_FALSE(fail::Configure("x=explode").ok());
  EXPECT_FALSE(fail::Configure("x=error:not-a-number").ok());
  EXPECT_FALSE(fail::Configure("x=error:1.5").ok());  // probability > 1
  fail::Reset();
}

TEST_F(FailpointTest, CompiledOutConfigureReportsUnavailable) {
  if (fail::Enabled()) GTEST_SKIP() << "failpoints compiled in";
  Status st = fail::Configure("some.site=error");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(fail::KnownNames().empty());
}

TEST_F(FailpointTest, FullPipelineRegistersTheExpectedSites) {
  if (!fail::Enabled()) GTEST_SKIP() << "failpoints compiled out";
  // Drive every subsystem once (unarmed failpoints register on first hit),
  // then check the registry knows every planted site.
  auto graph = GenerateSynthetic(SmallCorpus());
  std::string nt;
  {
    std::ostringstream out;
    NTriplesWriter::Write(*graph, out);
    nt = out.str();
  }
  const std::string snap = TmpPath("failpoint_register.snap");
  {
    Graph parsed;
    SpadeOptions options = BaseOptions();
    options.num_threads = 2;
    options.save_store = snap;
    Spade spade(&parsed, options);
    std::istringstream in(nt);
    NTriplesChunkSource source(in, &parsed);
    ASSERT_TRUE(spade.RunOffline(&source).ok());
    ASSERT_TRUE(spade.RunOnline().ok());
  }
  {
    Graph loaded;
    SpadeOptions options = BaseOptions();
    options.load_store = snap;
    Spade spade(&loaded, options);
    ASSERT_TRUE(spade.RunOffline().ok());
    ASSERT_TRUE(spade.PrepareFactSets().ok());
    persist::InsightServer server(&spade, persist::ServeOptions{});
    std::istringstream req("explore top=3\n");
    std::ostringstream resp;
    server.Serve(req, resp);
  }
  const std::vector<std::string> names = fail::KnownNames();
  for (const char* expected :
       {"core.lattice.slice", "core.measure.load", "core.translate",
        "exec.parallel_for", "exec.taskgroup.task", "persist.load.attach",
        "persist.load.open", "persist.save.finish", "persist.save.open",
        "persist.save.rename", "persist.save.segment", "serve.request"}) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), expected) != names.end())
        << "failpoint never registered: " << expected;
  }
  std::remove(snap.c_str());
}

TEST_F(FailpointTest, AllSiteNamesCoversEveryRegisteredSite) {
  // AllSiteNames() is the static catalog behind `spade_cli
  // --list-failpoints`; it exists in every build, is sorted and duplicate
  // free, and must be a superset of whatever actually registered at
  // runtime. (FullPipelineRegistersTheExpectedSites above exercises most
  // code paths first when the suite runs in order; this holds regardless.)
  const std::vector<std::string> all = fail::AllSiteNames();
  ASSERT_FALSE(all.empty());
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
  EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end());
  for (const char* site :
       {"serve.accept", "serve.read", "serve.write", "serve.request"}) {
    EXPECT_TRUE(std::find(all.begin(), all.end(), site) != all.end())
        << "network failpoint missing from the catalog: " << site;
  }
  for (const std::string& name : fail::KnownNames()) {
    EXPECT_TRUE(std::find(all.begin(), all.end(), name) != all.end())
        << "site registered at runtime but missing from AllSiteNames(): "
        << name << " — add it to the catalog in failpoint.cc";
  }
}

TEST_F(FailpointTest, OnlineFailpointsReturnErrorStatus) {
  if (!fail::Enabled()) GTEST_SKIP() << "failpoints compiled out";
  for (const char* name : {"exec.parallel_for", "core.lattice.slice",
                           "core.translate", "core.measure.load"}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      fail::Reset();
      auto graph = GenerateSynthetic(SmallCorpus());
      SpadeOptions options = BaseOptions();
      options.num_threads = threads;
      Spade spade(graph.get(), options);
      ASSERT_TRUE(spade.RunOffline().ok());
      ASSERT_TRUE(fail::Configure(std::string(name) + "=error").ok());
      auto insights = spade.RunOnline();
      EXPECT_FALSE(insights.ok())
          << name << " armed at " << threads << " threads";
    }
  }
}

TEST_F(FailpointTest, OomActionSurfacesAsErrorStatus) {
  if (!fail::Enabled()) GTEST_SKIP() << "failpoints compiled out";
  auto graph = GenerateSynthetic(SmallCorpus());
  Spade spade(graph.get(), BaseOptions());
  ASSERT_TRUE(spade.RunOffline().ok());
  ASSERT_TRUE(fail::Configure("core.translate=oom").ok());
  auto insights = spade.RunOnline();
  EXPECT_FALSE(insights.ok());
}

TEST_F(FailpointTest, TaskGroupFailpointSurfacesAtWait) {
  if (!fail::Enabled()) GTEST_SKIP() << "failpoints compiled out";
  // The site fires before the task body: the hit it fires on loses only its
  // own task, and the error comes back at Wait(), serial or pooled.
  for (size_t threads : {size_t{1}, size_t{4}}) {
    fail::Reset();
    ASSERT_TRUE(fail::Configure("exec.taskgroup.task=error:2").ok());
    std::atomic<int> ran{0};
    std::unique_ptr<ThreadPool> pool = MakeWorkerPool(threads);
    TaskScheduler scheduler(pool.get());
    TaskGroup group(&scheduler);
    for (int i = 0; i < 4; ++i) group.Run([&ran] { ran.fetch_add(1); });
    EXPECT_THROW(group.Wait(), fail::FailpointError)
        << "armed at " << threads << " threads";
    EXPECT_EQ(ran.load(), 3) << threads << " threads";
  }
}

TEST_F(FailpointTest, OneShotFiresOnExactlyTheNthHit) {
  if (!fail::Enabled()) GTEST_SKIP() << "failpoints compiled out";
  // persist.save.segment is hit once per segment; error:3 must let the
  // first two through and abort on the third — the save still fails
  // gracefully, and with the counter past 3 a retry succeeds untouched.
  auto graph = GenerateSynthetic(SmallCorpus());
  Spade spade(graph.get(), BaseOptions());
  ASSERT_TRUE(spade.RunOffline().ok());
  const std::string path = TmpPath("failpoint_oneshot.snap");
  ASSERT_TRUE(fail::Configure("persist.save.segment=error:3").ok());
  EXPECT_FALSE(spade.SaveStore(path).ok());
  EXPECT_TRUE(spade.SaveStore(path).ok());  // hits 4.. never match one-shot 3
  std::remove(path.c_str());
}

TEST_F(FailpointTest, FailedSaveLeavesPriorSnapshotByteIdentical) {
  if (!fail::Enabled()) GTEST_SKIP() << "failpoints compiled out";
  auto graph = GenerateSynthetic(SmallCorpus());
  Spade spade(graph.get(), BaseOptions());
  ASSERT_TRUE(spade.RunOffline().ok());
  const std::string path = TmpPath("failpoint_atomic.snap");
  ASSERT_TRUE(spade.SaveStore(path).ok());
  const std::string before = ReadAll(path);
  ASSERT_FALSE(before.empty());

  for (const char* name : {"persist.save.open", "persist.save.segment",
                           "persist.save.finish", "persist.save.rename"}) {
    fail::Reset();
    ASSERT_TRUE(fail::Configure(std::string(name) + "=error").ok());
    EXPECT_FALSE(spade.SaveStore(path).ok()) << name;
    EXPECT_EQ(before, ReadAll(path)) << name << " touched the destination";
#if defined(__unix__) || defined(__APPLE__)
    // No temp-file debris: the guard removed the partial build.
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    EXPECT_FALSE(std::ifstream(tmp).good()) << name << " left " << tmp;
#endif
  }
  fail::Reset();

  // The surviving file still loads, and an un-failed save still works.
  Graph loaded;
  SpadeOptions lopt = BaseOptions();
  lopt.load_store = path;
  Spade reloaded(&loaded, lopt);
  EXPECT_TRUE(reloaded.RunOffline().ok());
  EXPECT_TRUE(spade.SaveStore(path).ok());
  std::remove(path.c_str());
}

TEST_F(FailpointTest, LoadFailpointsNeverHalfAttach) {
  if (!fail::Enabled()) GTEST_SKIP() << "failpoints compiled out";
  auto graph = GenerateSynthetic(SmallCorpus());
  Spade builder(graph.get(), BaseOptions());
  ASSERT_TRUE(builder.RunOffline().ok());
  const std::string path = TmpPath("failpoint_load.snap");
  ASSERT_TRUE(builder.SaveStore(path).ok());

  for (const char* name : {"persist.load.open", "persist.load.attach"}) {
    fail::Reset();
    ASSERT_TRUE(fail::Configure(std::string(name) + "=error").ok());
    Graph target;
    SpadeOptions lopt = BaseOptions();
    lopt.load_store = path;
    Spade spade(&target, lopt);
    EXPECT_FALSE(spade.RunOffline().ok()) << name;
    // Nothing was attached: the graph still reports an empty triple store.
    EXPECT_EQ(target.NumTriples(), 0u) << name;
  }
  fail::Reset();
  Graph target;
  SpadeOptions lopt = BaseOptions();
  lopt.load_store = path;
  Spade spade(&target, lopt);
  EXPECT_TRUE(spade.RunOffline().ok());
  std::remove(path.c_str());
}

TEST_F(FailpointTest, ServeIsolatesFaultedRequests) {
  if (!fail::Enabled()) GTEST_SKIP() << "failpoints compiled out";
  auto graph = GenerateSynthetic(SmallCorpus());
  Spade spade(graph.get(), BaseOptions());
  ASSERT_TRUE(spade.RunOffline().ok());
  ASSERT_TRUE(spade.PrepareFactSets().ok());

  // Hit 1 throws from inside request handling; hit 2 runs clean. One bad
  // request must not take the session (or the following request) down.
  ASSERT_TRUE(fail::Configure("serve.request=throw:1").ok());
  persist::InsightServer server(&spade, persist::ServeOptions{});
  std::istringstream in("explore top=3\nexplore top=3\n");
  std::ostringstream out;
  persist::ServeStats stats = server.Serve(in, out);
  EXPECT_EQ(stats.num_requests, 2u);
  EXPECT_EQ(stats.num_errors, 1u);
  const std::string text = out.str();
  EXPECT_NE(text.find("#1 error: internal error"), std::string::npos) << text;
  EXPECT_NE(text.find("#2 ok "), std::string::npos) << text;

  // Same isolation for allocation failure.
  fail::Reset();
  ASSERT_TRUE(fail::Configure("serve.request=oom:1").ok());
  std::istringstream in2("explore top=3\nexplore top=3\n");
  std::ostringstream out2;
  stats = server.Serve(in2, out2);
  EXPECT_EQ(stats.num_requests, 2u);
  EXPECT_EQ(stats.num_errors, 1u);
  EXPECT_NE(out2.str().find("#1 error: out of memory"), std::string::npos)
      << out2.str();
  EXPECT_NE(out2.str().find("#2 ok "), std::string::npos) << out2.str();
}

}  // namespace
}  // namespace spade
