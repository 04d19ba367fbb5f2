// Edge-case tests of the serve request loop (src/persist/serve.h): line
// length boundaries, echo-mode framing, and ServeStats counter correctness
// across error / truncated / oversized requests. The cross-front-end
// byte-identity contract lives in net_test.cc; the thread-count identity
// contract in persist_test.cc.

#include "src/persist/serve.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "src/core/spade.h"
#include "src/datagen/synthetic.h"

namespace spade {
namespace {

class ServeEdgeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticOptions sopts;
    sopts.num_facts = 2000;
    sopts.dim_cardinality.assign(3, 15);
    sopts.num_measures = 2;
    sopts.num_fact_types = 2;
    graph_ = GenerateSynthetic(sopts).release();
    SpadeOptions options;
    options.cfs.min_size = 20;
    options.enumeration.max_dims = 2;
    options.top_k = 5;
    spade_ = new Spade(graph_, options);
    ASSERT_TRUE(spade_->RunOffline().ok());
    ASSERT_TRUE(spade_->PrepareFactSets().ok());
  }

  static void TearDownTestSuite() {
    delete spade_;
    spade_ = nullptr;
    delete graph_;
    graph_ = nullptr;
  }

  static std::string Run(const std::string& requests,
                         persist::ServeOptions sopts,
                         persist::ServeStats* stats = nullptr) {
    persist::InsightServer server(spade_, sopts);
    std::istringstream in(requests);
    std::ostringstream out;
    persist::ServeStats s = server.Serve(in, out);
    if (stats != nullptr) *stats = s;
    return out.str();
  }

  static Graph* graph_;
  static Spade* spade_;
};

Graph* ServeEdgeTest::graph_ = nullptr;
Spade* ServeEdgeTest::spade_ = nullptr;

TEST_F(ServeEdgeTest, LineOfExactlyMaxLineBytesIsServed) {
  // The limit is inclusive: a (trimmed) line of exactly max_line_bytes
  // parses normally; one byte more is answered unparsed.
  const std::string request = "explore top=3";
  persist::ServeOptions sopts;
  sopts.max_line_bytes = request.size();

  persist::ServeStats stats;
  std::string out = Run(request + "\n", sopts, &stats);
  EXPECT_NE(out.find("#1 ok"), std::string::npos) << out;
  EXPECT_EQ(stats.num_requests, 1u);
  EXPECT_EQ(stats.num_errors, 0u);

  // Surrounding whitespace doesn't count: the line is measured trimmed.
  out = Run("   " + request + "   \n", sopts, &stats);
  EXPECT_NE(out.find("#1 ok"), std::string::npos) << out;
  EXPECT_EQ(stats.num_errors, 0u);

  // One byte over: an error block naming both sizes, without parsing.
  out = Run(request + "3\n", sopts, &stats);
  EXPECT_NE(out.find("#1 error: request line too long (" +
                     std::to_string(request.size() + 1) + " bytes, limit " +
                     std::to_string(request.size()) + ")"),
            std::string::npos)
      << out;
  EXPECT_EQ(stats.num_requests, 1u);
  EXPECT_EQ(stats.num_errors, 1u);
}

TEST_F(ServeEdgeTest, EchoModeFramesEveryRequestIntoItsBlock) {
  persist::ServeOptions sopts;
  sopts.echo = true;
  const std::string out = Run("stats\nbogus\nexplore top=1\n", sopts);

  // Each block leads with its own echoed request, prefixed like every other
  // line of the block (so output remains parseable per-id).
  EXPECT_NE(out.find("#1 > stats\n#1 ok\n"), std::string::npos) << out;
  EXPECT_NE(out.find("#2 > bogus\n#2 error: "), std::string::npos) << out;
  EXPECT_NE(out.find("#3 > explore top=1\n#3 ok 1\n"), std::string::npos)
      << out;

  // Echo off: no "> " line anywhere.
  sopts.echo = false;
  EXPECT_EQ(Run("stats\n", sopts).find("> "), std::string::npos);
}

TEST_F(ServeEdgeTest, OversizedLinesAreNotEchoedEvenInEchoMode) {
  // Echoing an oversized line would defeat the memory bound that refused
  // it; the error block stands alone.
  persist::ServeOptions sopts;
  sopts.echo = true;
  sopts.max_line_bytes = 8;
  const std::string out = Run("0123456789abcdef\nstats\n", sopts);
  EXPECT_NE(out.find("#1 error: request line too long"), std::string::npos)
      << out;
  EXPECT_EQ(out.find("#1 > "), std::string::npos) << out;
  EXPECT_NE(out.find("#2 > stats"), std::string::npos) << out;
}

TEST_F(ServeEdgeTest, StatsCountErrorsTruncationsAndOversizedRequests) {
  persist::ServeOptions sopts;
  sopts.num_threads = 2;
  sopts.max_line_bytes = 64;

  persist::ServeStats stats;
  const std::string out = Run(
      "stats\n"
      "definitely-not-a-command\n"      // error
      "explore top=1 timeout=0\n"       // truncated (already-expired)
      + std::string(80, 'z') + "\n"     // oversized: error, never parsed
      "# comment\n"                      // skipped: not a request
      "\n"                               // skipped: not a request
      "explore top=2\n",
      sopts, &stats);

  EXPECT_EQ(stats.num_requests, 5u);
  EXPECT_EQ(stats.num_errors, 2u);
  EXPECT_EQ(stats.num_truncated, 1u);
  EXPECT_GT(stats.wall_ms, 0);

  // The truncated reply advertises the reason in its header line.
  EXPECT_NE(out.find("#3 ok 0 truncated=deadline"), std::string::npos) << out;
  // Skipped lines consume no ids: the last request is #5.
  EXPECT_NE(out.find("#5 ok"), std::string::npos) << out;
  EXPECT_EQ(out.find("#6 "), std::string::npos) << out;
}

TEST_F(ServeEdgeTest, LongStreamMatchesSerialOutputAtFourThreads) {
  // A few thousand requests through the ordered-flush window: cheap verbs,
  // errors and expired deadlines finish out of order around the occasional
  // real explore, and the stream must still equal the 1-thread one byte for
  // byte.
  std::string requests;
  const std::string cfs = spade_->fact_sets().front().name;
  for (int i = 1; i <= 3000; ++i) {
    if (i % 100 == 0) {
      requests += "explore top=1 max-dims=1\n";
    } else if (i % 100 == 50) {
      requests += "explore cfs=" + cfs + " top=2 max-dims=1\n";
    } else {
      const char* cheap[] = {"stats\n", "list\n", "bogus\n",
                             "explore top=1 timeout=0\n"};
      requests += cheap[i % 4];
    }
  }
  persist::ServeOptions sopts;
  sopts.num_threads = 1;
  persist::ServeStats serial_stats;
  const std::string serial = Run(requests, sopts, &serial_stats);
  sopts.num_threads = 4;
  persist::ServeStats parallel_stats;
  const std::string parallel = Run(requests, sopts, &parallel_stats);
  EXPECT_EQ(serial_stats.num_requests, 3000u);
  EXPECT_EQ(parallel_stats.num_requests, 3000u);
  EXPECT_EQ(parallel_stats.num_errors, serial_stats.num_errors);
  EXPECT_NE(serial.find("#3000 ok 1\n"), std::string::npos);
  EXPECT_TRUE(serial == parallel);
}

TEST_F(ServeEdgeTest, ServerDeadlineCapsAndDefaultsRequestTimeouts) {
  persist::ServeOptions sopts;
  sopts.request_deadline_ms = 0.0001;  // effectively: everything truncates

  // Applied as the default when the request asks for nothing...
  std::string out = Run("explore top=1\n", sopts);
  EXPECT_NE(out.find("truncated=deadline"), std::string::npos) << out;

  // ...and as a cap when the request asks for more.
  out = Run("explore top=1 timeout=60000\n", sopts);
  EXPECT_NE(out.find("truncated=deadline"), std::string::npos) << out;

  // An explicit timeout below the cap is honored (0 = already expired is
  // the extreme case and must stay the client's own choice).
  sopts.request_deadline_ms = 60000;
  out = Run("explore top=1 timeout=0\n", sopts);
  EXPECT_NE(out.find("ok 0 truncated=deadline"), std::string::npos) << out;
}

}  // namespace
}  // namespace spade
