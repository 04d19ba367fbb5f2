// Tests of the TCP front end (src/net): protocol identity with pipe mode,
// admission control and load shedding, the connection failure domain
// (resets, injected I/O faults, SIGPIPE), backpressure against slow
// readers, idle defense, and the graceful-drain contract. This is the
// in-process half of the chaos suite; scripts/serve_chaos.py drives the
// same faults against the real spade_cli binary from outside.

#include "src/net/tcp_server.h"

#include <gtest/gtest.h>

#include <csignal>
#include <string>
#include <thread>
#include <vector>

#include "src/core/spade.h"
#include "src/datagen/synthetic.h"
#include "src/net/line_client.h"
#include "src/net/net_util.h"
#include "src/util/failpoint.h"

#if defined(SPADE_NET_POSIX)
#include <sys/socket.h>
#endif

namespace spade {
namespace {

#if !defined(SPADE_NET_POSIX)

TEST(NetTest, UnsupportedPlatformDegradesGracefully) {
  EXPECT_FALSE(net::Supported());
}

#else  // SPADE_NET_POSIX

SyntheticOptions SmallCorpus() {
  SyntheticOptions sopts;
  sopts.num_facts = 3000;
  sopts.dim_cardinality.assign(3, 20);
  sopts.num_measures = 3;
  sopts.num_fact_types = 3;
  return sopts;
}

SpadeOptions BaseOptions() {
  SpadeOptions options;
  options.cfs.min_size = 20;
  options.enumeration.max_dims = 3;
  options.enumeration.max_lattices_per_cfs = 8;
  options.enumeration.max_measures_per_lattice = 3;
  options.top_k = 8;
  return options;
}

/// One prepared pipeline shared by every test in the suite (building it is
/// the expensive part; the server only reads it).
class NetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = GenerateSynthetic(SmallCorpus()).release();
    spade_ = new Spade(graph_, BaseOptions());
    ASSERT_TRUE(spade_->RunOffline().ok());
    ASSERT_TRUE(spade_->PrepareFactSets().ok());
  }

  static void TearDownTestSuite() {
    delete spade_;
    spade_ = nullptr;
    delete graph_;
    graph_ = nullptr;
  }

  static net::TcpServerOptions Options() {
    net::TcpServerOptions opt;
    opt.listen.host = "127.0.0.1";
    opt.listen.port = 0;
    opt.serve.num_threads = 3;
    opt.install_signal_handlers = false;
    return opt;
  }

  static Graph* graph_;
  static Spade* spade_;
};

Graph* NetTest::graph_ = nullptr;
Spade* NetTest::spade_ = nullptr;

/// Runs a TcpServer on a background thread; Stop() drains and joins.
class TestServer {
 public:
  explicit TestServer(const Spade* spade, net::TcpServerOptions options)
      : server_(spade, std::move(options)) {}
  ~TestServer() { Stop(); }

  Status Start() {
    Status st = server_.Start();
    if (st.ok()) {
      thread_ = std::thread([this] { stats_ = server_.Run(); });
    }
    return st;
  }

  uint16_t port() const { return server_.port(); }
  void RequestShutdown() { server_.RequestShutdown(); }

  net::TcpServeStats Stop() {
    server_.RequestShutdown();
    if (thread_.joinable()) thread_.join();
    return stats_;
  }

 private:
  net::TcpServer server_;
  std::thread thread_;
  net::TcpServeStats stats_;
};

/// A raw (deliberately ill-behaved when asked) test client.
struct RawClient {
  int fd = -1;

  ~RawClient() { Close(); }

  void Connect(uint16_t port) {
    net::HostPort addr;
    addr.port = port;
    Result<int> r = net::ConnectTcp(addr, 2000);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    fd = *r;
  }

  bool Send(const std::string& bytes) {
    return net::SendAll(fd, bytes.data(), bytes.size(), 2000).ok();
  }

  /// Read until EOF (or per-read timeout), returning everything received.
  std::string ReadAll(double timeout_ms = 10000) {
    std::string all;
    char buf[4096];
    for (;;) {
      Result<size_t> n = net::RecvSome(fd, buf, sizeof(buf), timeout_ms);
      if (!n.ok() || *n == 0) return all;
      all.append(buf, *n);
    }
  }

  /// Read until `marker` has appeared `count` times (or timeout/EOF).
  std::string ReadUntil(const std::string& marker, size_t count,
                        double timeout_ms = 10000) {
    std::string all;
    char buf[4096];
    while (CountOf(all, marker) < count) {
      Result<size_t> n = net::RecvSome(fd, buf, sizeof(buf), timeout_ms);
      if (!n.ok() || *n == 0) break;
      all.append(buf, *n);
    }
    return all;
  }

  static size_t CountOf(const std::string& haystack,
                        const std::string& needle) {
    size_t count = 0;
    for (size_t pos = haystack.find(needle); pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size())) {
      ++count;
    }
    return count;
  }

  void Close() {
    net::CloseFd(fd);
    fd = -1;
  }

  /// Close with an RST instead of FIN: what a crashing client looks like.
  void Reset() {
    if (fd < 0) return;
    struct linger lg;
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    Close();
  }
};

// --- Protocol identity ------------------------------------------------------

TEST_F(NetTest, TcpByteStreamIdenticalToPipeMode) {
  const std::string oversized(200, 'x');
  std::string requests;
  requests += "stats\r\n";  // CRLF client
  requests += "list\n";
  requests += "explore top=3\n";
  requests += "explore top=2 interestingness=skewness\n";
  requests += "explore cfs=bogus\n";
  requests += "not-a-command\n";
  requests += oversized + "\n";
  requests += "# a comment, skipped\n";
  requests += "\n";
  requests += "explore top=1 timeout=0\n";  // already-expired: truncated
  requests += "explore top=2 max-dims=2 min-support=0.2\n";
  requests += "quit\n";
  requests += "explore top=1\n";  // after quit: never evaluated

  persist::ServeOptions sopts;
  sopts.num_threads = 3;
  sopts.max_line_bytes = 64;

  // The reference bytes, from the pipe front end.
  persist::InsightServer pipe_server(spade_, sopts);
  std::istringstream in(requests);
  std::ostringstream out;
  persist::ServeStats pipe_stats = pipe_server.Serve(in, out);
  const std::string expected = out.str();
  ASSERT_NE(expected.find("#7 error: request line too long (200 bytes"),
            std::string::npos)
      << expected;
  ASSERT_NE(expected.find("truncated=deadline"), std::string::npos);

  // The same bytes over TCP, through the same HandleLine core. Caps are
  // raised so the whole pipelined burst is admitted — shedding behavior
  // (deliberately different from pipe mode's blocking backpressure) is
  // covered by the busy tests below.
  net::TcpServerOptions topt = Options();
  topt.serve.max_line_bytes = 64;
  topt.max_inflight = 64;
  topt.max_inflight_per_connection = 64;
  TestServer server(spade_, topt);
  ASSERT_TRUE(server.Start().ok());
  RawClient client;
  ASSERT_NO_FATAL_FAILURE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send(requests));
  const std::string got = client.ReadAll();  // quit closes the connection
  EXPECT_EQ(expected, got);

  net::TcpServeStats stats = server.Stop();
  EXPECT_EQ(stats.serve.num_requests, pipe_stats.num_requests);
  EXPECT_EQ(stats.serve.num_errors, pipe_stats.num_errors);
  EXPECT_EQ(stats.serve.num_truncated, pipe_stats.num_truncated);
  EXPECT_EQ(stats.num_connections, 1u);
  EXPECT_EQ(stats.num_requests_shed, 0u);
  EXPECT_TRUE(stats.drained_clean);
}

TEST_F(NetTest, EofWithoutQuitAnswersEverythingAdmitted) {
  TestServer server(spade_, Options());
  ASSERT_TRUE(server.Start().ok());
  RawClient client;
  ASSERT_NO_FATAL_FAILURE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send("stats\nlist\n"));
  ::shutdown(client.fd, SHUT_WR);  // half-close: EOF, requests stay answered
  const std::string got = client.ReadAll();
  EXPECT_EQ(RawClient::CountOf(got, "end\n"), 2u) << got;
  net::TcpServeStats stats = server.Stop();
  EXPECT_EQ(stats.serve.num_requests, 2u);
}

// --- Admission control and shedding ----------------------------------------

TEST_F(NetTest, PipelinedBurstBeyondInflightCapShedsWithBusy) {
  net::TcpServerOptions topt = Options();
  topt.max_inflight_per_connection = 1;  // admit one, shed the burst
  TestServer server(spade_, topt);
  ASSERT_TRUE(server.Start().ok());

  // Eight requests in one segment: the loop parses them in one sweep while
  // the first is still on a worker, so the cap must shed (no queueing).
  std::string burst;
  for (int i = 0; i < 8; ++i) burst += "explore top=8\n";
  RawClient client;
  ASSERT_NO_FATAL_FAILURE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send(burst));

  // Every request id answers exactly once: `ok ...end` or `busy`.
  std::string got;
  auto all_answered = [&got] {
    for (int id = 1; id <= 8; ++id) {
      const std::string prefix = "#" + std::to_string(id) + " ";
      if (got.find(prefix + "busy\n") == std::string::npos &&
          got.find(prefix + "end\n") == std::string::npos) {
        return false;
      }
    }
    return true;
  };
  char buf[4096];
  while (!all_answered()) {
    Result<size_t> n = net::RecvSome(client.fd, buf, sizeof(buf), 10000);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_GT(*n, 0u) << "server closed early:\n" << got;
    got.append(buf, *n);
  }
  client.Send("quit\n");
  net::TcpServeStats stats = server.Stop();
  EXPECT_GE(stats.num_requests_shed, 1u);
  EXPECT_EQ(stats.num_requests_shed + stats.serve.num_requests, 8u);
  EXPECT_TRUE(stats.drained_clean);
}

TEST_F(NetTest, ConnectionsBeyondCapAreShedAtAccept) {
  net::TcpServerOptions topt = Options();
  topt.max_connections = 1;
  TestServer server(spade_, topt);
  ASSERT_TRUE(server.Start().ok());

  RawClient first;
  ASSERT_NO_FATAL_FAILURE(first.Connect(server.port()));
  ASSERT_TRUE(first.Send("stats\n"));
  ASSERT_EQ(RawClient::CountOf(first.ReadUntil("end\n", 1), "end\n"), 1u);

  RawClient second;  // over the cap: one `busy` line, then close
  ASSERT_NO_FATAL_FAILURE(second.Connect(server.port()));
  EXPECT_EQ(second.ReadAll(), "busy\n");

  // The admitted connection is unaffected.
  ASSERT_TRUE(first.Send("list\n"));
  EXPECT_EQ(RawClient::CountOf(first.ReadUntil("end\n", 1), "end\n"), 1u);

  net::TcpServeStats stats = server.Stop();
  EXPECT_EQ(stats.num_connections, 1u);
  EXPECT_EQ(stats.num_connections_shed, 1u);
}

TEST_F(NetTest, LineClientRetriesBusyUntilAdmitted) {
  net::TcpServerOptions topt = Options();
  topt.max_connections = 1;
  TestServer server(spade_, topt);
  ASSERT_TRUE(server.Start().ok());

  // Hold the only admitted slot, then let a LineClient fight its way in.
  RawClient hog;
  ASSERT_NO_FATAL_FAILURE(hog.Connect(server.port()));
  ASSERT_TRUE(hog.Send("stats\n"));
  ASSERT_EQ(RawClient::CountOf(hog.ReadUntil("end\n", 1), "end\n"), 1u);

  net::LineClientOptions copt;
  copt.server.port = server.port();
  copt.backoff_base_ms = 10;
  copt.max_attempts = 50;
  net::LineClient client(copt);

  std::thread release([&hog] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    hog.Send("quit\n");
    hog.ReadAll(2000);  // drain until the server closes the connection
  });
  Result<std::string> reply = client.Request("stats");
  release.join();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->rfind("ok\n", 0), 0u) << *reply;
  EXPECT_GE(client.stats().num_busy, 1u);
  EXPECT_GE(client.stats().num_retries, 1u);
}

// --- Failure domain: one connection ----------------------------------------

TEST_F(NetTest, ClientResetMidResponseClosesOnlyThatConnection) {
  TestServer server(spade_, Options());
  ASSERT_TRUE(server.Start().ok());

  RawClient victim;
  ASSERT_NO_FATAL_FAILURE(victim.Connect(server.port()));
  ASSERT_TRUE(victim.Send("explore top=8\nexplore top=8\n"));
  victim.Reset();  // RST with replies (about to be) in flight

  // The server must shrug it off and keep serving everyone else.
  RawClient witness;
  ASSERT_NO_FATAL_FAILURE(witness.Connect(server.port()));
  ASSERT_TRUE(witness.Send("stats\nquit\n"));
  const std::string got = witness.ReadAll();
  EXPECT_EQ(RawClient::CountOf(got, "end\n"), 1u) << got;

  net::TcpServeStats stats = server.Stop();
  EXPECT_EQ(stats.num_connections, 2u);
  EXPECT_TRUE(stats.drained_clean);
}

TEST_F(NetTest, SigpipeIsSuppressedOnDeadSocketWrites) {
  // A raw write to a peer-closed socket raises SIGPIPE and kills the
  // process by default; the net layer must turn it into a Status instead
  // (MSG_NOSIGNAL plus the scoped process-wide suppression for platforms
  // without it). If suppression regressed, this test dies rather than
  // failing an expectation.
  net::ScopedIgnoreSigpipe guard;
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  net::CloseFd(sv[1]);
  const char byte = 'x';
  // First send may land in the dead peer's buffer; the second gets EPIPE.
  (void)net::SendSome(sv[0], &byte, 1);
  Result<size_t> second = net::SendSome(sv[0], &byte, 1);
  EXPECT_FALSE(second.ok());
  net::CloseFd(sv[0]);
}

TEST_F(NetTest, SlowReaderIsBackpressuredNotDropped) {
  net::TcpServerOptions topt = Options();
  topt.max_connection_output_bytes = 256;  // force the pause path
  TestServer server(spade_, topt);
  ASSERT_TRUE(server.Start().ok());

  RawClient client;
  ASSERT_NO_FATAL_FAILURE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send("explore top=8\nlist\nexplore top=8\nstats\n"));
  // Don't read yet: let responses pile into the (tiny) output budget.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  // Now drain: every block must arrive complete and in request order.
  const std::string got = client.ReadUntil("end\n", 4);
  EXPECT_EQ(RawClient::CountOf(got, "end\n"), 4u) << got;
  const size_t first = got.find("#1 ");
  const size_t last = got.rfind("#4 ");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(last, std::string::npos);
  EXPECT_LT(first, last);
  client.Send("quit\n");
  net::TcpServeStats stats = server.Stop();
  EXPECT_EQ(stats.serve.num_requests, 4u);
  EXPECT_EQ(stats.num_io_errors, 0u);
}

TEST_F(NetTest, IdleConnectionsAreClosed) {
  net::TcpServerOptions topt = Options();
  topt.idle_timeout_ms = 100;
  TestServer server(spade_, topt);
  ASSERT_TRUE(server.Start().ok());

  RawClient slowloris;
  ASSERT_NO_FATAL_FAILURE(slowloris.Connect(server.port()));
  // Never send a newline; the server must not hold the socket forever.
  ASSERT_TRUE(slowloris.Send("explo"));
  EXPECT_EQ(slowloris.ReadAll(5000), "");  // closed without a reply

  net::TcpServeStats stats = server.Stop();
  EXPECT_EQ(stats.num_idle_closed, 1u);
  EXPECT_EQ(stats.serve.num_requests, 0u);
}

TEST_F(NetTest, TimersPastTheClockRangeNeverFire) {
  // 1e10 ms overflows the poll timeout's int, 1e13 ms the clock itself.
  for (double idle_ms : {1e10, 1e13}) {
    SCOPED_TRACE("idle_timeout_ms = " + std::to_string(idle_ms));
    net::TcpServerOptions topt = Options();
    topt.idle_timeout_ms = idle_ms;
    topt.drain_deadline_ms = 1e13;
    TestServer server(spade_, topt);
    ASSERT_TRUE(server.Start().ok());

    RawClient client;
    ASSERT_NO_FATAL_FAILURE(client.Connect(server.port()));
    ASSERT_TRUE(client.Send("stats\n"));
    ASSERT_EQ(RawClient::CountOf(client.ReadUntil("end\n", 1), "end\n"), 1u);
    server.RequestShutdown();
    EXPECT_EQ(client.ReadAll(), "");
    net::TcpServeStats stats = server.Stop();
    EXPECT_TRUE(stats.drained_clean);
    EXPECT_EQ(stats.serve.num_requests, 1u);
    EXPECT_EQ(stats.num_idle_closed, 0u);
  }
}

// --- Graceful drain ---------------------------------------------------------

TEST_F(NetTest, ShutdownDrainsInFlightRepliesBeforeClosing) {
  TestServer server(spade_, Options());
  ASSERT_TRUE(server.Start().ok());

  RawClient client;
  ASSERT_NO_FATAL_FAILURE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send("explore top=8\nexplore top=4\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.RequestShutdown();

  // Both admitted requests answer in full, then the server closes.
  const std::string got = client.ReadAll();
  EXPECT_EQ(RawClient::CountOf(got, "end\n"), 2u) << got;
  net::TcpServeStats stats = server.Stop();
  EXPECT_EQ(stats.serve.num_requests, 2u);
  EXPECT_TRUE(stats.drained_clean);
}

TEST_F(NetTest, SigtermTriggersGracefulDrain) {
  net::TcpServerOptions topt = Options();
  topt.install_signal_handlers = true;
  TestServer server(spade_, topt);
  ASSERT_TRUE(server.Start().ok());

  RawClient client;
  ASSERT_NO_FATAL_FAILURE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send("stats\n"));
  ASSERT_EQ(RawClient::CountOf(client.ReadUntil("end\n", 1), "end\n"), 1u);

  std::raise(SIGTERM);  // the installed handler must drain, not kill, us
  EXPECT_EQ(client.ReadAll(), "");  // server closed the connection
  net::TcpServeStats stats = server.Stop();
  EXPECT_TRUE(stats.drained_clean);
  EXPECT_EQ(stats.serve.num_requests, 1u);
}

// --- Injected I/O faults (the failpoint chaos tier) -------------------------

#if defined(SPADE_FAILPOINTS)

class NetFailpointTest : public NetTest {
 protected:
  void TearDown() override { fail::Reset(); }
};

TEST_F(NetFailpointTest, InjectedReadFaultCostsOneConnection) {
  TestServer server(spade_, Options());
  ASSERT_TRUE(server.Start().ok());
  // Warm the read path so the site is registered, then arm it.
  RawClient warm;
  ASSERT_NO_FATAL_FAILURE(warm.Connect(server.port()));
  ASSERT_TRUE(warm.Send("stats\nquit\n"));
  warm.ReadAll();

  ASSERT_TRUE(fail::Configure("serve.read=error").ok());
  RawClient victim;
  ASSERT_NO_FATAL_FAILURE(victim.Connect(server.port()));
  victim.Send("stats\n");
  EXPECT_EQ(victim.ReadAll(5000), "");  // closed without a reply

  ASSERT_TRUE(fail::Configure("serve.read=off").ok());
  RawClient witness;
  ASSERT_NO_FATAL_FAILURE(witness.Connect(server.port()));
  ASSERT_TRUE(witness.Send("stats\nquit\n"));
  EXPECT_EQ(RawClient::CountOf(witness.ReadAll(), "end\n"), 1u);

  net::TcpServeStats stats = server.Stop();
  EXPECT_GE(stats.num_io_errors, 1u);
  EXPECT_TRUE(stats.drained_clean);
}

TEST_F(NetFailpointTest, InjectedWriteFaultCostsOneConnection) {
  TestServer server(spade_, Options());
  ASSERT_TRUE(server.Start().ok());
  RawClient warm;
  ASSERT_NO_FATAL_FAILURE(warm.Connect(server.port()));
  ASSERT_TRUE(warm.Send("stats\nquit\n"));
  warm.ReadAll();

  ASSERT_TRUE(fail::Configure("serve.write=error").ok());
  RawClient victim;
  ASSERT_NO_FATAL_FAILURE(victim.Connect(server.port()));
  victim.Send("stats\n");
  EXPECT_EQ(victim.ReadAll(5000), "");  // reply write failed; closed

  ASSERT_TRUE(fail::Configure("serve.write=off").ok());
  RawClient witness;
  ASSERT_NO_FATAL_FAILURE(witness.Connect(server.port()));
  ASSERT_TRUE(witness.Send("list\nquit\n"));
  EXPECT_EQ(RawClient::CountOf(witness.ReadAll(), "end\n"), 1u);

  net::TcpServeStats stats = server.Stop();
  EXPECT_GE(stats.num_io_errors, 1u);
  EXPECT_TRUE(stats.drained_clean);
}

TEST_F(NetFailpointTest, InjectedAcceptFaultKeepsTheServerAlive) {
  TestServer server(spade_, Options());
  ASSERT_TRUE(server.Start().ok());
  RawClient warm;
  ASSERT_NO_FATAL_FAILURE(warm.Connect(server.port()));
  ASSERT_TRUE(warm.Send("stats\nquit\n"));
  warm.ReadAll();

  ASSERT_TRUE(fail::Configure("serve.accept=error:1").ok());
  // The first accept sweep for this connection fails; the connection stays
  // queued and the next sweep picks it up — the fault costs a retry, never
  // the listener.
  RawClient unlucky;
  ASSERT_NO_FATAL_FAILURE(unlucky.Connect(server.port()));
  ASSERT_TRUE(unlucky.Send("stats\nquit\n"));
  EXPECT_EQ(RawClient::CountOf(unlucky.ReadAll(), "end\n"), 1u);

  ASSERT_TRUE(fail::Configure("serve.accept=off").ok());
  RawClient witness;
  ASSERT_NO_FATAL_FAILURE(witness.Connect(server.port()));
  ASSERT_TRUE(witness.Send("stats\nquit\n"));
  EXPECT_EQ(RawClient::CountOf(witness.ReadAll(), "end\n"), 1u);

  net::TcpServeStats stats = server.Stop();
  EXPECT_GE(stats.num_io_errors, 1u);
  EXPECT_TRUE(stats.drained_clean);
}

TEST_F(NetFailpointTest, RequestEvaluationFaultAnswersErrorBlock) {
  // A fault inside evaluation is a REQUEST failure, not a connection one:
  // the client gets an `error:` block and the session keeps going.
  TestServer server(spade_, Options());
  ASSERT_TRUE(server.Start().ok());
  RawClient client;
  ASSERT_NO_FATAL_FAILURE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send("stats\n"));  // registers serve.request
  ASSERT_EQ(RawClient::CountOf(client.ReadUntil("end\n", 1), "end\n"), 1u);

  // Arm and fire sequentially (concurrent requests would race for the
  // one-shot hit): the faulted request errors, the next one succeeds.
  ASSERT_TRUE(fail::Configure("serve.request=throw:1").ok());
  ASSERT_TRUE(client.Send("explore top=1\n"));
  const std::string faulted = client.ReadUntil("fired\n", 1);
  EXPECT_NE(faulted.find("#2 error: internal error: failpoint"),
            std::string::npos)
      << faulted;
  ASSERT_TRUE(client.Send("stats\nquit\n"));
  const std::string got = client.ReadAll();
  EXPECT_NE(got.find("#3 ok"), std::string::npos) << got;

  net::TcpServeStats stats = server.Stop();
  EXPECT_EQ(stats.num_io_errors, 0u);
  EXPECT_EQ(stats.serve.num_errors, 1u);
}

#endif  // SPADE_FAILPOINTS

#endif  // SPADE_NET_POSIX

}  // namespace
}  // namespace spade
