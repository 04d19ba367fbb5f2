#ifndef SPADE_NET_TCP_SERVER_H_
#define SPADE_NET_TCP_SERVER_H_

/// \file tcp_server.h
/// \brief The hardened TCP front end for the insight server.
///
/// A poll-driven, single-event-loop, multi-client TCP server speaking the
/// exact line protocol of the pipe-mode serve loop: requests evaluate
/// concurrently on one shared TaskScheduler through the same
/// InsightServer::HandleLine core, and each connection's response blocks
/// flush strictly in that connection's request order — so for the same
/// request sequence a connection reads byte-for-byte what pipe mode would
/// have written.
///
/// Robustness model (the reason this class exists):
///
///  - Admission control, not queues. A connection beyond max_connections is
///    answered with a single `busy` line and closed; a request beyond the
///    global or per-connection inflight cap is answered with a `#<id> busy`
///    block immediately. Nothing is ever queued unboundedly; clients retry
///    with backoff (net::LineClient does).
///  - Failure domain = one connection. Peer resets, EPIPE, partial writes,
///    oversized or torn request lines, and injected `serve.accept` /
///    `serve.read` / `serve.write` faults close (at most) the one affected
///    connection. SIGPIPE is suppressed for the duration of Run().
///  - Slow or dead clients cannot wedge the loop: all sockets are
///    non-blocking, responses buffer per connection with a byte cap that
///    pauses reading from that connection (backpressure) until the peer
///    drains, and connections with no progress for idle_timeout_ms are
///    closed. The evaluation threads never touch a socket.
///  - Graceful drain. SIGTERM/SIGINT (or RequestShutdown()) stops accepting
///    and stops reading; in-flight requests keep evaluating until
///    drain_deadline_ms, then their per-request CancelTokens cut them over
///    to truncated replies; everything flushed is flushed before Run
///    returns. (Tokens are per request, never shared: a deadline expiry
///    latches into the token it is checked against, and one request's
///    timeout must not truncate its neighbours.)

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/net/net_util.h"
#include "src/persist/serve.h"

namespace spade {
namespace net {

struct TcpServerOptions {
  /// Bind address; port 0 = ephemeral (read the bound port via port()).
  HostPort listen;
  /// Request-core knobs shared with pipe mode (threads, echo,
  /// max_line_bytes, request_deadline_ms, read_only).
  persist::ServeOptions serve;
  /// Connections beyond this are answered `busy` and closed at accept.
  size_t max_connections = 64;
  /// Global cap on concurrently evaluating requests; 0 = twice the resolved
  /// worker-thread count. Beyond it, requests shed with `#<id> busy`.
  size_t max_inflight = 0;
  /// Per-connection cap on concurrently evaluating requests (bounds how far
  /// one client can pipeline); beyond it, `#<id> busy`.
  size_t max_inflight_per_connection = 8;
  /// Close a connection with no read/write progress and nothing in flight
  /// for this long (slowloris defense). 0 = never.
  double idle_timeout_ms = 300000;
  /// After a shutdown request: how long in-flight requests may keep
  /// evaluating before the drain token cancels them. The loop exits as soon
  /// as everything in flight has answered and flushed, and no later than
  /// twice this deadline.
  double drain_deadline_ms = 2000;
  /// Pause reading from a connection whose pending response bytes exceed
  /// this (a slow reader pipelining requests cannot balloon memory).
  size_t max_connection_output_bytes = 4 << 20;
  /// Install SIGTERM/SIGINT handlers for the duration of Run() that trigger
  /// the graceful drain (the CLI wants this; in-process tests may prefer
  /// RequestShutdown()).
  bool install_signal_handlers = true;
};

/// What one Run() processed, over all connections.
struct TcpServeStats {
  persist::ServeStats serve;  ///< requests evaluated (incl. error replies)
  uint64_t num_connections = 0;       ///< accepted and served
  uint64_t num_connections_shed = 0;  ///< `busy`-and-closed at accept
  uint64_t num_requests_shed = 0;     ///< `#<id> busy` replies (not evaluated)
  uint64_t num_io_errors = 0;   ///< connections closed on a read/write fault
  uint64_t num_idle_closed = 0;
  /// True when shutdown answered and flushed every in-flight request before
  /// the hard stop (the drain contract held).
  bool drained_clean = false;
};

class TcpServer {
 public:
  /// `spade` must have completed RunOffline() and PrepareFactSets() and must
  /// outlive the server. A server built over a const pipeline is read-only:
  /// `apply` / `compact` requests answer with an error.
  TcpServer(const Spade* spade, TcpServerOptions options);

  /// Mutable pipeline: `apply` / `compact` requests are accepted (unless
  /// ServeOptions::read_only). See persist::InsightServer for the locking
  /// contract.
  TcpServer(Spade* spade, TcpServerOptions options);

  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Bind + listen. Separate from Run() so callers can learn the ephemeral
  /// port (and report "listening on ...") before blocking in the loop.
  Status Start();

  /// The bound port; valid after a successful Start().
  uint16_t port() const { return options_.listen.port; }

  /// The event loop: serves until a shutdown is requested, then drains.
  /// Returns session stats. Calls Start() itself if not yet started.
  TcpServeStats Run();

  /// Thread-safe (and wired to SIGTERM/SIGINT inside Run): begin the
  /// graceful drain. Safe to call before Run(), which then drains
  /// immediately after flushing nothing.
  void RequestShutdown();

 private:
  struct Impl;

  const Spade* spade_;
  TcpServerOptions options_;
  persist::InsightServer core_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace net
}  // namespace spade

#endif  // SPADE_NET_TCP_SERVER_H_
