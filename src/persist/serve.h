#ifndef SPADE_PERSIST_SERVE_H_
#define SPADE_PERSIST_SERVE_H_

#include <cstdint>
#include <iosfwd>
#include <shared_mutex>
#include <string>

#include "src/core/spade.h"
#include "src/exec/thread_pool.h"
#include "src/util/cancel.h"
#include "src/util/status.h"

namespace spade {
namespace persist {

/// Serve-loop knobs, shared by the pipe front end (Serve below) and the TCP
/// front end (net::TcpServer), which answer the same request grammar through
/// the same HandleLine core.
struct ServeOptions {
  /// Worker threads shared by all in-flight requests: 0 = hardware
  /// concurrency, 1 = serial.
  size_t num_threads = 1;
  /// Echo each request line into the output as a comment (request logs).
  bool echo = false;
  /// Longest request line accepted; longer lines get an `error:` response
  /// without being parsed (a malformed or hostile client cannot make the
  /// server buffer unboundedly per request). 0 = unlimited.
  size_t max_line_bytes = 64 * 1024;
  /// Server-imposed per-request deadline in ms: when > 0, an explore request
  /// without an explicit timeout= gets this deadline, and a request asking
  /// for more is clamped down to it (one runaway request cannot hold a
  /// worker forever). 0 = requests run untimed unless they ask otherwise.
  double request_deadline_ms = 0;
  /// Refuse `apply` / `compact` even when the server was constructed with a
  /// mutable pipeline (--read-only). Servers built over a const pipeline
  /// are implicitly read-only regardless.
  bool read_only = false;
};

/// What a serve session processed.
struct ServeStats {
  uint64_t num_requests = 0;
  uint64_t num_errors = 0;
  uint64_t num_truncated = 0;  ///< deadline/budget-truncated explore replies
  double wall_ms = 0;
};

/// \brief The long-lived explore loop over a prepared pipeline: build (or
/// load) once, answer many exploration requests.
///
/// Protocol: one request per input line, one response block per request,
/// blocks emitted in request order. Every response line is prefixed with
/// `#<id> ` (ids count from 1). Lines that are empty or start with '#' are
/// skipped; "quit" / "exit" ends the session.
///
///   explore [cfs=NAME[,NAME...]] [top=K] [interestingness=variance|skewness|
///           kurtosis] [algorithm=mvdcube|pgcube|pgcube-distinct|arraycube]
///           [earlystop=on|off] [max-dims=1..4] [min-support=R]
///       -> `ok <n>` then one line per insight:
///          `<rank> <score> <cfs_name> <description>` then `end`
///   list    -> `ok <n>` then `<name> <size>` per fact set, then `end`
///   stats   -> `ok` then dataset counters, then `end`
///   apply [add=FILE] [retract=FILE]
///       -> mutate the graph from server-local N-Triples files (mutable
///          servers only): `ok added=... removed=... noop_adds=...
///          noop_retracts=... attrs_changed=... cfs=... cfs_reused=...`
///          then `end`. Runs exclusively: in-flight explores finish first,
///          later ones see the post-delta state.
///   compact -> reseal the store (Spade::Compact); `ok triples=... attrs=...
///          cfs=...` then `end`. Mutable servers only.
///
/// Requests are evaluated concurrently on one scheduler (Spade::Explore is
/// const and request-local), but responses are buffered and flushed strictly
/// in request order, and contain no timings — so the byte stream is
/// identical at every thread count.
class InsightServer {
 public:
  /// `spade` must have completed RunOffline() and PrepareFactSets() and must
  /// outlive the server. A server built this way is read-only: `apply` and
  /// `compact` answer with an error.
  InsightServer(const Spade* spade, ServeOptions options);

  /// Mutable pipeline: `apply` / `compact` requests are accepted (unless
  /// ServeOptions::read_only). Mutations run under a writer lock excluding
  /// every read request, so concurrent explores always see a consistent
  /// pipeline — never a half-applied delta.
  InsightServer(Spade* spade, ServeOptions options);

  /// Read requests from `in` until EOF or "quit", writing response blocks to
  /// `out`. Returns the session stats (a request that produces an `error:`
  /// response still counts as processed).
  ServeStats Serve(std::istream& in, std::ostream& out);

  /// The shared request core: evaluate one request line into a response
  /// block (no trailing newline handling beyond line granularity; no `#<id>`
  /// prefixes yet). Both front ends — the pipe loop above and the TCP server
  /// in src/net — call exactly this, so for the same request sequence the
  /// two modes produce identical response bytes by construction. Never
  /// throws: evaluation failures — injected faults and allocation failure
  /// included — come back as an `error:` block so one bad request cannot
  /// take the session down. `cancel` (nullable, borrowed) joins any
  /// per-request timeout=: the TCP front end passes its drain token so a
  /// shutting-down server can cut in-flight requests over to truncated
  /// replies once the drain deadline passes.
  std::string HandleLine(const std::string& line, TaskScheduler* scheduler,
                         CancelToken* cancel, bool* is_error,
                         bool* truncated) const;

  const ServeOptions& options() const { return options_; }

 private:
  const Spade* spade_;
  /// Non-null iff constructed with a mutable pipeline.
  Spade* mutable_spade_ = nullptr;
  ServeOptions options_;
  /// Readers (explore/list/stats) vs writers (apply/compact). Only taken at
  /// HandleLine granularity — nested evaluation tasks never touch it, so a
  /// blocked writer cannot deadlock an explore's fan-out (the exploring
  /// thread participates in its own ParallelFor).
  mutable std::shared_mutex state_mu_;
};

/// Render one finished response: every line of `body` prefixed with
/// "#<id> ", preceded (when `echo`) by the echoed request line in the same
/// framing. The single block-formatting path for both front ends.
std::string FormatResponseBlock(uint64_t id, const std::string& request,
                                const std::string& body, bool echo);

/// The `error:` body answering a request line that exceeded
/// ServeOptions::max_line_bytes (answered without being parsed or echoed).
std::string OversizedLineBody(size_t line_bytes, size_t limit);

}  // namespace persist
}  // namespace spade

#endif  // SPADE_PERSIST_SERVE_H_
