#ifndef SPADE_E2EBENCH_E2E_LOADGEN_H_
#define SPADE_E2EBENCH_E2E_LOADGEN_H_

/// \file loadgen.h
/// \brief The serve workloads' client: one thread, a few pipelined TCP
/// connections, open- or closed-loop request schedules, and an optional
/// churn writer on a connection of its own.
///
/// Requests never exceed a fixed window per connection, sized so the total
/// stays within the server's admission cap: the generator behaves like a
/// client that knows the cap instead of provoking `busy` replies. In an open
/// loop a request that finds the window full waits, and its latency still
/// counts from when it was due, so a stall shows in the latency of every
/// request it delays. Replies are never retried.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "src/net/net_util.h"
#include "src/util/status.h"

namespace spade {
namespace e2e {

struct LoadRequest {
  std::string line;
  double due_ms = 0;  ///< open loop: send time after the phase starts
};

/// A writer beside the reads: every `period_ms` it sends the next `apply`
/// line (cycling), and right after each apply reply it sends `explore`.
struct ChurnPlan {
  double period_ms = 1500;
  std::vector<std::string> applies;
  std::string explore;
};

struct PhaseResult {
  /// Per read request sent, in request order: latency (from the due time
  /// in an open loop, from the send in a closed one) and the reply body
  /// with the `#<id> ` framing stripped.
  std::vector<double> latency_ms;
  std::vector<std::string> bodies;
  std::vector<double> lag_ms;  ///< open loop: send time minus due time
  double wall_ms = 0;          ///< first send to last reply
  /// Churn cycles: apply round trip, apply-sent to explore-reply, bodies.
  std::vector<double> apply_ms;
  std::vector<double> fresh_ms;
  std::vector<std::string> apply_bodies;
  std::vector<std::string> fresh_bodies;
};

class LoadGen {
 public:
  LoadGen();
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Opens `read_connections` connections for reads, plus one for the
  /// churn writer when `churn_connection`.
  Status Connect(const net::HostPort& server, size_t read_connections,
                 bool churn_connection);

  /// Runs one phase to completion: every request answered and the churn
  /// writer (when given) idle. A transport failure aborts the phase.
  Result<PhaseResult> Run(const std::vector<LoadRequest>& requests,
                          bool open_loop, size_t window_per_connection,
                          const ChurnPlan* churn);

 private:
  struct Conn;
  std::vector<std::unique_ptr<Conn>> reads_;
  std::unique_ptr<Conn> churn_;
};

}  // namespace e2e
}  // namespace spade

#endif  // SPADE_E2EBENCH_E2E_LOADGEN_H_
