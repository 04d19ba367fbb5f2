#include "e2e/loadgen.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <deque>
#include <limits>

namespace spade {
namespace e2e {

namespace {

constexpr int64_t kApplyTag = -1;
constexpr int64_t kExploreTag = -2;

bool EndsBlock(const std::string& line) {
  return line == "end" || line == "busy" || line.rfind("error:", 0) == 0;
}

}  // namespace

struct LoadGen::Conn {
  struct Pending {
    int64_t tag = 0;  ///< read index, or kApplyTag / kExploreTag
    double start_ms = 0;
  };

  int fd = -1;
  std::string out;   ///< bytes not yet sent
  std::string in;    ///< bytes not yet parsed
  std::string body;  ///< the reply block being assembled, framing stripped
  uint64_t next_reply_id = 1;  ///< the server numbers replies per connection
  std::deque<Pending> pending;

  Conn() = default;
  ~Conn() {
    if (fd >= 0) net::CloseFd(fd);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
};

LoadGen::LoadGen() = default;
LoadGen::~LoadGen() = default;

Status LoadGen::Connect(const net::HostPort& server, size_t read_connections,
                        bool churn_connection) {
  auto open = [&server](std::unique_ptr<Conn>* out) -> Status {
    auto conn = std::make_unique<Conn>();
    auto fd = net::ConnectTcp(server, /*timeout_ms=*/5000);
    SPADE_RETURN_NOT_OK(fd.status());
    conn->fd = *fd;
    SPADE_RETURN_NOT_OK(net::SetNonBlocking(conn->fd));
    *out = std::move(conn);
    return Status::OK();
  };
  for (size_t i = 0; i < read_connections; ++i) {
    reads_.emplace_back();
    SPADE_RETURN_NOT_OK(open(&reads_.back()));
  }
  if (churn_connection) SPADE_RETURN_NOT_OK(open(&churn_));
  return Status::OK();
}

Result<PhaseResult> LoadGen::Run(const std::vector<LoadRequest>& requests,
                                 bool open_loop, size_t window_per_connection,
                                 const ChurnPlan* churn) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  auto now_ms = [t0] {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  };
  if (churn != nullptr && (churn_ == nullptr || churn->applies.empty())) {
    return Status::InvalidArgument("churn plan without a churn connection");
  }

  const size_t n = requests.size();
  PhaseResult r;
  r.latency_ms.assign(n, 0);
  r.bodies.assign(n, "");
  size_t next = 0;
  size_t done = 0;
  double first_send = -1;
  double last_reply = 0;

  enum class ChurnState { kIdle, kWaitApply, kWaitExplore };
  ChurnState churn_state = ChurnState::kIdle;
  size_t cycle = 0;
  double apply_sent = 0;
  double next_apply_due =
      churn != nullptr ? churn->period_ms : std::numeric_limits<double>::max();

  std::vector<Conn*> conns;
  for (auto& c : reads_) conns.push_back(c.get());
  if (churn_ != nullptr) conns.push_back(churn_.get());

  // Completes the front request of `c` with the assembled body.
  auto complete = [&](Conn* c, double t) {
    const Conn::Pending p = c->pending.front();
    c->pending.pop_front();
    std::string body = std::move(c->body);
    c->body.clear();
    if (p.tag >= 0) {
      r.latency_ms[static_cast<size_t>(p.tag)] = t - p.start_ms;
      r.bodies[static_cast<size_t>(p.tag)] = std::move(body);
      ++done;
      last_reply = t;
    } else if (p.tag == kApplyTag) {
      r.apply_ms.push_back(t - apply_sent);
      r.apply_bodies.push_back(std::move(body));
      c->out += churn->explore + "\n";
      c->pending.push_back({kExploreTag, t});
      churn_state = ChurnState::kWaitExplore;
    } else {
      r.fresh_ms.push_back(t - apply_sent);
      r.fresh_bodies.push_back(std::move(body));
      churn_state = ChurnState::kIdle;
      ++cycle;
      next_apply_due = churn->period_ms * static_cast<double>(cycle + 1);
    }
  };

  std::vector<pollfd> fds(conns.size());
  char buf[64 * 1024];
  while (true) {
    const double now = now_ms();
    while (next < n) {
      const double due = open_loop ? requests[next].due_ms : now;
      if (due > now) break;
      Conn* target = nullptr;
      for (auto& c : reads_) {
        if (c->pending.size() < window_per_connection &&
            (target == nullptr || c->pending.size() < target->pending.size())) {
          target = c.get();
        }
      }
      if (target == nullptr) break;  // window full: the request waits
      target->out += requests[next].line + "\n";
      target->pending.push_back({static_cast<int64_t>(next), due});
      if (open_loop) r.lag_ms.push_back(now - due);
      if (first_send < 0) first_send = now;
      ++next;
    }
    if (churn != nullptr && churn_state == ChurnState::kIdle && done < n &&
        now >= next_apply_due) {
      churn_->out += churn->applies[cycle % churn->applies.size()] + "\n";
      churn_->pending.push_back({kApplyTag, now});
      apply_sent = now;
      churn_state = ChurnState::kWaitApply;
    }
    if (done == n && churn_state == ChurnState::kIdle) break;

    // Sleep until a socket is ready or the next request / apply is due.
    double wait_ms = 100;
    if (open_loop && next < n) {
      wait_ms = std::min(wait_ms, requests[next].due_ms - now);
    }
    if (churn != nullptr && churn_state == ChurnState::kIdle) {
      wait_ms = std::min(wait_ms, next_apply_due - now);
    }
    wait_ms = std::max(0.0, wait_ms);
    for (size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i]->fd;
      fds[i].events = POLLIN | (conns[i]->out.empty() ? 0 : POLLOUT);
      fds[i].revents = 0;
    }
    timespec ts;
    ts.tv_sec = static_cast<time_t>(wait_ms / 1000);
    ts.tv_nsec = static_cast<long>((wait_ms - 1000.0 * static_cast<double>(ts.tv_sec)) * 1e6);
    if (ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR) {
      return Status::Internal(std::string("poll: ") + std::strerror(errno));
    }

    for (size_t i = 0; i < conns.size(); ++i) {
      Conn* c = conns[i];
      if (!c->out.empty()) {
        auto sent = net::SendSome(c->fd, c->out.data(), c->out.size());
        SPADE_RETURN_NOT_OK(sent.status());
        c->out.erase(0, *sent);
      }
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      while (true) {
        const ssize_t got = recv(c->fd, buf, sizeof(buf), 0);
        if (got > 0) {
          c->in.append(buf, static_cast<size_t>(got));
          continue;
        }
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (got < 0 && errno == EINTR) continue;
        return Status::Internal("server closed a connection mid-phase");
      }
      const double t = now_ms();
      size_t pos = 0;
      size_t nl;
      while ((nl = c->in.find('\n', pos)) != std::string::npos) {
        const std::string prefix = "#" + std::to_string(c->next_reply_id) + " ";
        if (c->in.compare(pos, prefix.size(), prefix) != 0 ||
            c->pending.empty()) {
          return Status::Internal("unexpected reply framing: " +
                                  c->in.substr(pos, nl - pos));
        }
        const std::string line =
            c->in.substr(pos + prefix.size(), nl - pos - prefix.size());
        c->body += line + "\n";
        pos = nl + 1;
        if (EndsBlock(line)) {
          ++c->next_reply_id;
          complete(c, t);
        }
      }
      c->in.erase(0, pos);
    }
  }
  r.wall_ms = last_reply - first_send;
  return r;
}

}  // namespace e2e
}  // namespace spade
