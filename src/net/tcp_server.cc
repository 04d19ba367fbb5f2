#include "src/net/tcp_server.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/failpoint.h"
#include "src/util/string_util.h"
#include "src/util/timer.h"

#if defined(SPADE_NET_POSIX)
#include <atomic>
#include <cerrno>
#include <csignal>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace spade {
namespace net {

#if defined(SPADE_NET_POSIX)

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// One TCP session. All fields are owned by the event-loop thread;
/// evaluation tasks never see a Connection (they address completions by
/// serial, and the loop drops blocks whose connection has died).
struct Connection {
  int fd = -1;
  uint64_t serial = 0;

  // Input side: the current (incomplete) request line. Bytes beyond the
  // buffer cap are counted, not stored, so a newline-free firehose costs
  // O(max_line_bytes) memory; leading blanks are dropped eagerly (Trim
  // would remove them anyway) so a whitespace prefix can't eat the cap.
  std::string curline;
  size_t line_discarded = 0;

  // Output side: finished blocks park by request id until every earlier
  // block has been appended; `outbuf`/`out_pos` is the flush cursor.
  std::map<uint64_t, std::string> parked;
  std::string outbuf;
  size_t out_pos = 0;
  uint64_t next_id = 1;     // request ids count from 1, per connection
  uint64_t next_flush = 1;  // id whose block may be appended next

  size_t inflight = 0;      // requests of this connection being evaluated
  bool stop_reading = false;  // quit/EOF seen or server draining
  bool close_when_flushed = false;
  bool paused = false;        // input paused by output backpressure
  bool dead = false;          // I/O fault: close regardless of pending state
  Clock::time_point last_activity;

  size_t out_pending() const { return outbuf.size() - out_pos; }
};

/// What a worker hands back to the loop when a request finishes.
struct Completion {
  uint64_t serial = 0;
  uint64_t id = 0;
  std::string block;
  bool is_error = false;
  bool truncated = false;
};

// SIGTERM/SIGINT -> graceful drain, via the self-pipe of the active server.
// One server installs handlers at a time (the CLI runs exactly one); the
// handler only touches lock-free atomics and write(2).
std::atomic<int> g_signal_wake_fd{-1};
std::atomic<bool> g_signal_shutdown{false};

extern "C" void SpadeNetOnSignal(int) {
  g_signal_shutdown.store(true, std::memory_order_relaxed);
  const int fd = g_signal_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 's';
    [[maybe_unused]] ssize_t n = ::write(fd, &byte, 1);
  }
}

class ScopedSignalHandlers {
 public:
  ScopedSignalHandlers(bool install, int wake_fd) : installed_(install) {
    if (!installed_) return;
    g_signal_shutdown.store(false, std::memory_order_relaxed);
    g_signal_wake_fd.store(wake_fd, std::memory_order_relaxed);
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = SpadeNetOnSignal;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGTERM, &sa, &saved_term_);
    ::sigaction(SIGINT, &sa, &saved_int_);
  }
  ~ScopedSignalHandlers() {
    if (!installed_) return;
    ::sigaction(SIGTERM, &saved_term_, nullptr);
    ::sigaction(SIGINT, &saved_int_, nullptr);
    g_signal_wake_fd.store(-1, std::memory_order_relaxed);
  }

 private:
  bool installed_;
  struct sigaction saved_term_ {};
  struct sigaction saved_int_ {};
};

}  // namespace

struct TcpServer::Impl {
  // Loop-owned state.
  int listen_fd = -1;
  int wake_r = -1;
  int wake_w = -1;
  std::map<uint64_t, Connection> conns;
  uint64_t next_serial = 1;
  size_t global_inflight = 0;
  size_t max_inflight = 0;  // resolved in Run()
  TcpServeStats stats;
  bool draining = false;
  bool drain_failed = false;  // hard stop fired with work still pending
  Clock::time_point cancel_at;
  Clock::time_point hard_stop;
  TaskScheduler* scheduler = nullptr;  // valid during Run() only
  TaskGroup* group = nullptr;          // valid during Run() only

  // Shared with evaluation workers.
  std::mutex mu;
  std::vector<Completion> completions;
  // One CancelToken per in-flight request, guarded by mu. Tokens must not
  // be shared across requests: CancelCheck latches a deadline expiry into
  // the token it observes, so a single shared token would let one request's
  // timeout=0 truncate every request after it. The drain deadline cancels
  // every registered token instead.
  std::vector<std::shared_ptr<CancelToken>> inflight_tokens;
  std::atomic<bool> shutdown_requested{false};

  ~Impl() {
    CloseFd(listen_fd);
    CloseFd(wake_r);
    CloseFd(wake_w);
  }

  void Wake() {
    const int fd = wake_w;
    if (fd >= 0) {
      const char byte = 'w';
      [[maybe_unused]] ssize_t n = ::write(fd, &byte, 1);
    }
  }
};

TcpServer::TcpServer(const Spade* spade, TcpServerOptions options)
    : spade_(spade),
      options_(std::move(options)),
      core_(spade, options_.serve),
      impl_(std::make_unique<Impl>()) {}

TcpServer::TcpServer(Spade* spade, TcpServerOptions options)
    : spade_(spade),
      options_(std::move(options)),
      core_(spade, options_.serve),
      impl_(std::make_unique<Impl>()) {}

TcpServer::~TcpServer() = default;

Status TcpServer::Start() {
  if (impl_->listen_fd >= 0) return Status::OK();
  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    return Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  impl_->wake_r = pipefd[0];
  impl_->wake_w = pipefd[1];
  SPADE_RETURN_NOT_OK(SetNonBlocking(impl_->wake_r));
  SPADE_RETURN_NOT_OK(SetNonBlocking(impl_->wake_w));
  Result<int> fd = ListenTcp(&options_.listen, /*backlog=*/128);
  SPADE_RETURN_NOT_OK(fd.status());
  impl_->listen_fd = *fd;
  return Status::OK();
}

void TcpServer::RequestShutdown() {
  impl_->shutdown_requested.store(true, std::memory_order_relaxed);
  impl_->Wake();
}

namespace {

/// accept(2) one pending connection; the failpoint models a transient
/// accept-path fault (fd exhaustion, aborted handshake) that must cost at
/// most the one incoming connection.
Result<int> AcceptOne(int listen_fd) {
  SPADE_FAILPOINT_STATUS("serve.accept");
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return fd;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;  // drained
    return Status::Internal(std::string("accept: ") + std::strerror(errno));
  }
}

/// Read once into `buf`; 0 bytes with eof=false means EAGAIN. The failpoint
/// models a connection-scoped read fault (ECONNRESET and friends).
Result<size_t> ReadSome(int fd, char* buf, size_t size, bool* eof) {
  *eof = false;
  SPADE_FAILPOINT_STATUS("serve.read");
  for (;;) {
    const ssize_t n = ::recv(fd, buf, size, 0);
    if (n > 0) return static_cast<size_t>(n);
    if (n == 0) {
      *eof = true;
      return size_t{0};
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
    return Status::Internal(std::string("recv: ") + std::strerror(errno));
  }
}

/// Write as much pending output as the socket accepts right now. The
/// failpoint models EPIPE/reset surfacing on the write path.
Status WritePending(Connection* c) {
  if (c->out_pending() == 0) return Status::OK();
  SPADE_FAILPOINT_STATUS("serve.write");
  while (c->out_pending() > 0) {
    Result<size_t> n =
        SendSome(c->fd, c->outbuf.data() + c->out_pos, c->out_pending());
    SPADE_RETURN_NOT_OK(n.status());
    if (*n == 0) return Status::OK();  // EAGAIN: poll will re-arm POLLOUT
    c->out_pos += *n;
    c->last_activity = Clock::now();
  }
  c->outbuf.clear();
  c->out_pos = 0;
  return Status::OK();
}

}  // namespace

TcpServeStats TcpServer::Run() {
  Impl& im = *impl_;
  Timer timer;
  if (im.listen_fd < 0) {
    Status st = Start();
    if (!st.ok()) {
      im.stats.serve.wall_ms = timer.ElapsedMillis();
      return im.stats;
    }
  }

  // One scheduler for all in-flight requests, exactly like pipe mode.
  std::unique_ptr<ThreadPool> pool = MakeWorkerPool(options_.serve.num_threads);
  TaskScheduler scheduler(pool.get());
  TaskGroup group(&scheduler);
  im.scheduler = &scheduler;
  im.group = &group;
  im.max_inflight = options_.max_inflight == 0 ? 2 * scheduler.num_threads()
                                               : options_.max_inflight;

  ScopedIgnoreSigpipe ignore_sigpipe;
  ScopedSignalHandlers handlers(options_.install_signal_handlers, im.wake_w);

  const size_t line_cap = options_.serve.max_line_bytes == 0
                              ? std::string::npos
                              : options_.serve.max_line_bytes + 4096;

  // --- Per-request completion plumbing -----------------------------------
  auto submit = [this, &im](Connection& c, uint64_t id, std::string request) {
    ++im.global_inflight;
    ++c.inflight;
    const uint64_t serial = c.serial;
    auto token = std::make_shared<CancelToken>();
    {
      std::lock_guard<std::mutex> lock(im.mu);
      im.inflight_tokens.push_back(token);
    }
    im.group->Run([this, &im, serial, id, token,
                   request = std::move(request)] {
      bool is_error = false;
      bool truncated = false;
      std::string body = core_.HandleLine(request, im.scheduler, token.get(),
                                          &is_error, &truncated);
      Completion done;
      done.serial = serial;
      done.id = id;
      done.block =
          persist::FormatResponseBlock(id, request, body, options_.serve.echo);
      done.is_error = is_error;
      done.truncated = truncated;
      {
        std::lock_guard<std::mutex> lock(im.mu);
        im.completions.push_back(std::move(done));
        auto& tokens = im.inflight_tokens;
        tokens.erase(std::remove(tokens.begin(), tokens.end(), token),
                     tokens.end());
      }
      im.Wake();
    });
  };

  // Cut every in-flight request over to a truncated reply. Latched per
  // token; safe to call repeatedly. New submissions stop before drain, so
  // no token can slip in after this runs during shutdown.
  auto cancel_inflight = [&im] {
    std::lock_guard<std::mutex> lock(im.mu);
    for (auto& token : im.inflight_tokens) {
      token->Cancel(CancelReason::kCancelled);
    }
  };

  // A block that skipped evaluation (oversized, busy): park it directly.
  auto park = [](Connection& c, uint64_t id, std::string block) {
    c.parked.emplace(id, std::move(block));
  };

  auto flush_parked = [](Connection& c) {
    for (auto it = c.parked.begin();
         it != c.parked.end() && it->first == c.next_flush;
         it = c.parked.erase(it), ++c.next_flush) {
      c.outbuf += it->second;
    }
  };

  // --- The line state machine (mirrors the pipe loop byte for byte) ------
  auto complete_line = [this, &im, &submit, &park](Connection& c) {
    std::string line = std::move(c.curline);
    c.curline.clear();
    const size_t discarded = c.line_discarded;
    c.line_discarded = 0;
    if (discarded == 0 && !line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    const std::string_view trimmed = Trim(line);
    if (discarded == 0) {
      if (trimmed.empty() || trimmed[0] == '#') return;
      if (trimmed == "quit" || trimmed == "exit") {
        // Ends this connection only: flush what's pending, then close.
        c.stop_reading = true;
        c.close_when_flushed = true;
        return;
      }
    }
    const uint64_t id = c.next_id++;
    const size_t max_line = options_.serve.max_line_bytes;
    if (discarded > 0 || (max_line > 0 && trimmed.size() > max_line)) {
      park(c, id,
           persist::FormatResponseBlock(
               id, /*request=*/"",
               persist::OversizedLineBody(trimmed.size() + discarded,
                                          max_line),
               /*echo=*/false));
      ++im.stats.serve.num_requests;
      ++im.stats.serve.num_errors;
      return;
    }
    // Admission control: shed, never queue. The client sees `#<id> busy`
    // immediately and owns the retry (LineClient backs off with jitter).
    if (im.global_inflight >= im.max_inflight ||
        c.inflight >= options_.max_inflight_per_connection) {
      park(c, id, persist::FormatResponseBlock(id, std::string(trimmed),
                                               "busy\n", /*echo=*/false));
      ++im.stats.num_requests_shed;
      return;
    }
    submit(c, id, std::string(trimmed));
  };

  auto consume_input = [&](Connection& c, const char* data, size_t size) {
    for (size_t i = 0; i < size; ++i) {
      const char b = data[i];
      if (b == '\n') {
        complete_line(c);
        if (c.stop_reading) return;  // quit: drop the rest of the buffer
        continue;
      }
      if (c.curline.empty() && c.line_discarded == 0 &&
          (b == ' ' || b == '\t')) {
        continue;  // leading blanks never count toward the line cap
      }
      if (c.curline.size() < line_cap) {
        c.curline.push_back(b);
      } else {
        ++c.line_discarded;
      }
    }
  };

  auto drain_completions = [&] {
    std::vector<Completion> done;
    {
      std::lock_guard<std::mutex> lock(im.mu);
      done.swap(im.completions);
    }
    for (Completion& fin : done) {
      --im.global_inflight;
      ++im.stats.serve.num_requests;
      if (fin.is_error) ++im.stats.serve.num_errors;
      if (fin.truncated) ++im.stats.serve.num_truncated;
      auto it = im.conns.find(fin.serial);
      if (it == im.conns.end()) continue;  // connection died mid-evaluation
      Connection& c = it->second;
      --c.inflight;
      c.parked.emplace(fin.id, std::move(fin.block));
      c.last_activity = Clock::now();  // progress: a reply was produced
    }
  };

  auto close_conn = [&im](std::map<uint64_t, Connection>::iterator it) {
    CloseFd(it->second.fd);
    return im.conns.erase(it);
  };

  auto begin_drain = [&] {
    if (im.draining) return;
    im.draining = true;
    // A deadline past the clock's range never fires.
    const Clock::time_point now = Clock::now();
    im.cancel_at = SteadyAfter(now, options_.drain_deadline_ms);
    im.hard_stop = SteadyAfter(now, 2 * options_.drain_deadline_ms);
    // Stop accepting and stop reading; in-flight work drains.
    if (im.listen_fd >= 0) {
      CloseFd(im.listen_fd);
      im.listen_fd = -1;
    }
    for (auto& [serial, c] : im.conns) {
      (void)serial;
      c.stop_reading = true;
      c.close_when_flushed = true;
    }
  };

  // --- The event loop ----------------------------------------------------
  std::vector<struct pollfd> pfds;
  std::vector<uint64_t> pfd_serial;  // conn serial per pollfd (0 = not a conn)
  std::vector<char> iobuf(64 * 1024);

  for (;;) {
    if (im.shutdown_requested.load(std::memory_order_relaxed) ||
        (options_.install_signal_handlers &&
         g_signal_shutdown.load(std::memory_order_relaxed))) {
      begin_drain();
    }

    // Exit: draining, nothing evaluating, nothing parked, nothing buffered.
    if (im.draining) {
      const Clock::time_point now = Clock::now();
      if (now >= im.cancel_at) {
        // Past the drain deadline: cut in-flight requests over to truncated
        // replies. Latched; repeated calls are no-ops.
        cancel_inflight();
      }
      bool flushed = true;
      for (auto it = im.conns.begin(); it != im.conns.end();) {
        Connection& c = it->second;
        if (c.inflight == 0 && c.parked.empty() && c.out_pending() == 0) {
          it = close_conn(it);
        } else {
          flushed = false;
          ++it;
        }
      }
      if (im.global_inflight == 0 && flushed && im.conns.empty()) break;
      if (now >= im.hard_stop) {
        im.drain_failed = true;
        break;
      }
    }

    // Assemble the poll set.
    pfds.clear();
    pfd_serial.clear();
    pfds.push_back({im.wake_r, POLLIN, 0});
    pfd_serial.push_back(0);
    if (im.listen_fd >= 0 && !im.draining) {
      pfds.push_back({im.listen_fd, POLLIN, 0});
      pfd_serial.push_back(0);
    }
    for (auto& [serial, c] : im.conns) {
      short events = 0;
      if (!c.stop_reading && !c.paused) events |= POLLIN;
      if (c.out_pending() > 0) events |= POLLOUT;
      pfds.push_back({c.fd, events, 0});
      pfd_serial.push_back(serial);
    }

    // Poll timeout: the nearest timer (idle sweep / drain barriers), else
    // block until a socket or the wake pipe fires.
    int timeout_ms = -1;
    {
      const Clock::time_point now = Clock::now();
      Clock::time_point next = Clock::time_point::max();
      if (options_.idle_timeout_ms > 0) {
        for (const auto& [serial, c] : im.conns) {
          (void)serial;
          const Clock::time_point base =
              c.inflight > 0 ? now : c.last_activity;
          next = std::min(next, SteadyAfter(base, options_.idle_timeout_ms));
        }
      }
      if (im.draining) {
        next = std::min(next, im.cancel_at);
        next = std::min(next, im.hard_stop);
      }
      if (next != Clock::time_point::max()) {
        // Clamped to a minute before the conversion to int.
        const double ms = MsSince(now, next);
        timeout_ms = ms <= 0 ? 0 : static_cast<int>(std::min(ms, 59999.0)) + 1;
      }
    }

    const int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (rc < 0 && errno != EINTR) break;  // unrecoverable loop fault

    // Drain the wake pipe (its only job is to interrupt poll).
    if (rc > 0 && (pfds[0].revents & POLLIN)) {
      while (true) {
        char sink[256];
        const ssize_t n = ::read(im.wake_r, sink, sizeof(sink));
        if (n <= 0) break;
      }
    }

    drain_completions();

    // Accept, shedding beyond max_connections with a bare `busy` line: the
    // one response a client can receive before ever sending a request.
    if (!im.draining && im.listen_fd >= 0) {
      for (;;) {
        Result<int> accepted = AcceptOne(im.listen_fd);
        if (!accepted.ok()) {
          ++im.stats.num_io_errors;  // transient accept fault; keep serving
          break;
        }
        const int fd = *accepted;
        if (fd < 0) break;  // accept queue drained
        if (im.conns.size() >= options_.max_connections) {
          static const char kBusy[] = "busy\n";
          (void)SendSome(fd, kBusy, sizeof(kBusy) - 1);
          CloseFd(fd);
          ++im.stats.num_connections_shed;
          continue;
        }
        if (!SetNonBlocking(fd).ok()) {
          CloseFd(fd);
          ++im.stats.num_io_errors;
          continue;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        Connection c;
        c.fd = fd;
        c.serial = im.next_serial++;
        c.last_activity = Clock::now();
        ++im.stats.num_connections;
        im.conns.emplace(c.serial, std::move(c));
      }
    }

    // Per-connection I/O.
    for (size_t i = 1; i < pfds.size(); ++i) {
      if (pfd_serial[i] == 0) continue;
      auto it = im.conns.find(pfd_serial[i]);
      if (it == im.conns.end()) continue;
      Connection& c = it->second;
      if (pfds[i].revents & (POLLERR | POLLNVAL)) {
        c.dead = true;
        ++im.stats.num_io_errors;
        continue;
      }
      if ((pfds[i].revents & (POLLIN | POLLHUP)) && !c.stop_reading &&
          !c.paused) {
        bool eof = false;
        Result<size_t> n = ReadSome(c.fd, iobuf.data(), iobuf.size(), &eof);
        if (!n.ok()) {
          c.dead = true;
          ++im.stats.num_io_errors;
          continue;
        }
        if (*n > 0) {
          c.last_activity = Clock::now();
          consume_input(c, iobuf.data(), *n);
        }
        if (eof) {
          // Orderly half-close: the peer is done sending; answer what was
          // admitted, then close (mirrors pipe-mode EOF).
          c.stop_reading = true;
          c.close_when_flushed = true;
        }
      }
    }

    // Pick up replies finished by inline (serial-scheduler) evaluation.
    drain_completions();

    // Order, write, backpressure, close.
    for (auto it = im.conns.begin(); it != im.conns.end();) {
      Connection& c = it->second;
      if (c.dead) {
        it = close_conn(it);
        continue;
      }
      flush_parked(c);
      if (!WritePending(&c).ok()) {
        // EPIPE/reset (or injected serve.write fault): the failure domain
        // is this one connection.
        ++im.stats.num_io_errors;
        it = close_conn(it);
        continue;
      }
      c.paused = c.out_pending() > options_.max_connection_output_bytes;
      if (c.close_when_flushed && c.inflight == 0 && c.parked.empty() &&
          c.out_pending() == 0) {
        it = close_conn(it);
        continue;
      }
      ++it;
    }

    // Idle sweep (slowloris defense): no progress, nothing evaluating.
    if (options_.idle_timeout_ms > 0) {
      const Clock::time_point now = Clock::now();
      for (auto it = im.conns.begin(); it != im.conns.end();) {
        Connection& c = it->second;
        if (c.inflight == 0 &&
            MsSince(c.last_activity, now) > options_.idle_timeout_ms) {
          ++im.stats.num_idle_closed;
          it = close_conn(it);
        } else {
          ++it;
        }
      }
    }
  }

  // Epilogue: nothing may still reference loop-stack state. Cancel whatever
  // the hard stop abandoned, join the workers, account their completions.
  cancel_inflight();
  group.Wait();
  drain_completions();
  for (auto it = im.conns.begin(); it != im.conns.end();) {
    it = close_conn(it);
  }
  if (im.listen_fd >= 0) {
    CloseFd(im.listen_fd);
    im.listen_fd = -1;
  }
  im.scheduler = nullptr;
  im.group = nullptr;
  im.stats.drained_clean = !im.drain_failed;
  im.stats.serve.wall_ms = timer.ElapsedMillis();
  return im.stats;
}

#else  // !SPADE_NET_POSIX

struct TcpServer::Impl {
  std::atomic<bool> shutdown_requested{false};
};

TcpServer::TcpServer(const Spade* spade, TcpServerOptions options)
    : spade_(spade),
      options_(std::move(options)),
      core_(spade, options_.serve),
      impl_(std::make_unique<Impl>()) {}

TcpServer::TcpServer(Spade* spade, TcpServerOptions options)
    : spade_(spade),
      options_(std::move(options)),
      core_(spade, options_.serve),
      impl_(std::make_unique<Impl>()) {}

TcpServer::~TcpServer() = default;

Status TcpServer::Start() {
  return Status::Internal("TCP serve mode requires a POSIX platform");
}

TcpServeStats TcpServer::Run() { return TcpServeStats{}; }

void TcpServer::RequestShutdown() {}

#endif  // SPADE_NET_POSIX

}  // namespace net
}  // namespace spade
