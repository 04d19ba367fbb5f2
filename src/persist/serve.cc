#include "src/persist/serve.h"

#include <deque>
#include <fstream>
#include <istream>
#include <memory>
#include <mutex>
#include <new>
#include <ostream>
#include <shared_mutex>
#include <sstream>
#include <vector>

#include "src/ingest/chunk_source.h"
#include "src/util/failpoint.h"
#include "src/util/string_util.h"
#include "src/util/timer.h"

namespace spade {
namespace persist {

namespace {

/// Whitespace-split, dropping empty tokens.
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  return tokens;
}

bool ParseSize(std::string_view s, size_t* out) {
  int64_t v = 0;
  if (!ParseInt64(s, &v) || v < 0) return false;
  *out = static_cast<size_t>(v);
  return true;
}

/// Parse one `key=value` token into `req`; empty return = success.
std::string ApplyToken(const std::string& token, ExploreRequest* req) {
  const size_t eq = token.find('=');
  if (eq == std::string::npos) {
    return "expected key=value, got '" + token + "'";
  }
  const std::string key = token.substr(0, eq);
  const std::string value = token.substr(eq + 1);
  if (key == "cfs") {
    for (const std::string& name : Split(value, ',')) {
      if (!name.empty()) req->cfs_names.push_back(name);
    }
    return "";
  }
  if (key == "top") {
    size_t k = 0;
    if (!ParseSize(value, &k) || k == 0) return "bad top '" + value + "'";
    req->top_k = k;
    return "";
  }
  if (key == "interestingness") {
    if (value == "variance") {
      req->interestingness = InterestingnessKind::kVariance;
    } else if (value == "skewness") {
      req->interestingness = InterestingnessKind::kSkewness;
    } else if (value == "kurtosis") {
      req->interestingness = InterestingnessKind::kKurtosis;
    } else {
      return "unknown interestingness '" + value + "'";
    }
    return "";
  }
  if (key == "algorithm") {
    if (value == "mvdcube") {
      req->algorithm = EvalAlgorithm::kMvdCube;
    } else if (value == "pgcube") {
      req->algorithm = EvalAlgorithm::kPgCubeStar;
    } else if (value == "pgcube-distinct") {
      req->algorithm = EvalAlgorithm::kPgCubeDistinct;
    } else if (value == "arraycube") {
      req->algorithm = EvalAlgorithm::kArrayCube;
    } else {
      return "unknown algorithm '" + value + "'";
    }
    return "";
  }
  if (key == "earlystop") {
    if (value == "on") {
      req->earlystop = true;
    } else if (value == "off") {
      req->earlystop = false;
    } else {
      return "earlystop must be on|off, got '" + value + "'";
    }
    return "";
  }
  if (key == "max-dims") {
    size_t n = 0;
    if (!ParseSize(value, &n) || n == 0) return "bad max-dims '" + value + "'";
    req->max_dims = n;
    return "";
  }
  if (key == "min-support") {
    double r = 0;
    if (!ParseDouble(value, &r) || r < 0 || r > 1) {
      return "bad min-support '" + value + "' (want a ratio in [0, 1])";
    }
    req->min_support_ratio = r;
    return "";
  }
  if (key == "timeout") {
    double ms = 0;
    if (!ParseDouble(value, &ms) || ms < 0) {
      return "bad timeout '" + value + "' (want milliseconds >= 0)";
    }
    req->deadline_ms = ms;  // 0 = already expired: an empty truncated reply
    return "";
  }
  return "unknown key '" + key + "'";
}

/// Prefix every line of `body` with "#<id> ".
std::string PrefixBlock(uint64_t id, const std::string& body) {
  const std::string prefix = "#" + std::to_string(id) + " ";
  std::string out;
  out.reserve(body.size() + prefix.size() * 8);
  size_t pos = 0;
  while (pos < body.size()) {
    size_t nl = body.find('\n', pos);
    if (nl == std::string::npos) nl = body.size() - 1;
    out += prefix;
    out.append(body, pos, nl - pos + 1);
    pos = nl + 1;
  }
  return out;
}

}  // namespace

std::string FormatResponseBlock(uint64_t id, const std::string& request,
                                const std::string& body, bool echo) {
  std::string block;
  if (echo) block = PrefixBlock(id, "> " + request + "\n");
  block += PrefixBlock(id, body);
  return block;
}

std::string OversizedLineBody(size_t line_bytes, size_t limit) {
  return "error: request line too long (" + std::to_string(line_bytes) +
         " bytes, limit " + std::to_string(limit) + ")\n";
}

InsightServer::InsightServer(const Spade* spade, ServeOptions options)
    : spade_(spade), options_(options) {}

InsightServer::InsightServer(Spade* spade, ServeOptions options)
    : spade_(spade), mutable_spade_(spade), options_(options) {}

std::string InsightServer::HandleLine(const std::string& line,
                                      TaskScheduler* scheduler,
                                      CancelToken* cancel, bool* is_error,
                                      bool* truncated) const {
  *is_error = false;
  *truncated = false;
  auto error = [&](const std::string& msg) {
    *is_error = true;
    return "error: " + msg + "\n";
  };
  // Failure domain: one request. Whatever evaluation throws — injected
  // faults, bad_alloc from an oversized cube — becomes this request's error
  // block; the session and its in-flight siblings keep going.
  try {
  SPADE_FAILPOINT("serve.request");
  const std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty()) return error("empty request");
  const std::string& cmd = tokens[0];

  if (cmd == "apply" || cmd == "compact") {
    if (mutable_spade_ == nullptr || options_.read_only) {
      return error("server is read-only ('" + cmd + "' needs a mutable server"
                   " started without --read-only)");
    }
    // Writer lock: in-flight read requests finish first, later ones see the
    // post-mutation pipeline. Deterministic, timing-free responses.
    std::unique_lock<std::shared_mutex> write_lock(state_mu_);
    if (cmd == "compact") {
      if (tokens.size() > 1) return error("compact takes no arguments");
      Status st = mutable_spade_->Compact();
      if (!st.ok()) return error(st.message());
      std::ostringstream out;
      out << "ok triples=" << mutable_spade_->report().num_triples
          << " attrs=" << mutable_spade_->store().num_attributes()
          << " cfs=" << mutable_spade_->fact_sets().size() << "\n";
      out << "end\n";
      return out.str();
    }
    std::string add_path;
    std::string retract_path;
    for (size_t i = 1; i < tokens.size(); ++i) {
      const size_t eq = tokens[i].find('=');
      if (eq == std::string::npos) {
        return error("expected key=value, got '" + tokens[i] + "'");
      }
      const std::string key = tokens[i].substr(0, eq);
      const std::string value = tokens[i].substr(eq + 1);
      if (key == "add") {
        add_path = value;
      } else if (key == "retract") {
        retract_path = value;
      } else {
        return error("unknown key '" + key +
                     "' (apply [add=FILE] [retract=FILE])");
      }
    }
    if (add_path.empty() && retract_path.empty()) {
      return error(
          "apply needs add=FILE and/or retract=FILE (server-local N-Triples)");
    }
    // Server-local paths, like --save-store and the request scripts: the
    // serve mode is an operator tool, the operator stages the delta files.
    std::ifstream add_in;
    std::ifstream retract_in;
    std::unique_ptr<NTriplesChunkSource> add_src;
    std::unique_ptr<NTriplesChunkSource> retract_src;
    Graph* graph = mutable_spade_->mutable_graph();
    if (!add_path.empty()) {
      add_in.open(add_path);
      if (!add_in) return error("cannot open add file '" + add_path + "'");
      add_src = std::make_unique<NTriplesChunkSource>(add_in, graph);
    }
    if (!retract_path.empty()) {
      retract_in.open(retract_path);
      if (!retract_in) {
        return error("cannot open retract file '" + retract_path + "'");
      }
      retract_src = std::make_unique<NTriplesChunkSource>(retract_in, graph);
    }
    DeltaReport delta;
    Status st =
        mutable_spade_->ApplyDelta(add_src.get(), retract_src.get(), &delta);
    if (!st.ok()) return error(st.message());
    std::ostringstream out;
    out << "ok added=" << delta.num_added << " removed=" << delta.num_removed
        << " noop_adds=" << delta.noop_adds
        << " noop_retracts=" << delta.noop_retracts
        << " attrs_changed=" << delta.num_attrs_changed
        << " cfs=" << delta.num_cfs << " cfs_reused=" << delta.num_cfs_reused
        << "\n";
    out << "end\n";
    return out.str();
  }

  // Read requests share the pipeline under a reader lock; only taken here at
  // request granularity (nested evaluation tasks never touch it).
  std::shared_lock<std::shared_mutex> read_lock(state_mu_);

  if (cmd == "list") {
    const auto& sets = spade_->fact_sets();
    std::ostringstream out;
    out << "ok " << sets.size() << "\n";
    for (const CandidateFactSet& s : sets) {
      out << s.name << " " << s.members.size() << "\n";
    }
    out << "end\n";
    return out.str();
  }

  if (cmd == "stats") {
    const SpadeReport& r = spade_->report();
    std::ostringstream out;
    out << "ok\n";
    out << "triples " << r.num_triples << "\n";
    out << "terms " << spade_->store().graph().dict().size() << "\n";
    out << "attributes " << spade_->store().num_attributes() << "\n";
    out << "direct_properties " << r.num_direct_properties << "\n";
    out << "fact_sets " << spade_->fact_sets().size() << "\n";
    out << "end\n";
    return out.str();
  }

  if (cmd != "explore") {
    return error("unknown command '" + cmd +
                 "' (try explore, list, stats, apply, compact, quit)");
  }
  ExploreRequest req;
  for (size_t i = 1; i < tokens.size(); ++i) {
    const std::string msg = ApplyToken(tokens[i], &req);
    if (!msg.empty()) return error(msg);
  }
  // The server-imposed deadline is a default AND a cap: an explicit
  // timeout= below it (including 0, "already expired") is honored as-is.
  if (options_.request_deadline_ms > 0 &&
      (!req.deadline_ms.has_value() ||
       *req.deadline_ms > options_.request_deadline_ms)) {
    req.deadline_ms = options_.request_deadline_ms;
  }
  req.cancel = cancel;
  Result<ExploreOutcome> result = spade_->Explore(req, scheduler);
  if (!result.ok()) return error(result.status().message());

  // No timings anywhere in the response: the byte stream must be identical
  // at every thread count.
  std::ostringstream out;
  out << "ok " << result->insights.size();
  if (result->truncated) {
    *truncated = true;
    out << " truncated=" << CancelReasonName(result->cancel_reason);
  }
  out << "\n";
  for (size_t i = 0; i < result->insights.size(); ++i) {
    const Insight& insight = result->insights[i];
    out << (i + 1) << " " << FormatDouble(insight.ranked.score, 6) << " "
        << insight.cfs_name << " " << insight.description << "\n";
  }
  out << "end\n";
  return out.str();
  } catch (const std::bad_alloc&) {
    return error("out of memory while evaluating request");
  } catch (const std::exception& e) {
    return error(std::string("internal error: ") + e.what());
  } catch (...) {
    return error("internal error");
  }
}

ServeStats InsightServer::Serve(std::istream& in, std::ostream& out) {
  Timer timer;
  std::unique_ptr<ThreadPool> pool = MakeWorkerPool(options_.num_threads);
  TaskScheduler scheduler(pool.get());
  TaskGroup group(&scheduler);
  const size_t max_inflight = options_.max_inflight == 0
                                  ? 2 * scheduler.num_threads()
                                  : options_.max_inflight;

  // Responses flush strictly in request order: each request owns a slot,
  // finished blocks park there until every earlier block has been written.
  // Only the unflushed window is kept: slots[0] belongs to request
  // flushed + 1, so a long session holds no per-request state once written.
  ServeStats stats;
  std::mutex mu;
  std::deque<std::unique_ptr<std::string>> slots;  // guarded by mu
  uint64_t flushed = 0;                            // guarded by mu
  // Parks request `id`'s block, then writes every block now in order.
  auto park = [&out, &slots, &flushed](uint64_t id, std::string block) {
    // callers hold mu
    slots[id - 1 - flushed] = std::make_unique<std::string>(std::move(block));
    while (!slots.empty() && slots.front() != nullptr) {
      out << *slots.front();
      slots.pop_front();
      ++flushed;
    }
    out.flush();
  };

  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (trimmed == "quit" || trimmed == "exit") break;
    uint64_t id;
    {
      std::lock_guard<std::mutex> lock(mu);
      slots.emplace_back(nullptr);
      id = flushed + slots.size();  // ids count from 1
    }
    // Oversized lines are answered without being parsed (or echoed): the
    // guard bounds per-request memory against malformed or hostile input.
    if (options_.max_line_bytes > 0 && trimmed.size() > options_.max_line_bytes) {
      std::lock_guard<std::mutex> lock(mu);
      park(id, FormatResponseBlock(
                   id, /*request=*/"",
                   OversizedLineBody(trimmed.size(), options_.max_line_bytes),
                   /*echo=*/false));
      ++stats.num_requests;
      ++stats.num_errors;
      continue;
    }
    const std::string request(trimmed);
    group.Run([this, id, request, &scheduler, &mu, &stats, &park] {
      bool is_error = false;
      bool truncated = false;
      std::string body = HandleLine(request, &scheduler, /*cancel=*/nullptr,
                                    &is_error, &truncated);
      std::string block =
          FormatResponseBlock(id, request, body, options_.echo);
      std::lock_guard<std::mutex> lock(mu);
      park(id, std::move(block));
      ++stats.num_requests;
      if (is_error) ++stats.num_errors;
      if (truncated) ++stats.num_truncated;
    });
    // Backpressure: don't read unboundedly ahead of evaluation.
    group.WaitPendingBelow(max_inflight);
  }
  group.Wait();
  stats.wall_ms = timer.ElapsedMillis();
  return stats;
}

}  // namespace persist
}  // namespace spade
