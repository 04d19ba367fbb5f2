#include "src/util/failpoint.h"

#if defined(SPADE_FAILPOINTS)

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <new>

#include "src/util/string_util.h"

namespace spade {
namespace fail {
namespace {

struct PendingConfig {
  Action action = Action::kOff;
  uint64_t one_shot_hit = 0;
  uint32_t permille = 1000;
};

struct Registry {
  std::mutex mu;
  // Failpoints live for the process lifetime; sites hold raw pointers into
  // this map from their function-local statics.
  std::map<std::string, std::unique_ptr<Failpoint>> points;
  // Specs naming sites whose code path has not executed yet; applied at
  // Register() time.
  std::map<std::string, PendingConfig> pending;
};

Registry& GetRegistry() {
  static Registry* r = new Registry();  // leaked: outlives static dtor order
  return *r;
}

void Apply(Failpoint* fp, const PendingConfig& cfg) {
  fp->action.store(static_cast<uint8_t>(cfg.action), std::memory_order_relaxed);
  fp->one_shot_hit.store(cfg.one_shot_hit, std::memory_order_relaxed);
  fp->permille.store(cfg.permille, std::memory_order_relaxed);
  fp->hits.store(0, std::memory_order_relaxed);
  // armed last: a racing Evaluate sees a fully configured point.
  fp->armed.store(cfg.action != Action::kOff, std::memory_order_relaxed);
}

Status ParseEntry(const std::string& entry, std::string* name,
                  PendingConfig* cfg) {
  size_t eq = entry.find('=');
  if (eq == std::string::npos || eq == 0) {
    return Status::InvalidArgument("failpoint spec entry needs name=action: '" +
                                   entry + "'");
  }
  *name = entry.substr(0, eq);
  std::string action = entry.substr(eq + 1);
  std::string arg;
  size_t colon = action.find(':');
  if (colon != std::string::npos) {
    arg = action.substr(colon + 1);
    action = action.substr(0, colon);
  }
  *cfg = PendingConfig();
  if (action == "off") {
    cfg->action = Action::kOff;
  } else if (action == "error") {
    cfg->action = Action::kError;
  } else if (action == "throw") {
    cfg->action = Action::kThrow;
  } else if (action == "oom") {
    cfg->action = Action::kOom;
  } else if (action == "kill") {
    cfg->action = Action::kKill;
  } else {
    return Status::InvalidArgument("unknown failpoint action '" + action +
                                   "' in '" + entry + "'");
  }
  if (!arg.empty()) {
    if (arg.find('.') != std::string::npos) {
      double p;
      if (!ParseDouble(arg, &p) || p < 0 || p > 1) {
        return Status::InvalidArgument("failpoint probability must be in "
                                       "[0, 1]: '" + entry + "'");
      }
      cfg->permille = static_cast<uint32_t>(p * 1000.0);
    } else {
      int64_t n;
      if (!ParseInt64(arg, &n) || n <= 0) {
        return Status::InvalidArgument("failpoint hit number must be a "
                                       "positive integer: '" + entry + "'");
      }
      cfg->one_shot_hit = static_cast<uint64_t>(n);
    }
  }
  return Status::OK();
}

Status ConfigureLocked(Registry& reg, const std::string& spec) {
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    std::string entry = spec.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!entry.empty()) {
      std::string name;
      PendingConfig cfg;
      SPADE_RETURN_NOT_OK(ParseEntry(entry, &name, &cfg));
      auto it = reg.points.find(name);
      if (it != reg.points.end()) {
        Apply(it->second.get(), cfg);
      } else {
        reg.pending[name] = cfg;
      }
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return Status::OK();
}

void ParseEnvOnce(Registry& reg) {
  static std::once_flag flag;
  std::call_once(flag, [&reg] {
    const char* env = std::getenv("SPADE_FAILPOINT");
    if (env == nullptr || env[0] == '\0') return;
    Status st = ConfigureLocked(reg, env);
    if (!st.ok()) {
      // A typo'd env spec should be loud, not silently inert.
      std::fprintf(stderr, "spade: bad SPADE_FAILPOINT: %s\n",
                   st.ToString().c_str());
    }
  });
}

}  // namespace

Failpoint* Register(const char* name) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  ParseEnvOnce(reg);
  auto it = reg.points.find(name);
  if (it == reg.points.end()) {
    auto fp = std::make_unique<Failpoint>();
    fp->name = name;
    it = reg.points.emplace(name, std::move(fp)).first;
    auto pending = reg.pending.find(name);
    if (pending != reg.pending.end()) {
      Apply(it->second.get(), pending->second);
      reg.pending.erase(pending);
    }
  }
  return it->second.get();
}

Fired Evaluate(Failpoint* fp, bool status_context) {
  uint64_t hit = fp->hits.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t one_shot = fp->one_shot_hit.load(std::memory_order_relaxed);
  if (one_shot > 0 && hit != one_shot) return Fired::kNo;
  uint32_t permille = fp->permille.load(std::memory_order_relaxed);
  if (permille < 1000) {
    // Cheap per-hit hash; fault injection needs coverage, not entropy.
    uint64_t x = hit * 0x9E3779B97F4A7C15ull;
    x ^= x >> 29;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 32;
    if (x % 1000 >= permille) return Fired::kNo;
  }
  switch (static_cast<Action>(fp->action.load(std::memory_order_relaxed))) {
    case Action::kOff:
      return Fired::kNo;
    case Action::kError:
      if (status_context) return Fired::kError;
      throw FailpointError(fp->name);
    case Action::kThrow:
      throw FailpointError(fp->name);
    case Action::kOom:
      throw std::bad_alloc();
    case Action::kKill:
      std::raise(SIGKILL);
      return Fired::kNo;
  }
  return Fired::kNo;
}

bool Enabled() { return true; }

Status Configure(const std::string& spec) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  ParseEnvOnce(reg);
  return ConfigureLocked(reg, spec);
}

void Reset() {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  ParseEnvOnce(reg);
  reg.pending.clear();
  for (auto& [name, fp] : reg.points) {
    (void)name;
    fp->armed.store(false, std::memory_order_relaxed);
    fp->action.store(static_cast<uint8_t>(Action::kOff),
                     std::memory_order_relaxed);
    fp->one_shot_hit.store(0, std::memory_order_relaxed);
    fp->hits.store(0, std::memory_order_relaxed);
    fp->permille.store(1000, std::memory_order_relaxed);
  }
}

std::vector<std::string> KnownNames() {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<std::string> names;
  names.reserve(reg.points.size());
  for (const auto& [name, fp] : reg.points) {
    (void)fp;
    names.push_back(name);
  }
  return names;
}

}  // namespace fail
}  // namespace spade

#else  // !SPADE_FAILPOINTS

namespace spade {
namespace fail {

bool Enabled() { return false; }

Status Configure(const std::string& spec) {
  if (spec.empty()) return Status::OK();
  return Status::InvalidArgument(
      "failpoints are compiled out of this build (SPADE_FAILPOINTS=OFF)");
}

void Reset() {}

std::vector<std::string> KnownNames() { return {}; }

}  // namespace fail
}  // namespace spade

#endif  // SPADE_FAILPOINTS

namespace spade {
namespace fail {

std::vector<std::string> AllSiteNames() {
  // Every SPADE_FAILPOINT / SPADE_FAILPOINT_STATUS site in src/, sorted.
  // FailpointTest.AllSiteNamesCoversEveryRegisteredSite fails if it drifts.
  return {
      "core.lattice.slice",   "core.measure.load",
      "core.translate",       "delta.apply",
      "delta.compact",        "exec.parallel_for",
      "exec.taskgroup.task",  "persist.load.attach",
      "persist.load.open",    "persist.save.finish",
      "persist.save.open",    "persist.save.rename",
      "persist.save.segment", "serve.accept",
      "serve.read",           "serve.request",
      "serve.write",
  };
}

}  // namespace fail
}  // namespace spade
