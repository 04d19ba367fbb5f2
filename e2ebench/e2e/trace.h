#ifndef SPADE_E2EBENCH_E2E_TRACE_H_
#define SPADE_E2EBENCH_E2E_TRACE_H_

/// \file trace.h
/// \brief In-memory span and count recorder for traced benchmark runs.
///
/// A span is one timed call into a layer's public function: name, start,
/// end, the span that caused it, and the request (one benchmark operation)
/// it belongs to. Counts are recorded at the same boundaries. Everything
/// stays in memory until the run ends and WriteJson() dumps it.
///
/// A span's self time is the part of its wall that no direct child covers
/// (children on parallel workers overlap, so it is the gaps around their
/// union); for a span with children it is the unattributed time. By this
/// definition children + unattributed = wall for any span whose children
/// lie inside it, so Check() asserts only that: every span closed and
/// nested inside its parent.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace spade {
namespace e2e {

class Trace {
 public:
  using SpanId = int64_t;
  static constexpr SpanId kNoParent = -1;

  struct Span {
    std::string name;
    double start_ms = 0;
    double end_ms = -1;  ///< -1 while open
    SpanId parent = kNoParent;
    uint64_t request = 0;
  };

  Trace() : origin_(Clock::now()) {}

  /// Thread-safe: parallel workers open spans under a shared parent.
  SpanId Begin(const std::string& name, SpanId parent, uint64_t request) {
    const double now = NowMs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, now, -1, parent, request});
    return static_cast<SpanId>(spans_.size() - 1);
  }

  void End(SpanId id) {
    const double now = NowMs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ms = now;
  }

  /// Adds `value` to the named count of `request`.
  void Count(uint64_t request, const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    counts_[{request, name}] += value;
  }

  /// Raises the named count of `request` to at least `value` (peaks).
  void Max(uint64_t request, const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    double& slot = counts_[{request, name}];
    slot = std::max(slot, value);
  }

  /// Opens a span on construction and closes it on destruction; does
  /// nothing when `trace` is null (an untraced run).
  class Scope {
   public:
    Scope(Trace* trace, const std::string& name, SpanId parent,
          uint64_t request)
        : trace_(trace),
          id_(trace != nullptr ? trace->Begin(name, parent, request)
                               : kNoParent) {}
    ~Scope() {
      if (trace_ != nullptr) trace_->End(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    SpanId id() const { return id_; }

   private:
    Trace* trace_;
    SpanId id_;
  };

  /// Time of `request` that no leaf call accounts for: the self time of
  /// every span with children, summed (work time when such spans ran
  /// concurrently).
  double Unattributed(uint64_t request) const {
    std::lock_guard<std::mutex> lock(mu_);
    double sum = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].request != request) continue;
      const SelfTime self = SelfTimeLocked(static_cast<SpanId>(i));
      if (self.num_children > 0) sum += self.ms;
    }
    return sum;
  }

  /// Summed duration of every span called `name` in `request` (work time
  /// when such spans ran concurrently).
  double Total(uint64_t request, const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    double sum = 0;
    for (const Span& s : spans_) {
      if (s.request == request && s.name == name) sum += s.end_ms - s.start_ms;
    }
    return sum;
  }

  double CountValue(uint64_t request, const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counts_.find({request, name});
    return it == counts_.end() ? 0 : it->second;
  }

  /// Every span closed and nested inside its parent. On failure `error`
  /// names the first bad span.
  bool Check(std::string* error) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      if (s.end_ms < s.start_ms) {
        *error = "span " + s.name + " was never closed";
        return false;
      }
      if (s.parent != kNoParent) {
        const Span& p = spans_[static_cast<size_t>(s.parent)];
        if (s.start_ms < p.start_ms || s.end_ms > p.end_ms) {
          *error = "span " + s.name + " lies outside its parent " + p.name;
          return false;
        }
      }
    }
    return true;
  }

  /// {"spans": [...], "counts": [...]}: times in ms since the recorder was
  /// created; self_ms is the span's self time (its whole wall for a leaf).
  void WriteJson(std::ostream& out) const {
    std::lock_guard<std::mutex> lock(mu_);
    const std::streamsize old_precision = out.precision(12);
    out << "{\"spans\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \""
          << s.name << "\", \"start_ms\": " << s.start_ms
          << ", \"end_ms\": " << s.end_ms
          << ", \"self_ms\": " << SelfTimeLocked(static_cast<SpanId>(i)).ms
          << ", \"parent\": " << s.parent << ", \"request\": " << s.request
          << "}";
    }
    out << "\n], \"counts\": [";
    bool first = true;
    for (const auto& [key, value] : counts_) {
      out << (first ? "\n" : ",\n") << "  {\"request\": " << key.first
          << ", \"name\": \"" << key.second << "\", \"value\": " << value
          << "}";
      first = false;
    }
    out << "\n]}";
    out.precision(old_precision);
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct SelfTime {
    double ms = 0;
    size_t num_children = 0;
  };

  double NowMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
        .count();
  }

  /// The gaps of span `id`'s wall around the union of its direct children.
  SelfTime SelfTimeLocked(SpanId id) const {
    const Span& parent = spans_[static_cast<size_t>(id)];
    std::vector<std::pair<double, double>> intervals;
    for (const Span& s : spans_) {
      if (s.parent == id) intervals.emplace_back(s.start_ms, s.end_ms);
    }
    std::sort(intervals.begin(), intervals.end());
    SelfTime self;
    self.num_children = intervals.size();
    double reached = parent.start_ms;  // end of the union swept so far
    for (const auto& [lo, hi] : intervals) {
      if (lo > reached) self.ms += lo - reached;
      reached = std::max(reached, hi);
    }
    self.ms += std::max(0.0, parent.end_ms - reached);
    return self;
  }

  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;                                    // guarded by mu_
  std::map<std::pair<uint64_t, std::string>, double> counts_;  // guarded by mu_
};

}  // namespace e2e
}  // namespace spade

#endif  // SPADE_E2EBENCH_E2E_TRACE_H_
