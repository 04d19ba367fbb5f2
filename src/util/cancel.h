#ifndef SPADE_UTIL_CANCEL_H_
#define SPADE_UTIL_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace spade {

/// \brief Why a run stopped early.
///
/// The distinction matters for determinism (see CancelCheck below): a budget
/// trip is itself deterministic and the run keeps draining work already
/// admitted, whereas a deadline or external cancel aborts in-flight work at
/// the next check point.
enum class CancelReason : uint8_t {
  kNone = 0,
  kCancelled,  // external CancelToken::Cancel()
  kDeadline,   // Deadline expired
  kBudget,     // resource budget exceeded (max_bitmap_bytes)
};

const char* CancelReasonName(CancelReason reason);

/// \brief Shared cancellation flag, first-cancel-wins.
///
/// One token is observed by every worker of a run; Cancel() may be called
/// from any thread (including a worker that trips a budget). The flag only
/// ever transitions kNone -> some reason, so a relaxed load on the hot path
/// is safe: a late observation merely delays the stop by one check interval.
class CancelToken {
 public:
  CancelToken() : state_(static_cast<uint8_t>(CancelReason::kNone)) {}

  /// Requests cancellation. The first caller's reason sticks.
  void Cancel(CancelReason reason = CancelReason::kCancelled) {
    uint8_t expected = static_cast<uint8_t>(CancelReason::kNone);
    state_.compare_exchange_strong(expected, static_cast<uint8_t>(reason),
                                   std::memory_order_relaxed);
  }

  bool cancelled() const {
    return state_.load(std::memory_order_relaxed) !=
           static_cast<uint8_t>(CancelReason::kNone);
  }

  CancelReason reason() const {
    return static_cast<CancelReason>(state_.load(std::memory_order_relaxed));
  }

  /// Re-arms a token for reuse (serve mode keeps one per request slot).
  void Reset() {
    state_.store(static_cast<uint8_t>(CancelReason::kNone),
                 std::memory_order_relaxed);
  }

 private:
  std::atomic<uint8_t> state_;
};

/// `ms` after `base` on the steady clock. Not above 0 (NaN included) is
/// `base`; a wait the clock cannot represent (within 1 ms of its end, +inf
/// included) is time_point::max(), a time that never comes.
inline std::chrono::steady_clock::time_point SteadyAfter(
    std::chrono::steady_clock::time_point base, double ms) {
  using Clock = std::chrono::steady_clock;
  if (!(ms > 0)) return base;
  const std::chrono::duration<double, std::milli> wait(ms);
  // The 1 ms margin absorbs the rounding of the double comparison, so the
  // cast and the sum below stay in range.
  if (wait >= Clock::time_point::max() - base - std::chrono::milliseconds(1)) {
    return Clock::time_point::max();
  }
  return base + std::chrono::duration_cast<Clock::duration>(wait);
}

/// \brief A wall-clock cutoff on the steady clock.
///
/// Deadline::Never() never expires; Deadline::After(0) is already expired
/// (callers use that to probe "return immediately with empty results").
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  static Deadline Never() { return Deadline(Clock::time_point::max()); }
  /// `ms` from now. Not above 0 (NaN included) is already expired; a wait
  /// the clock cannot represent (within 1 ms of its end, +inf included)
  /// never expires.
  static Deadline After(double ms) {
    if (!(ms > 0)) return Deadline(Clock::time_point::min());
    return Deadline(SteadyAfter(Clock::now(), ms));
  }

  bool never() const { return when_ == Clock::time_point::max(); }
  bool expired() const { return !never() && Clock::now() >= when_; }

 private:
  explicit Deadline(Clock::time_point when) : when_(when) {}
  Clock::time_point when_;
};

/// \brief The pair of predicates a run consults while working.
///
/// Two predicates, not one, because they serve different determinism needs:
///
///  - AbortNow(): "stop touching in-flight work". True only for deadline
///    expiry or an external cancel — the cases where timeliness beats
///    completeness. Hot loops check this; the resulting output prefix is
///    config-dependent in *length* but always a canonical-order prefix.
///  - SkipNewWork(): "admit nothing new". True for ANY cancellation,
///    including a budget trip. Budget trips deliberately do NOT abort
///    in-flight sibling work: the already-admitted fact sets drain to
///    completion, so the committed prefix is identical at every
///    thread/shard count (the trip point itself is computed in the
///    emit's serial canonical pre-pass over bit-identical cells).
///
/// A default-constructed CancelCheck never fires; passing nullptr for the
/// token with a Never deadline likewise costs a couple of predictable
/// branches per check.
class CancelCheck {
 public:
  CancelCheck() : token_(nullptr), deadline_(Deadline::Never()) {}
  CancelCheck(CancelToken* token, Deadline deadline)
      : token_(token), deadline_(deadline) {}

  /// True when in-flight work should stop at the next check point
  /// (deadline expired or externally cancelled — never for budget).
  bool AbortNow() const {
    if (token_ != nullptr) {
      CancelReason r = token_->reason();
      if (r == CancelReason::kCancelled || r == CancelReason::kDeadline) {
        return true;
      }
    }
    if (deadline_.expired()) {
      // Latch the reason so every other worker (and the final report) sees
      // a consistent kDeadline without re-reading the clock.
      if (token_ != nullptr) token_->Cancel(CancelReason::kDeadline);
      return true;
    }
    return false;
  }

  /// True when no *new* work should be admitted (any reason, incl. budget).
  bool SkipNewWork() const {
    if (token_ != nullptr && token_->cancelled()) return true;
    return AbortNow();
  }

  CancelReason reason() const {
    if (token_ != nullptr && token_->cancelled()) return token_->reason();
    if (deadline_.expired()) return CancelReason::kDeadline;
    return CancelReason::kNone;
  }

  CancelToken* token() const { return token_; }

 private:
  CancelToken* token_;
  Deadline deadline_;
};

}  // namespace spade

#endif  // SPADE_UTIL_CANCEL_H_
