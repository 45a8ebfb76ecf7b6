// Cooperative cancellation/deadline token backing FlowOptions::budget.
//
// A CancelToken either never expires (default) or carries a steady-clock
// deadline; long-running loops (the SA inner loop, solver iterations,
// global-router improvement passes) poll `expired()` every few dozen
// steps and return their best-so-far state when it fires. The token is a
// plain value; stages hand non-owning pointers down to the loops they
// budget. Since the exec layer (exec/exec.h) fans those loops out over
// pool workers, the manual-cancellation flag is an atomic: `cancel()`
// may race with `expired()` polls from any worker.
//
// `child(seconds)` derives a per-stage token whose deadline is the
// tighter of the parent's deadline and now + seconds, which is how a
// total-run budget caps every stage while a per-stage budget can only
// shrink the window further. Budget semantics are documented in
// docs/ROBUSTNESS.md.
//
// A token can additionally be *interrupt-linked*
// (`set_interrupt_linked`): it then also expires once the process has
// received SIGINT/SIGTERM (util/signal.h). That is how `fpkit run`,
// `batch` and the farm workers turn an operator interrupt into the same
// keep-best-so-far degrade path a budget expiry takes -- children
// inherit the link, so one flag at the run token covers every stage.
#pragma once

#include <atomic>
#include <chrono>

#include "util/signal.h"

namespace fp {

class CancelToken {
 public:
  /// A token that never expires.
  CancelToken() = default;

  CancelToken(const CancelToken& other)
      : has_deadline_(other.has_deadline_),
        interrupt_linked_(other.interrupt_linked_),
        cancelled_(other.cancelled_.load(std::memory_order_relaxed)),
        deadline_(other.deadline_) {}

  CancelToken& operator=(const CancelToken& other) {
    has_deadline_ = other.has_deadline_;
    interrupt_linked_ = other.interrupt_linked_;
    cancelled_.store(other.cancelled_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    deadline_ = other.deadline_;
    return *this;
  }

  /// Expires `seconds` from now; `seconds` <= 0 is already expired.
  [[nodiscard]] static CancelToken after_seconds(double seconds) {
    CancelToken token;
    token.has_deadline_ = true;
    token.deadline_ =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    return token;
  }

  /// The tighter of this token's deadline and now + `seconds`;
  /// `seconds` <= 0 means "no extra stage limit" and returns a copy.
  [[nodiscard]] CancelToken child(double seconds) const {
    if (seconds <= 0.0) return *this;
    CancelToken token = CancelToken::after_seconds(seconds);
    token.interrupt_linked_ = interrupt_linked_;
    token.cancelled_.store(cancelled_.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    if (has_deadline_ && deadline_ < token.deadline_) {
      token.deadline_ = deadline_;
    }
    return token;
  }

  /// Manual cancellation, independent of any deadline. Safe to call
  /// while pool workers poll expired().
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Links this token (and every child derived from it afterwards) to
  /// the process-wide SIGINT/SIGTERM flag: expired() then also fires
  /// once sig::interrupted() is true. Off by default so library callers
  /// keep full control of signal semantics.
  void set_interrupt_linked(bool linked) { interrupt_linked_ = linked; }

  /// True when cancelled, interrupted (if linked), or past the deadline.
  /// Cheap enough for every-few-iterations polling (one clock read, and
  /// none at all for undeadlined tokens).
  [[nodiscard]] bool expired() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (interrupt_linked_ && sig::interrupted()) return true;
    return has_deadline_ && Clock::now() >= deadline_;
  }

  /// True when this token can ever expire (deadline set, cancelled, or
  /// interrupt-linked); loops may skip the clock read entirely for
  /// unlimited tokens.
  [[nodiscard]] bool limited() const {
    return has_deadline_ || interrupt_linked_ ||
           cancelled_.load(std::memory_order_relaxed);
  }

  /// Seconds until expiry; 0 when expired, a large value when unlimited.
  [[nodiscard]] double remaining_s() const {
    if (cancelled_.load(std::memory_order_relaxed)) return 0.0;
    if (interrupt_linked_ && sig::interrupted()) return 0.0;
    if (!has_deadline_) return 1e30;
    const double left =
        std::chrono::duration<double>(deadline_ - Clock::now()).count();
    return left > 0.0 ? left : 0.0;
  }

 private:
  using Clock = std::chrono::steady_clock;
  bool has_deadline_ = false;
  bool interrupt_linked_ = false;
  std::atomic<bool> cancelled_{false};
  Clock::time_point deadline_{};
};

}  // namespace fp
