// Wall-clock stopwatch and deadlines. The stopwatch times phases (the
// optimization-time experiments of Table IV and Figures 6a and 7,
// execution and serving latency) and circuit-breaker cooldowns. The
// Deadline is the optimizer's one budget (OptimizeOptions::deadline),
// which the server sets per query. Everything here is steady_clock on
// purpose: injected slowness (common/fault.h) and NTP adjustments must
// never warp elapsed-time or deadline math, so no conversion through
// system_clock is allowed anywhere in deadline handling.

#ifndef PARQO_COMMON_STOPWATCH_H_
#define PARQO_COMMON_STOPWATCH_H_

#include <chrono>

namespace parqo {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// A monotonic point in time after which work should give up. Cheap to
/// copy; the infinite deadline never expires and is the default everywhere
/// so enabling the machinery costs one comparison on probe.
class Deadline {
 public:
  /// Never expires.
  Deadline() = default;
  static Deadline Infinite() { return Deadline(); }

  /// Expires `seconds` of steady-clock time from now. Non-positive values
  /// produce an already-expired deadline.
  static Deadline AfterSeconds(double seconds) {
    Deadline d;
    d.infinite_ = false;
    d.at_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
    return d;
  }

  bool Expired() const { return !infinite_ && Clock::now() >= at_; }

 private:
  using Clock = std::chrono::steady_clock;
  bool infinite_ = true;
  Clock::time_point at_{};
};

}  // namespace parqo

#endif  // PARQO_COMMON_STOPWATCH_H_
