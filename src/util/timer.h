// Wall-clock stopwatch used by benches and the codesign flow report,
// and the stage record both of them report.
#pragma once

#include <chrono>
#include <string>

namespace fp {

/// Wall-clock time of one named stage: a flow stage
/// (FlowResult::stage_timings) or a manifest entry (obs::RunManifest).
struct StageTiming {
  std::string name;
  double seconds = 0.0;
};

class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Milliseconds elapsed since construction or last reset().
  [[nodiscard]] double millis() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace fp
