// Live run progress for long flows (docs/DASHBOARD.md): heartbeat lines
// on stderr with the active stage, a percent-complete derived from the
// stage's own unit counter (SA temperature steps, solver iterations,
// router improvement passes) and a naive linear ETA.
//
// Opt-in via `fpkit ... --progress` or FPKIT_PROGRESS=1. Like the tracer
// and the metrics registry, the disabled path is one relaxed atomic load
// per heartbeat site -- no clock read, no lock, no allocation -- so a run
// without --progress stays bit-identical to an uninstrumented build
// (tests/dash_test.cpp asserts this). When enabled, everything goes to
// stderr only; stdout and every numeric result are untouched.
#pragma once

#include <atomic>
#include <string>
#include <string_view>

namespace fp::obs {

namespace detail {
// Bitmask: render heartbeats to stderr, and/or capture the latest tick
// for progress_snapshot(). One atomic keeps the disabled fast path at a
// single relaxed load.
inline constexpr int kProgressRender = 1;
inline constexpr int kProgressCapture = 2;
extern std::atomic<int> g_progress;
}  // namespace detail

/// True when heartbeat sites do anything at all (one relaxed load).
inline bool progress_enabled() {
  return detail::g_progress.load(std::memory_order_relaxed) != 0;
}

/// Turns stderr heartbeat rendering on or off (capture is unaffected).
void set_progress_enabled(bool on);

/// Turns snapshot capture on or off (rendering is unaffected). Farm
/// workers run with capture only: their ticks go to the heartbeat file,
/// not to stderr, and the supervisor renders the folded farm line.
void set_progress_capture(bool on);

/// Arms progress when FPKIT_PROGRESS is set to anything but "" or "0";
/// returns whether it armed. The CLI calls this next to --progress.
bool arm_progress_from_env();

/// The most recent tick, for code that forwards progress instead of
/// rendering it (the farm worker's heartbeat thread).
struct ProgressSnapshot {
  std::string stage;
  long long done = 0;
  long long total = 0;
  bool valid = false;  // false until the first stage/tick after arming
};

/// Returns the captured snapshot; `valid` is false while capture is off
/// or before the first heartbeat arrives.
[[nodiscard]] ProgressSnapshot progress_snapshot();

/// Renders an externally composed line through the same throttle and
/// \r-overwrite machinery as progress_tick (the farm supervisor's merged
/// "[farm] ..." line). `final` bypasses the throttle so the last render
/// always lands. No-op unless rendering is enabled.
void progress_render(const std::string& line, bool final = false);

/// Announces a new stage ("assign", "exchange", ...): resets the stage
/// clock and renders one heartbeat immediately. No-op when disabled.
void progress_stage(std::string_view stage);

/// Reports `done` of `total` units for `stage` and renders a throttled
/// heartbeat (in-place \r updates on a terminal, rate-limited plain lines
/// otherwise). `total <= 0` renders the unit count without a percentage.
/// No-op when disabled.
void progress_tick(std::string_view stage, long long done, long long total);

/// Clears the in-place status line (terminal mode); call before handing
/// stderr back. No-op when disabled or when nothing was rendered.
void progress_finish();

/// One rendered heartbeat line, without the trailing newline/carriage
/// return ("[exchange] 42% (123/290) eta 1.2s"). Exposed for tests; pure.
[[nodiscard]] std::string progress_line(std::string_view stage,
                                        long long done, long long total,
                                        double elapsed_s);

/// The percent line every heartbeat with a known total renders:
/// "[stage] pct (counts) eta Xs", the percent of `fraction` in [0, 1]
/// and, while 0 < fraction < 1 and elapsed_s > 0, the linear ETA.
/// progress_line and the farm's lines pass only their counts text. Pure.
[[nodiscard]] std::string percent_line(std::string_view stage,
                                       double fraction,
                                       std::string_view counts,
                                       double elapsed_s);

}  // namespace fp::obs
