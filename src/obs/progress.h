// Live run progress for long flows (docs/DASHBOARD.md): heartbeat lines
// on stderr with the active stage, a percent-complete derived from the
// stage's own unit counter (SA temperature steps, solver iterations,
// router improvement passes) and a naive linear ETA. The same ticks can
// rewrite a heartbeat file instead: a farm worker's liveness signal.
//
// Opt-in via `fpkit ... --progress`, FPKIT_PROGRESS=1 or a heartbeat
// file. Like the tracer and the metrics registry, the disabled path is
// one relaxed atomic load per heartbeat site -- no clock read, no lock,
// no allocation -- so a run without progress stays bit-identical to an
// uninstrumented build (tests/dash_test.cpp asserts this). Lines go to
// stderr and beats to the file only; stdout and every result are
// untouched.
#pragma once

#include <atomic>
#include <string>
#include <string_view>

namespace fp::obs {

namespace detail {
// Bitmask: render heartbeats to stderr, and/or write them to the armed
// heartbeat file. One atomic keeps the disabled fast path at a single
// relaxed load.
inline constexpr int kProgressRender = 1;
inline constexpr int kProgressHeartbeat = 2;
extern std::atomic<int> g_progress;
}  // namespace detail

/// True when heartbeat sites do anything at all (one relaxed load).
inline bool progress_enabled() {
  return detail::g_progress.load(std::memory_order_relaxed) != 0;
}

/// Turns stderr heartbeat rendering on or off (the file is unaffected).
void set_progress_enabled(bool on);

/// Arms the heartbeat file at `path`, or disarms it with "" (rendering is
/// unaffected). While armed, progress_stage and progress_tick rewrite the
/// file with {"stage","done","total"} at most once per 200 ms; a farm
/// worker arms its --heartbeat-file here.
void set_progress_heartbeat(std::string path);

/// Arms progress when FPKIT_PROGRESS is set to anything but "" or "0";
/// returns whether it armed. The CLI calls this next to --progress.
bool arm_progress_from_env();

/// The most recent stage or tick, recorded whenever progress is on.
struct ProgressSnapshot {
  std::string stage;
  long long done = 0;
  long long total = 0;
  bool valid = false;  // false until the first stage/tick with progress on
};

/// Returns the latest snapshot; `valid` is false before the first stage
/// or tick that arrived while progress was on.
[[nodiscard]] ProgressSnapshot progress_snapshot();

/// Renders an externally composed line through the same throttle and
/// \r-overwrite machinery as progress_tick (the farm supervisor's merged
/// "[farm] ..." line). `final` bypasses the throttle so the last render
/// always lands. No-op unless rendering is enabled.
void progress_render(const std::string& line, bool final = false);

/// Announces a new stage ("assign", "exchange", ...): resets the stage
/// clock, renders one heartbeat immediately and beats the armed file
/// (throttled). No-op when disabled.
void progress_stage(std::string_view stage);

/// Reports `done` of `total` units for `stage` and renders a throttled
/// heartbeat (in-place \r updates on a terminal, rate-limited plain lines
/// otherwise) and beats the armed file (throttled). `total <= 0` renders
/// the unit count without a percentage. No-op when disabled.
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
