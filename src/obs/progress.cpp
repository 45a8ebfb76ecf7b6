#include "obs/progress.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace fp::obs {

namespace detail {
std::atomic<int> g_progress{0};
}  // namespace detail

namespace {

/// Heartbeat pacing: in-place terminal updates may repaint often; plain
/// log lines (CI, redirected stderr) are kept to one per second.
constexpr double kTtyIntervalS = 0.1;
constexpr double kLineIntervalS = 1.0;

struct ProgressState {
  std::mutex mutex;
  std::string stage;
  std::chrono::steady_clock::time_point stage_start;
  std::chrono::steady_clock::time_point last_render;
  bool rendered = false;      // an in-place line is on screen
  std::size_t last_width = 0;  // width of that line, for clean erasing
  ProgressSnapshot snapshot;   // latest tick, when capture is armed
};

ProgressState& state() {
  static ProgressState instance;
  return instance;
}

bool stderr_is_tty() {
#if defined(__unix__) || defined(__APPLE__)
  static const bool tty = isatty(fileno(stderr)) != 0;
  return tty;
#else
  return false;
#endif
}

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Renders `line` to stderr: \r-overwrite on a terminal, a plain line
/// otherwise. Caller holds the state mutex.
void emit(ProgressState& s, const std::string& line) {
  if (stderr_is_tty()) {
    std::string padded = line;
    if (s.last_width > padded.size()) {
      padded.append(s.last_width - padded.size(), ' ');
    }
    std::fprintf(stderr, "\r%s", padded.c_str());
    std::fflush(stderr);
    s.rendered = true;
    s.last_width = line.size();
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

/// True when the given mode bit is set.
bool mode_on(int bit) {
  return (detail::g_progress.load(std::memory_order_relaxed) & bit) != 0;
}

void set_mode_bit(int bit, bool on) {
  int current = detail::g_progress.load(std::memory_order_relaxed);
  int wanted = on ? (current | bit) : (current & ~bit);
  while (!detail::g_progress.compare_exchange_weak(
      current, wanted, std::memory_order_relaxed,
      std::memory_order_relaxed)) {
    wanted = on ? (current | bit) : (current & ~bit);
  }
}

}  // namespace

void set_progress_enabled(bool on) {
  set_mode_bit(detail::kProgressRender, on);
}

void set_progress_capture(bool on) {
  set_mode_bit(detail::kProgressCapture, on);
}

bool arm_progress_from_env() {
  const char* env = std::getenv("FPKIT_PROGRESS");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "0") == 0) {
    return false;
  }
  set_progress_enabled(true);
  return true;
}

std::string percent_line(std::string_view stage, double fraction,
                         std::string_view counts, double elapsed_s) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "] %3.0f%% (", fraction * 100.0);
  std::string line = "[";
  line.append(stage).append(buf).append(counts).append(")");
  if (fraction > 0.0 && fraction < 1.0 && elapsed_s > 0.0) {
    std::snprintf(buf, sizeof(buf), " eta %.1fs",
                  elapsed_s * (1.0 - fraction) / fraction);
    line += buf;
  }
  return line;
}

std::string progress_line(std::string_view stage, long long done,
                          long long total, double elapsed_s) {
  if (total > 0) {
    const long long clamped = done < 0 ? 0 : (done > total ? total : done);
    return percent_line(
        stage, static_cast<double>(clamped) / static_cast<double>(total),
        std::to_string(clamped) + "/" + std::to_string(total), elapsed_s);
  }
  char buf[160];
  if (done > 0) {
    std::snprintf(buf, sizeof(buf), "[%.*s] %lld units",
                  static_cast<int>(stage.size()), stage.data(), done);
  } else {
    std::snprintf(buf, sizeof(buf), "[%.*s] ...",
                  static_cast<int>(stage.size()), stage.data());
  }
  return buf;
}

void progress_stage(std::string_view stage) {
  if (!progress_enabled()) return;
  ProgressState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  const auto now = std::chrono::steady_clock::now();
  s.stage.assign(stage);
  s.stage_start = now;
  if (mode_on(detail::kProgressCapture)) {
    s.snapshot.stage.assign(stage);
    s.snapshot.done = 0;
    s.snapshot.total = 0;
    s.snapshot.valid = true;
  }
  if (!mode_on(detail::kProgressRender)) return;
  s.last_render = now;
  emit(s, progress_line(stage, 0, 0, 0.0));
}

void progress_tick(std::string_view stage, long long done, long long total) {
  if (!progress_enabled()) return;
  ProgressState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  const auto now = std::chrono::steady_clock::now();
  const bool stage_changed = s.stage != stage;
  if (stage_changed) {
    s.stage.assign(stage);
    s.stage_start = now;
  }
  if (mode_on(detail::kProgressCapture)) {
    s.snapshot.stage.assign(stage);
    s.snapshot.done = done;
    s.snapshot.total = total;
    s.snapshot.valid = true;
  }
  if (!mode_on(detail::kProgressRender)) return;
  if (!stage_changed) {
    const double interval =
        stderr_is_tty() ? kTtyIntervalS : kLineIntervalS;
    // Always render the final tick so a finished stage shows 100%.
    if (seconds_between(s.last_render, now) < interval &&
        !(total > 0 && done >= total)) {
      return;
    }
  }
  s.last_render = now;
  emit(s, progress_line(stage, done, total,
                        seconds_between(s.stage_start, now)));
}

ProgressSnapshot progress_snapshot() {
  ProgressState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  return s.snapshot;
}

void progress_render(const std::string& line, bool final) {
  if (!mode_on(detail::kProgressRender)) return;
  ProgressState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  const auto now = std::chrono::steady_clock::now();
  const double interval = stderr_is_tty() ? kTtyIntervalS : kLineIntervalS;
  if (!final && s.rendered &&
      seconds_between(s.last_render, now) < interval) {
    return;
  }
  s.last_render = now;
  emit(s, line);
}

void progress_finish() {
  if (!mode_on(detail::kProgressRender)) return;
  ProgressState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  if (!s.rendered) return;
  std::fprintf(stderr, "\r%*s\r", static_cast<int>(s.last_width), "");
  std::fflush(stderr);
  s.rendered = false;
  s.last_width = 0;
}

}  // namespace fp::obs
