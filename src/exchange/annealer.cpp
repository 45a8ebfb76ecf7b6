#include "exchange/annealer.h"

#include <cmath>

#include "obs/metrics.h"
#include "obs/progress.h"
#include "util/error.h"
#include "util/faultpoint.h"

namespace fp {
namespace {

/// Column layout of the "sa.cooling" metrics series (matches the
/// sa_trace.csv header emitted by bench_sa_trace).
const std::vector<std::string>& cooling_columns() {
  static const std::vector<std::string> columns{"temperature", "cost",
                                                "accepted_moves"};
  return columns;
}

}  // namespace

std::string_view to_string(AnnealStop stop) {
  switch (stop) {
    case AnnealStop::Completed:
      return "completed";
    case AnnealStop::BudgetExpired:
      return "budget_expired";
    case AnnealStop::FaultInjected:
      return "fault_injected";
  }
  return "unknown";
}

Annealer::Annealer(SaSchedule schedule) : schedule_(schedule) {
  require(schedule_.initial_temperature > 0.0 &&
              schedule_.final_temperature > 0.0,
          "Annealer: temperatures must be positive");
  require(schedule_.final_temperature <= schedule_.initial_temperature,
          "Annealer: final temperature above initial");
  require(schedule_.cooling > 0.0 && schedule_.cooling < 1.0,
          "Annealer: cooling factor must lie in (0, 1)");
  require(schedule_.moves_per_temperature > 0,
          "Annealer: moves_per_temperature must be positive");
  require(!schedule_.metric_prefix.empty(),
          "Annealer: metric_prefix must be non-empty");
}

bool Annealer::begin_step(AnnealResult& result, double temperature,
                          double cost) const {
  // Budget and fault gates: stop cooling; the rewind in run() hands back
  // the best-so-far state.
  if (schedule_.cancel && schedule_.cancel->expired()) {
    result.stop = AnnealStop::BudgetExpired;
    return false;
  }
  if (fault::enabled() && fault::triggered("sa.step")) {
    result.stop = AnnealStop::FaultInjected;
    return false;
  }
  ++result.temperature_steps;
  // The cooling curve: a metrics sample every record_every steps (every
  // step when unset), and a trace counter every step so a Perfetto view
  // always shows the full curve.
  if (obs::metrics_enabled() &&
      (schedule_.record_every <= 0 ||
       (result.temperature_steps - 1) % schedule_.record_every == 0)) {
    obs::sample(schedule_.metric_prefix + ".cooling", cooling_columns(),
                {temperature, cost, static_cast<double>(result.accepted)});
  }
  if (obs::tracing_enabled()) {
    obs::counter(schedule_.metric_prefix,
                 {{"temperature", temperature},
                  {"cost", cost},
                  {"accepted", static_cast<double>(result.accepted)}});
  }
  if (obs::progress_enabled()) {
    // Total cooling steps are fixed by the geometric schedule, so the
    // heartbeat can show a real percentage and ETA.
    const long long total_steps = static_cast<long long>(std::ceil(
        std::log(schedule_.final_temperature /
                 schedule_.initial_temperature) /
        std::log(schedule_.cooling)));
    obs::progress_tick(schedule_.metric_prefix, result.temperature_steps,
                       total_steps);
  }
  return true;
}

void Annealer::finish(const AnnealResult& result) const {
  if (!obs::metrics_enabled()) return;
  const std::string& p = schedule_.metric_prefix;
  obs::count(p + ".runs");
  obs::count(p + ".stop." + std::string(to_string(result.stop)));
  obs::count(p + ".proposed", result.proposed);
  obs::count(p + ".accepted", result.accepted);
  obs::count(p + ".rejected_illegal", result.rejected_illegal);
  obs::count(p + ".temperature_steps", result.temperature_steps);
  obs::gauge(p + ".initial_cost", result.initial_cost);
  obs::gauge(p + ".final_cost", result.final_cost);
  obs::gauge(p + ".best_cost", result.best_cost);
}

}  // namespace fp
