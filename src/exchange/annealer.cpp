#include "exchange/annealer.h"

#include <cmath>

#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
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

AnnealResult Annealer::run(double initial_cost, const TryMove& try_move,
                           const Undo& undo) const {
  const obs::ScopedSpan span(schedule_.metric_prefix + ".anneal", "exchange");
  Rng rng(schedule_.seed);
  AnnealResult result;
  result.initial_cost = initial_cost;
  result.best_cost = initial_cost;

  double cost = initial_cost;
  // Accepted moves since the newest state whose cost is <= best_cost
  // (ties move the mark to the later state). They are undone before the
  // run returns, so the caller is left holding the best state.
  long long since_best = 0;
  for (double temperature = schedule_.initial_temperature;
       temperature > schedule_.final_temperature;
       temperature *= schedule_.cooling) {
    // Budget and fault gates: stop cooling; the rewind below hands back
    // the best-so-far state.
    if (schedule_.cancel && schedule_.cancel->expired()) {
      result.stop = AnnealStop::BudgetExpired;
      break;
    }
    if (fault::enabled() && fault::triggered("sa.step")) {
      result.stop = AnnealStop::FaultInjected;
      break;
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
    for (int i = 0; i < schedule_.moves_per_temperature; ++i) {
      // Inner-loop budget poll, every 64 proposals so huge
      // moves_per_temperature settings still honour the deadline.
      if (schedule_.cancel && (result.proposed & 63) == 0 &&
          schedule_.cancel->expired()) {
        result.stop = AnnealStop::BudgetExpired;
        break;
      }
      ++result.proposed;
      const std::optional<double> new_cost = try_move(rng);
      if (!new_cost.has_value()) {
        ++result.rejected_illegal;
        continue;
      }
      const double delta = *new_cost - cost;
      const bool accept =
          delta <= 0.0 || rng.uniform() < std::exp(-delta / temperature);
      if (accept) {
        ++result.accepted;
        cost = *new_cost;
        if (cost <= result.best_cost) {
          result.best_cost = cost;
          since_best = 0;
        } else {
          ++since_best;
        }
      } else {
        undo();
      }
    }
    if (result.stop != AnnealStop::Completed) break;
  }
  for (; since_best > 0; --since_best) undo();
  result.final_cost = result.best_cost;
  if (obs::metrics_enabled()) {
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
  return result;
}

}  // namespace fp
