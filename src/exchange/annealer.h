// Generic simulated-annealing driver (Kirkpatrick et al. [7], as cited by
// the paper's Fig. 14).
//
// Note on fidelity: Fig. 14 line 12 accepts an uphill move when
// "Random(0,1) > exp(-dC/T)", which inverts the Metropolis criterion and
// would accept *more* moves the worse they are. We implement the standard
// criterion (accept when Random(0,1) < exp(-dC/T)); the pseudocode is
// evidently a typo since the paper cites [7] for the algorithm.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "obs/trace.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace fp {

struct SaSchedule {
  double initial_temperature = 1.0;
  double final_temperature = 1e-4;
  /// Geometric cooling factor in (0, 1).
  double cooling = 0.98;
  /// Proposals attempted at each temperature.
  int moves_per_temperature = 64;
  std::uint64_t seed = 1;
  /// Independent annealing replicas run by multi-start drivers (the flow's
  /// exchange stage, `fpkit ... --restarts N`). Replica i is seeded
  /// seed + i and runs the full schedule; the lowest final Eq.-(3) cost
  /// wins, ties broken by the lowest replica index, so the winner is the
  /// same at every thread count. 1 = plain single-run annealing.
  int restarts = 1;
  /// When > 0, the "<metric_prefix>.cooling" metrics series (columns
  /// temperature, cost, accepted_moves) takes one sample every
  /// `record_every` temperature steps instead of every step.
  int record_every = 0;
  /// Prefix for every metric and trace-counter name this run emits
  /// ("sa" -> "sa.runs", "sa.cooling", ...). Multi-start drivers set
  /// "sa.replica<i>" per replica so concurrent replicas never alias one
  /// another's counters; the winner's numbers are re-exported under the
  /// plain "sa." names afterwards (see ExchangeOptimizer).
  std::string metric_prefix = "sa";
  /// Cooperative deadline polled every temperature step and every 64
  /// proposals; on expiry the run stops, returns its best-so-far state and
  /// sets AnnealResult::stop = BudgetExpired. Non-owning; null = unlimited.
  const CancelToken* cancel = nullptr;
};

/// Why the annealing loop ended.
enum class AnnealStop {
  Completed,      // full cooling schedule ran
  BudgetExpired,  // SaSchedule::cancel fired: best-so-far state returned
  FaultInjected,  // the "sa.step" fault site fired (resilience tests)
};

[[nodiscard]] std::string_view to_string(AnnealStop stop);

struct AnnealResult {
  double initial_cost = 0.0;
  /// Cost of the returned state. The run rewinds to the best state it
  /// saw, so this equals best_cost.
  double final_cost = 0.0;
  double best_cost = 0.0;
  long long proposed = 0;
  long long accepted = 0;
  long long rejected_illegal = 0;
  int temperature_steps = 0;
  /// Completed on the healthy path; BudgetExpired/FaultInjected when the
  /// run stopped early (the caller's state is still its best-so-far, legal
  /// configuration -- every accepted move kept the invariants).
  AnnealStop stop = AnnealStop::Completed;
};

class Annealer {
 public:
  explicit Annealer(SaSchedule schedule);

  /// Runs the schedule over the caller's state through three callables:
  ///   * propose(Rng&) -> std::optional<double> samples one move, drawing
  ///     from the Rng, and returns the cost the state would have after it,
  ///     or nullopt when the move is illegal. It leaves the state as it
  ///     was;
  ///   * commit() makes the move the last propose sampled, once it is
  ///     accepted;
  ///   * undo() reverts the newest commit not yet reverted. Only the final
  ///     rewind to the best state calls it, once per move committed after
  ///     that state, so it must act as a stack.
  /// On return the caller's state holds the best configuration seen (the
  /// newest one on ties), whose cost is AnnealResult::final_cost.
  template <typename Propose, typename Commit, typename Undo>
  AnnealResult run(double initial_cost, Propose&& propose, Commit&& commit,
                   Undo&& undo) const;

 private:
  /// Opens one temperature step: the budget and fault gates (false, with
  /// result.stop set, when the run must stop), then the cooling sample,
  /// the trace counter and the progress tick.
  bool begin_step(AnnealResult& result, double temperature,
                  double cost) const;
  /// Records the finished run's sa.* counters and gauges.
  void finish(const AnnealResult& result) const;

  SaSchedule schedule_;
};

template <typename Propose, typename Commit, typename Undo>
AnnealResult Annealer::run(double initial_cost, Propose&& propose,
                           Commit&& commit, Undo&& undo) const {
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
    if (!begin_step(result, temperature, cost)) break;
    for (int i = 0; i < schedule_.moves_per_temperature; ++i) {
      // Inner-loop budget poll, every 64 proposals so huge
      // moves_per_temperature settings still honour the deadline.
      if (schedule_.cancel && (result.proposed & 63) == 0 &&
          schedule_.cancel->expired()) {
        result.stop = AnnealStop::BudgetExpired;
        break;
      }
      ++result.proposed;
      const std::optional<double> new_cost = propose(rng);
      if (!new_cost.has_value()) {
        ++result.rejected_illegal;
        continue;
      }
      const double delta = *new_cost - cost;
      if (delta <= 0.0 || rng.uniform() < std::exp(-delta / temperature)) {
        commit();
        ++result.accepted;
        cost = *new_cost;
        if (cost <= result.best_cost) {
          result.best_cost = cost;
          since_best = 0;
        } else {
          ++since_best;
        }
      }
    }
    if (result.stop != AnnealStop::Completed) break;
  }
  for (; since_best > 0; --since_best) undo();
  result.final_cost = result.best_cost;
  finish(result);
  return result;
}

}  // namespace fp
