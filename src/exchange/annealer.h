// Generic simulated-annealing driver (Kirkpatrick et al. [7], as cited by
// the paper's Fig. 14).
//
// Note on fidelity: Fig. 14 line 12 accepts an uphill move when
// "Random(0,1) > exp(-dC/T)", which inverts the Metropolis criterion and
// would accept *more* moves the worse they are. We implement the standard
// criterion (accept when Random(0,1) < exp(-dC/T)); the pseudocode is
// evidently a typo since the paper cites [7] for the algorithm.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

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
  /// A move proposal: perturbs the caller's state in place and returns the
  /// new total cost, or nullopt when the sampled move is illegal (state
  /// unchanged).
  using TryMove = std::function<std::optional<double>(Rng&)>;
  /// Reverts the newest successful TryMove not yet reverted. run() calls
  /// it right after each rejected move and, before it returns, once per
  /// accepted move made after the best state, so it must act as a stack.
  using Undo = std::function<void()>;

  explicit Annealer(SaSchedule schedule);

  /// Runs the schedule; on return the caller's state holds the best
  /// configuration seen (the newest one on ties), whose cost is
  /// AnnealResult::final_cost.
  AnnealResult run(double initial_cost, const TryMove& try_move,
                   const Undo& undo) const;

 private:
  SaSchedule schedule_;
};

}  // namespace fp
