// Linear solvers for the power mesh of power_grid.h.
//
// The system is the 5-point Laplacian with uniform link conductances,
// Dirichlet (Vdd) pad nodes and Neumann die edges -- symmetric positive
// definite on the free nodes as long as at least one pad exists. Both
// back-ends run on one private layout: each vector (and the pad mask and
// the right-hand side, with Vdd folded in) is two colour planes, the red
// nodes (x + y even) then the black ones, each row of one colour
// contiguous, so a red-black half-sweep's interior runs two nodes per
// instruction. No diagonal is stored. Both report the same relative
// residual |b - Av| / |b| and return SolveResult::voltage row-major; the
// test suite checks each against a dense Cholesky solve of the same
// system:
//   * ConjugateGradient -- the default: CG preconditioned by one
//     symmetric geometric-multigrid V-cycle (red-black Gauss-Seidel
//     smoothing and its adjoint, bilinear prolongation and its exact
//     transpose, symmetric sweep pairs on the coarsest level). Its
//     iteration count stays nearly flat as the mesh refines, in the
//     spirit of the fast power-grid solvers the paper cites ([21], [22]);
//   * Sor -- red-black Gauss-Seidel with over-relaxation (omega ~ 1.8;
//     omega = 1 is plain Gauss-Seidel), the fallback.
#pragma once

#include <string_view>
#include <vector>

#include "geom/grid2d.h"
#include "power/power_grid.h"
#include "util/cancel.h"

namespace fp {

enum class SolverKind { Sor, ConjugateGradient };

[[nodiscard]] std::string_view to_string(SolverKind kind);

struct SolverOptions {
  SolverKind kind = SolverKind::ConjugateGradient;
  /// Convergence threshold on the relative residual |r| / |b|.
  double tolerance = 1e-9;
  int max_iterations = 50000;
  /// Over-relaxation factor, used by Sor only.
  double sor_omega = 1.8;
  /// Cooperative deadline: CG polls it every iteration, SOR every 8
  /// sweeps; on expiry they return best-so-far (stop = Budget,
  /// converged = false). Non-owning; null = unlimited.
  const CancelToken* cancel = nullptr;
  /// Optional warm start: a previous voltage field (k x k volts, e.g.
  /// SolveResult::voltage of the last solve on the same mesh) seeding the
  /// iterate instead of the flat-Vdd cold start. After a small pad edit
  /// the old field is already near the new solution, so CG/SOR converge
  /// in a fraction of the cold iteration count; the converged answer is
  /// still driven to the same `tolerance`, so warm and cold results agree
  /// within it (the contract tests/session_test.cpp enforces). CG builds
  /// its V-cycle preconditioner at its first step, so a warm start that
  /// already meets the tolerance returns after one residual pass, with 0
  /// iterations and no V-cycle built. Null (the default) is the cold
  /// start. Non-owning; must match the grid's k x k shape when set.
  const Grid2D<double>* warm_start = nullptr;
};

/// Why the solve loop ended (telemetry; `converged` stays the API truth).
enum class SolveStop {
  Converged,       // residual reached the tolerance
  IterationLimit,  // max_iterations exhausted before converging
  Trivial,         // every node is a pad: the field is exactly Vdd
  Diverged,        // NaN or growing residual: the field is garbage
  Budget,          // SolverOptions::cancel expired: best-so-far returned
};

[[nodiscard]] std::string_view to_string(SolveStop stop);

/// One backend run of the fallback chain (see SolveResult::attempts).
struct SolveAttempt {
  SolverKind kind = SolverKind::ConjugateGradient;
  int iterations = 0;
  double relative_residual = 0.0;
  SolveStop stop = SolveStop::IterationLimit;
};

struct SolveResult {
  Grid2D<double> voltage;  // volts at every node
  int iterations = 0;
  double relative_residual = 0.0;
  bool converged = false;
  SolveStop stop = SolveStop::IterationLimit;
  /// True when SolverOptions::warm_start seeded the iterate (telemetry;
  /// lets callers and tests tell warm re-solves from cold ones).
  bool warm_started = false;
  /// Fallback-chain history, one entry per backend tried by solve()
  /// (size 1 on the healthy path; empty for the trivial all-pads case).
  std::vector<SolveAttempt> attempts;
};

/// Solves for the node voltages. A backend that diverges (NaN or a
/// blowing-up residual) hands over to the next of the fallback chain
/// ConjugateGradient -> Sor. Throws InvalidArgument when the grid has no
/// pads (the system would be singular) and SolverError when every backend
/// of the chain diverges.
[[nodiscard]] SolveResult solve(const PowerGrid& grid,
                                const SolverOptions& options = {});

/// Worst IR-drop: Vdd minus the lowest node voltage (volts). Requires a
/// non-diverged result (converged, iteration-limited, budget-expired or
/// trivial); a Diverged voltage field is garbage and reading it silently
/// was a misuse risk, so it throws InvalidArgument instead.
[[nodiscard]] double max_ir_drop(const PowerGrid& grid,
                                 const SolveResult& result);

/// Mean IR-drop over all nodes (volts). Same precondition as max_ir_drop.
[[nodiscard]] double mean_ir_drop(const PowerGrid& grid,
                                  const SolveResult& result);

}  // namespace fp
