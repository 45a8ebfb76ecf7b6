// Regenerates Table 3: the finger/pad exchange step on top of DFA, for the
// 2-D case (psi = 1: max density after DFA / after exchanging and the
// improved IR-drop %) and the stacking case (psi = 4: the same plus the
// improved bonding-wire %).
//
// Paper's published shape: exchanging trades a small density increase
// (e.g. 6 -> 8) for IR-drop improvements averaging 10.61% at psi = 1 and
// 4.58% at psi = 4, and bonding wires improve by 15.66% on average.
//
// The harness checks that shape on its own table and exits 1 on a miss
// (ctest label `paper_shapes`): on every circuit the exchange lowers max
// IR-drop at both psi and improves bonding at psi = 4, circuit 1 gains
// more IR-drop than circuit 5 at both psi, and the density increase stays
// within kMaxDensityIncrease2d / kMaxDensityIncreaseS4. These bounds pin
// the reproduction; do not widen them to make a change pass.
#include <cstdio>
#include <string>
#include <vector>

#include "assign/dfa.h"
#include "bench_common.h"
#include "io/csv.h"
#include "io/table.h"
#include "route/router.h"
#include "util/strings.h"
#include "util/timer.h"

namespace {

/// Largest max-density increase the exchange may pay, per psi
/// (measured: +0..+3 at psi = 1, +4..+6 at psi = 4).
constexpr int kMaxDensityIncrease2d = 3;
constexpr int kMaxDensityIncreaseS4 = 6;

struct CaseResult {
  int density_dfa = 0;
  int density_exchanged = 0;
  double ir_improvement = 0.0;
  double bonding_improvement = 0.0;
};

CaseResult run_case(const fp::CircuitSpec& base, int tiers) {
  using namespace fp;
  CircuitSpec spec = base;
  spec.tier_count = tiers;
  const Package package = CircuitGenerator::generate(spec);

  FlowOptions options;
  options.method = AssignmentMethod::Dfa;
  options.grid_spec = bench::standard_grid();
  options.exchange = bench::standard_exchange(spec.seed);
  const FlowResult result = CodesignFlow(options).run(package);

  CaseResult out;
  out.density_dfa = result.max_density_initial;
  out.density_exchanged = result.max_density_final;
  out.ir_improvement = result.ir_improvement_percent();
  out.bonding_improvement = result.bonding_improvement_percent();
  return out;
}

/// Prints one shape claim and returns whether it holds.
bool claim(bool holds, const std::string& what) {
  std::printf("  %-62s %s\n", what.c_str(), holds ? "HOLDS" : "MISSES");
  return holds;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fp;
  bench::parse_out_flag(argc, argv);

  TablePrinter table({"Input case", "2D den DFA", "2D den exch",
                      "2D impr IR-drop (%)", "S4 den DFA", "S4 den exch",
                      "S4 impr IR-drop (%)", "S4 impr bonding (%)"});
  CsvWriter csv({"circuit", "den_dfa_2d", "den_exch_2d", "ir_impr_2d_pct",
                 "den_dfa_s4", "den_exch_s4", "ir_impr_s4_pct",
                 "bond_impr_s4_pct"});

  double avg_ir_2d = 0.0;
  double avg_ir_s4 = 0.0;
  double avg_bond_s4 = 0.0;

  std::vector<CaseResult> flats;
  std::vector<CaseResult> stackeds;
  const Timer timer;
  for (int i = 0; i < 5; ++i) {
    const CircuitSpec spec = CircuitGenerator::table1(i);
    const CaseResult flat = run_case(spec, 1);
    const CaseResult stacked = run_case(spec, 4);
    flats.push_back(flat);
    stackeds.push_back(stacked);
    avg_ir_2d += flat.ir_improvement;
    avg_ir_s4 += stacked.ir_improvement;
    avg_bond_s4 += stacked.bonding_improvement;

    table.add_row({spec.name, std::to_string(flat.density_dfa),
                   std::to_string(flat.density_exchanged),
                   format_fixed(flat.ir_improvement, 2),
                   std::to_string(stacked.density_dfa),
                   std::to_string(stacked.density_exchanged),
                   format_fixed(stacked.ir_improvement, 2),
                   format_fixed(stacked.bonding_improvement, 2)});
    csv.add_row({spec.name, std::to_string(flat.density_dfa),
                 std::to_string(flat.density_exchanged),
                 format_fixed(flat.ir_improvement, 2),
                 std::to_string(stacked.density_dfa),
                 std::to_string(stacked.density_exchanged),
                 format_fixed(stacked.ir_improvement, 2),
                 format_fixed(stacked.bonding_improvement, 2)});
  }
  table.add_separator();
  table.add_row({"Average improvement", "", "", format_fixed(avg_ir_2d / 5, 2),
                 "", "", format_fixed(avg_ir_s4 / 5, 2),
                 format_fixed(avg_bond_s4 / 5, 2)});

  std::printf("Table 3 -- finger/pad exchange after DFA "
              "(2-D psi=1 and stacking psi=4)\n%s\n",
              table.str().c_str());
  std::printf("Paper's published averages: IR-drop improvement 10.61%% "
              "(2-D), 4.58%% (psi=4); bonding wires 15.66%%.\n");
  std::printf("Harness runtime: %.2f s\n", timer.seconds());
  csv.save(bench::artefact_path("table3.csv"));
  std::printf("Wrote %s\n", bench::artefact_path("table3.csv").c_str());

  std::printf("\nShape checks:\n");
  bool holds = true;
  for (std::size_t i = 0; i < flats.size(); ++i) {
    const std::string name = "circuit" + std::to_string(i + 1);
    const CaseResult& flat = flats[i];
    const CaseResult& stacked = stackeds[i];
    holds &= claim(flat.ir_improvement > 0.0 && stacked.ir_improvement > 0.0,
                   name + ": exchange lowers max IR-drop (psi 1 and 4)");
    holds &= claim(stacked.bonding_improvement > 0.0,
                   name + ": exchange improves bonding (psi 4)");
    holds &= claim(
        flat.density_exchanged - flat.density_dfa <= kMaxDensityIncrease2d &&
            stacked.density_exchanged - stacked.density_dfa <=
                kMaxDensityIncreaseS4,
        name + ": density increase <= +" +
            std::to_string(kMaxDensityIncrease2d) + " (psi 1), +" +
            std::to_string(kMaxDensityIncreaseS4) + " (psi 4)");
  }
  holds &= claim(flats.front().ir_improvement > flats.back().ir_improvement &&
                     stackeds.front().ir_improvement >
                         stackeds.back().ir_improvement,
                 "IR gain of circuit1 > circuit5 (psi 1 and 4)");
  std::printf("  Table 3 shape %s\n", holds ? "HOLDS" : "DOES NOT HOLD");
  return holds ? 0 : 1;
}
