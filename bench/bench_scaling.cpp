// Complexity backing: the paper states IFA is O(n^2) and DFA is O(n) per
// insertion decision. This harness times the assigners and the density
// estimator over growing package sizes and prints the growth factors so
// the claims can be eyeballed (per-decision work: DFA's slot walk makes
// the full run O(n * alpha); both finish in microseconds at any realistic
// package size).
#include <cstdio>

#include "assign/dfa.h"
#include "assign/ifa.h"
#include "assign/random_assigner.h"
#include "bench_common.h"
#include "io/table.h"
#include "route/router.h"
#include "util/cli.h"
#include "util/strings.h"
#include "util/timer.h"

namespace {

double time_us(const std::function<void()>& body, int repeats = 50) {
  const fp::Timer timer;
  for (int i = 0; i < repeats; ++i) body();
  return timer.seconds() * 1e6 / repeats;
}

}  // namespace

constexpr fp::Flag kFlags[] = {
    {"out", "<dir>", "artefact directory"},
    {"json", "[path]", "write fpkit.bench.parallel.v1 (BENCH_parallel.json)"},
    {"artifact-dir", "<dir>", "write an fpkit.run.v1 artifact"},
};

int main(int argc, char** argv) {
  using namespace fp;
  const ArgParser args(argc, argv, kFlags);
  bench::set_artefact_dir(args.get_string("out", ""));

  // --json [path] and/or --artifact-dir <dir>: run the parallel-scaling
  // sweep (large-mesh CG solve + multi-start SA at 1..hardware threads)
  // and write the fpkit.bench.parallel.v1 document / the fpkit.run.v1
  // artifact gated by `fpkit compare` against bench/baselines/, instead
  // of only the kernel table.
  const std::string artifact_dir = args.get_string("artifact-dir", "");
  if (args.has("json") || !artifact_dir.empty()) {
    const std::string json_path =
        args.has("json")
            ? bench::artefact_path(
                  args.get_string("json", "BENCH_parallel.json"))
            : "";
    bench::emit_parallel_results(json_path, artifact_dir, "bench_scaling");
    return 0;
  }

  TablePrinter table({"fingers", "random (us)", "IFA (us)", "DFA (us)",
                      "density (us)", "route (us)"});
  for (const int fingers : {96, 192, 384, 768, 1536}) {
    CircuitSpec spec = CircuitGenerator::table1(2);
    spec.finger_count = fingers;
    spec.rows_per_quadrant = 4;
    const Package package = CircuitGenerator::generate(spec);
    const PackageAssignment dfa = DfaAssigner().assign(package);

    table.add_row(
        {std::to_string(fingers),
         format_fixed(time_us([&] {
           (void)RandomAssigner(1).assign(package);
         }),
                      1),
         format_fixed(time_us([&] { (void)IfaAssigner().assign(package); }),
                      1),
         format_fixed(time_us([&] { (void)DfaAssigner().assign(package); }),
                      1),
         format_fixed(time_us([&] { (void)max_density(package, dfa); }), 1),
         format_fixed(
             time_us([&] { (void)MonotonicRouter().route(package, dfa); },
                     10),
             1)});
  }
  std::printf("Scaling -- kernel runtimes vs finger count (4 rows per "
              "quadrant)\n%s\n",
              table.str().c_str());
  std::printf("(The paper reports 'within seconds' on 2009 hardware at "
              "alpha <= 448; everything here is microseconds.)\n");
  return 0;
}
