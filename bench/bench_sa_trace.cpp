// Records the Fig.-14 annealer's cooling curve on circuit 1 (cost and
// acceptance vs temperature) and writes it as sa_trace.csv -- the
// convergence-behaviour evidence behind the Table-3 schedule defaults.
//
// The curve flows through the observability metrics sink (series
// "sa.cooling", obs/metrics.h): this harness arms metrics collection,
// runs the exchange, and regenerates the CSV from the registry snapshot.
#include <cstdio>

#include "assign/dfa.h"
#include "bench_common.h"
#include "exchange/exchange.h"
#include "io/csv.h"
#include "obs/metrics.h"
#include "util/strings.h"

int main(int argc, char** argv) {
  using namespace fp;
  bench::parse_out_flag(argc, argv);
  const Package package =
      CircuitGenerator::generate(CircuitGenerator::table1(0));
  const PackageAssignment initial = DfaAssigner().assign(package);

  obs::set_metrics_enabled(true);
  ExchangeOptions options = bench::standard_exchange();
  options.schedule.record_every = 5;
  const ExchangeOptimizer optimizer(package, options);
  const ExchangeResult result = optimizer.optimize(initial);

  const std::optional<obs::SeriesSnapshot> cooling =
      obs::MetricsRegistry::global().series("sa.cooling");
  if (!cooling.has_value()) {
    std::fprintf(stderr, "sa.cooling series missing from the metrics sink\n");
    return 1;
  }

  CsvWriter csv(cooling->columns);
  for (const std::vector<double>& row : cooling->rows) {
    csv.add_row({format_fixed(row[0], 6), format_fixed(row[1], 4),
                 std::to_string(static_cast<long long>(row[2]))});
  }
  csv.save(bench::artefact_path("sa_trace.csv"));

  std::printf("SA cooling trace on circuit1 (%zu samples)\n",
              cooling->rows.size());
  std::printf("  initial cost %.3f -> final %.3f (best %.3f)\n",
              result.anneal.initial_cost, result.anneal.final_cost,
              result.anneal.best_cost);
  std::printf("  %lld proposed, %lld accepted, %lld illegal over %d "
              "temperature steps\n",
              result.anneal.proposed, result.anneal.accepted,
              result.anneal.rejected_illegal,
              result.anneal.temperature_steps);
  std::printf("  IR proxy %.3f -> %.3f\n", result.ir_cost_before,
              result.ir_cost_after);
  std::printf("  wrote %s\n", bench::artefact_path("sa_trace.csv").c_str());
  // The curve must end no higher than it started.
  return result.anneal.final_cost <= result.anneal.initial_cost ? 0 : 1;
}
