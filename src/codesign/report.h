// Report generation for a finished co-design run: the markdown document a
// team attaches to a design review (`fpkit plan --report out.md`) and the
// run-manifest fillers behind `--artifact-dir` (docs/ARTIFACTS.md). The
// manifest struct itself lives in obs/artifact.h below the codesign
// layer; this header is where FlowOptions/FlowResult get translated into
// its generic JSON/number shape.
#pragma once

#include <cstddef>
#include <string>

#include "codesign/flow.h"
#include "obs/artifact.h"
#include "package/package.h"

namespace fp {

/// Full markdown document for one flow run on one package.
[[nodiscard]] std::string write_flow_report(const Package& package,
                                            const FlowOptions& options,
                                            const FlowResult& result);

/// Writes the document with write_file_atomic (never a torn file);
/// throws IoError on failure.
void save_flow_report(const Package& package, const FlowOptions& options,
                      const FlowResult& result, const std::string& path);

/// FlowOptions as the manifest's "options" block (canonical JSON).
[[nodiscard]] obs::Json flow_options_to_json(const FlowOptions& options);

/// Copies one finished flow run into `manifest`: the options block, the
/// consumed seeds (base seed plus one per extra SA replica), stage
/// timings, degrade events and the headline results the paper reports.
void fill_run_manifest(obs::RunManifest& manifest, const FlowOptions& options,
                       const FlowResult& result);

/// The manifest of one batch or farm job (jobs/job<i>/): subcommand
/// "batch-job", the tool version and extra.label, then for a finished
/// job the fill_run_manifest() record and the flow's exit code, for a
/// failed or skipped one extra.error and its exit code. `fpkit batch` and
/// the farm worker both record every job here, so batch and farm trees
/// record an outcome the same way.
[[nodiscard]] obs::RunManifest job_manifest(const BatchJob& job,
                                            const BatchJobResult& result);

/// The failed form on its own, for a farm job whose worker left no
/// manifest (a crash or a timeout): extra.label, extra.error and the
/// given exit code.
[[nodiscard]] obs::RunManifest job_manifest(const std::string& label,
                                            const std::string& error,
                                            int exit_code);

/// The exit code of a sweep of jobs, `fpkit batch` or `fpkit farm`
/// (docs/ROBUSTNESS.md): 5 when interrupted, else 4 when a job failed,
/// else 5 when a job never finished, else 3 when a job degraded, else 0.
[[nodiscard]] int sweep_exit_code(bool interrupted, std::size_t failed,
                                  std::size_t unfinished,
                                  std::size_t degraded);

/// Batch variant: the base options and the job counts (jobs_degraded
/// counts degraded jobs, as the farm's manifest does); each job's own
/// manifest (job_manifest) holds its figures.
void fill_batch_manifest(obs::RunManifest& manifest,
                         const FlowOptions& base_options,
                         const BatchResult& batch);

}  // namespace fp
