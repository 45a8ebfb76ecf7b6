// Report generation for a finished co-design run: the markdown document a
// team attaches to a design review (`fpkit plan --report out.md`) and the
// run-manifest fillers behind `--artifact-dir` (docs/ARTIFACTS.md). The
// manifest struct itself lives in obs/artifact.h below the codesign
// layer; this header is where FlowOptions/FlowResult get translated into
// its generic JSON/number shape.
#pragma once

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

/// The manifest of one finished batch or farm job (jobs/job<i>/):
/// subcommand "batch-job", the tool version, extra.label, the
/// fill_run_manifest() record and the flow's exit code. `fpkit batch`,
/// the farm worker and the farm supervisor all build job manifests here,
/// so batch and farm trees record an outcome the same way.
[[nodiscard]] obs::RunManifest job_manifest(const std::string& label,
                                            const FlowOptions& options,
                                            const FlowResult& result);

/// The failed form: extra.label, extra.error and the given exit code.
[[nodiscard]] obs::RunManifest job_manifest(const std::string& label,
                                            const std::string& error,
                                            int exit_code);

/// Batch variant: job counts (jobs_degraded counts degraded jobs, as the
/// farm's manifest does) plus per-job summary blocks under "extra".
void fill_batch_manifest(obs::RunManifest& manifest,
                         const FlowOptions& base_options,
                         const BatchResult& batch);

}  // namespace fp
