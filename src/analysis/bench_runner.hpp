// Execution engine behind `radio_bench`: resolves experiments through the
// ExperimentRegistry, prints each table to stdout and mirrors it to CSV
// (runner progress goes to stderr), and records structured
// provenance — a per-experiment `<id>.manifest.json` plus a metrics.jsonl
// stream — when an output directory is given. Manifest schema: DESIGN.md
// "Observability & provenance"; scripts/bench_report.py folds manifests
// into the BENCH_run.json trajectory.
#pragma once

#include <string>

#include "analysis/bench_cli.hpp"
#include "analysis/experiment_config.hpp"
#include "util/json.hpp"

namespace radio {

/// Manifest schema version; bump when the JSON layout changes shape.
inline constexpr int kManifestSchemaVersion = 1;

/// Build / host facts captured once per runner invocation.
struct RunProvenance {
  std::string git_describe;   ///< `git describe --always --dirty` or "unknown"
  std::string compiler;       ///< e.g. "gcc 12.2.0"
  int openmp_threads = 1;     ///< trial_threads() at run time
  std::string generated_at;   ///< ISO-8601 UTC wall-clock timestamp
};

RunProvenance collect_provenance();

/// One completed experiment run.
struct RunRecord {
  std::string id;  ///< canonical id, "E10"
  ExperimentConfig config;
  ExperimentResult result;
  double wall_seconds = 0.0;
};

/// Runs one registered experiment (no I/O). Throws std::runtime_error if
/// `id` is not registered.
RunRecord run_registered_experiment(const std::string& id,
                                    const ExperimentConfig& config);

/// The manifest document for a run (schema_version, id, title, config,
/// provenance, wall_seconds, table columns+rows, typed fits, note texts).
Json manifest_json(const RunRecord& record, const RunProvenance& provenance);

/// The JSONL metric lines for a run: one object per table row plus one
/// trailing summary object. Each line is compact (single-line) JSON.
std::vector<std::string> metrics_lines(const RunRecord& record);

/// Full CLI entry point (parse → run → present → write artifacts).
/// Returns the process exit code: 0 on success, 2 on usage/lookup errors
/// or while a retired RADIO_* environment variable is set, 1 on output I/O
/// failures.
int run_bench_cli(int argc, const char* const* argv);

}  // namespace radio
