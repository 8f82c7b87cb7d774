// Command-line surface of the unified `radio_bench` runner.
//
//   radio_bench list
//   radio_bench run E3 E7 --trials 32 --seed 7 --full --out results/
//   radio_bench run --all
//
// Flags are the only configuration: each one overrides an ExperimentConfig
// default (docs/experiments.md has the full table). Parsing is a pure
// function of argv so tests can exercise it without spawning processes.
#pragma once

#include <string>
#include <vector>

#include "analysis/experiment_config.hpp"

namespace radio {

struct BenchCommand {
  enum class Action { kHelp, kList, kRun };

  Action action = Action::kHelp;
  std::vector<std::string> ids;  ///< canonical uppercase; empty with all=true
  bool all = false;              ///< run every registered experiment

  /// Run settings shared by every experiment of the command: the defaults
  /// with the flags applied. csv_path stays empty; config_for_run sets it.
  ExperimentConfig config;

  std::string out_dir;  ///< --out: CSVs + manifests + metrics.jsonl here
  std::string csv_dir;  ///< --csv: CSVs only
};

/// Parses the arguments after argv[0]. Throws std::runtime_error with a
/// user-facing message on malformed input (unknown flag, missing or
/// out-of-range value, `run` without ids or --all, --full with --quick,
/// malformed id).
BenchCommand parse_bench_command(const std::vector<std::string>& args);

/// The effective config for one experiment of a `run` command: the
/// command's config plus the CSV destination, --csv dir > --out dir > none.
/// `id` is canonical ("E10"); CSV files use the lowercase name (e10.csv).
ExperimentConfig config_for_run(const BenchCommand& command,
                                const std::string& id);

/// Lowercase form of an experiment id, used for file names.
std::string lowercase_id(const std::string& id);

/// The `radio_bench --help` text.
std::string bench_usage();

}  // namespace radio
