// The table of experiment drivers E1…E18.
//
// `radio_bench` resolves experiments by id through this table instead of
// hard-linking driver functions. Each driver starts its result from
// new_result(), so its title is written once, in the table; adding a driver
// means declaring it in analysis/experiments.hpp and adding its row here.
#pragma once

#include <string>
#include <vector>

#include "analysis/experiment_config.hpp"

namespace radio {

using ExperimentFn = ExperimentResult (*)(const ExperimentConfig&);

struct ExperimentEntry {
  std::string id;     ///< canonical uppercase id, "E1" … "E18"
  std::string title;  ///< one-line title, identical to ExperimentResult::title
  ExperimentFn fn = nullptr;
};

class ExperimentRegistry {
 public:
  /// All experiments, in numeric id order (E1, E2, …, E18).
  static const std::vector<ExperimentEntry>& all();

  /// Case-insensitive lookup ("e10" and "E10" both match); nullptr if absent.
  static const ExperimentEntry* find(const std::string& id);

  /// An empty result carrying `id` and its title. Requires a known id.
  static ExperimentResult new_result(const std::string& id);
};

}  // namespace radio
