#include "analysis/experiment_config.hpp"

#include <cstdio>
#include <string>
#include <utility>

namespace radio {

void ExperimentResult::note(std::string text) {
  notes.push_back(ExperimentNote{std::move(text), std::nullopt});
}

void ExperimentResult::note_fit(std::string text, ModelFitNote fit) {
  notes.push_back(ExperimentNote{std::move(text), std::move(fit)});
}

std::vector<const ModelFitNote*> ExperimentResult::fits() const {
  std::vector<const ModelFitNote*> out;
  for (const ExperimentNote& n : notes)
    if (n.fit) out.push_back(&*n.fit);
  return out;
}

bool ExperimentResult::present(const ExperimentConfig& config) const {
  table.print(id + " — " + title);
  for (const ExperimentNote& n : notes)
    std::printf("  %s\n", n.text.c_str());
  bool written = true;
  if (!config.csv_path.empty()) {
    written = table.write_csv(config.csv_path);
    if (written)
      std::printf("  [csv written to %s]\n", config.csv_path.c_str());
    else
      std::printf("  [failed to write csv to %s]\n", config.csv_path.c_str());
  }
  std::fflush(stdout);
  return written;
}

}  // namespace radio
