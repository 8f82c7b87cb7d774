// Shared experiment configuration and the result bundle every E* driver
// returns: a table for stdout/CSV plus typed notes (model fits carry their
// coefficients and R² so manifests can record them structurally).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/backend.hpp"
#include "util/table.hpp"

namespace radio {

struct ExperimentConfig {
  int trials = 16;            ///< Monte-Carlo trials per table row
  std::uint64_t seed = 42;    ///< base seed; trial i uses stream (seed, i)
  bool quick = true;          ///< quick: smaller n grid for CI-speed runs
  std::string csv_path;       ///< when non-empty, the table is mirrored here
  /// Graph backend for instance generation (graph/backend.hpp). kAuto lets
  /// the cost model pick per instance (bitmap generation for dense rows, CSR
  /// otherwise); kCsr/kBitmap force a materialized representation. kImplicit
  /// switches backend-aware drivers (currently E2) into their giant-n mode
  /// on the on-demand ImplicitGnp sampler; drivers that need a materialized
  /// Graph treat it as kAuto.
  GraphBackendChoice graph_backend = GraphBackendChoice::kAuto;
  /// Poisson arrival rate λ (messages/round) for the streaming experiments
  /// E16–E18 (sim/stream). 0 = run each driver's built-in λ grid; > 0 pins
  /// the sweep to this single rate. Non-streaming drivers ignore it.
  double rate = 0.0;
  /// Streaming horizon (wall rounds per trial) for E16–E18. 0 = driver
  /// default. Non-streaming drivers ignore it.
  int horizon = 0;
};

/// One named coefficient of a fitted model, e.g. {"ln n", 2.45}.
struct FitCoefficient {
  std::string term;
  double value = 0.0;
};

/// A model fit in structured form. The stdout rendering stays the driver's
/// responsibility (ExperimentNote::text, byte-stable across releases); this
/// is the machine-readable mirror that lands in run manifests.
struct ModelFitNote {
  std::string label;  ///< which fit, e.g. "all-informed tail"; "" if only one
  std::string model;  ///< formula shape, e.g. "a*ln n + b"
  std::vector<FitCoefficient> coefficients;
  double r_squared = 0.0;
};

/// A result note: the exact line printed under the table, plus an optional
/// typed payload when the note reports a model fit.
struct ExperimentNote {
  std::string text;
  std::optional<ModelFitNote> fit;
};

struct ExperimentResult {
  std::string id;    ///< "E1" … "E18"
  std::string title;
  Table table;
  std::vector<ExperimentNote> notes;  ///< fits, shape checks, caveats

  /// Appends a prose note (shape check, caveat, reading guide).
  void note(std::string text);

  /// Appends a fit note: `text` is the exact stdout line, `fit` the typed
  /// coefficients/R² recorded in manifests.
  void note_fit(std::string text, ModelFitNote fit);

  /// The typed fits among the notes, in note order.
  std::vector<const ModelFitNote*> fits() const;

  /// Prints the table and notes; writes CSV if configured. Returns false
  /// when the CSV could not be written.
  bool present(const ExperimentConfig& config) const;
};

}  // namespace radio
