// Run manifests and metrics: the JSON documents match their expected text
// field for field, and the registry-driven runner path is byte-identical to
// a direct driver call (same driver, same config ⇒ same table, CSV and
// notes) — the compatibility contract DESIGN.md's "Observability &
// provenance" section pins. That real output parses is checked by
// scripts/bench_report.py --check (tests/analysis/test_bench_report.py).
#include <gtest/gtest.h>

#include "analysis/bench_runner.hpp"
#include "analysis/experiments.hpp"

namespace radio {
namespace {

RunRecord sample_record() {
  RunRecord record;
  record.id = "EX";
  record.config.trials = 3;
  record.config.seed = 12345678901234567890ull;
  record.config.quick = false;
  record.config.rate = 0.05;
  record.config.horizon = 2500;
  record.config.csv_path = "/tmp/ex.csv";
  record.result.id = "EX";
  record.result.title = "sample experiment";
  record.result.table = Table({"n", "rounds"});
  record.result.table.row().cell(std::uint64_t{1024}).cell(12.5, 1);
  record.result.table.row().cell(std::uint64_t{2048}).cell(14.0, 1);
  record.result.note("a prose note");
  record.result.note_fit(
      "fit: rounds ~= 2.45*ln n + 1.7 (R^2 = 0.97)",
      ModelFitNote{"main", "a*ln n + b",
                   {{"ln n", 2.45}, {"intercept", 1.7}}, 0.97});
  record.wall_seconds = 1.25;
  return record;
}

RunProvenance sample_provenance() {
  RunProvenance provenance;
  provenance.git_describe = "deadbee-dirty";
  provenance.compiler = "gcc 12.2.0";
  provenance.openmp_threads = 8;
  provenance.generated_at = "2026-08-05T12:00:00Z";
  return provenance;
}

TEST(Manifest, DocumentMatchesExpectedText) {
  // Pretty-printed, as written to disk: every field in schema order, the
  // 64-bit seed exact, table cells as their rendered strings.
  const std::string expected = R"json({
  "schema_version": 1,
  "id": "EX",
  "title": "sample experiment",
  "config": {
    "trials": 3,
    "seed": 12345678901234567890,
    "quick": false,
    "graph_backend": "auto",
    "rate": 0.05,
    "horizon": 2500,
    "csv_path": "/tmp/ex.csv"
  },
  "provenance": {
    "git": "deadbee-dirty",
    "compiler": "gcc 12.2.0",
    "openmp_threads": 8,
    "generated_at": "2026-08-05T12:00:00Z"
  },
  "wall_seconds": 1.25,
  "table": {
    "columns": [
      "n",
      "rounds"
    ],
    "rows": [
      [
        "1024",
        "12.5"
      ],
      [
        "2048",
        "14.0"
      ]
    ]
  },
  "fits": [
    {
      "label": "main",
      "model": "a*ln n + b",
      "coefficients": [
        {
          "term": "ln n",
          "value": 2.45
        },
        {
          "term": "intercept",
          "value": 1.7
        }
      ],
      "r_squared": 0.97
    }
  ],
  "notes": [
    "a prose note",
    "fit: rounds ~= 2.45*ln n + 1.7 (R^2 = 0.97)"
  ]
})json";
  EXPECT_EQ(manifest_json(sample_record(), sample_provenance()).dump(2),
            expected);
  static_assert(kManifestSchemaVersion == 1,
                "update the expected manifest text with the schema");
}

TEST(Manifest, MetricsLinesAreOneJsonObjectPerRowPlusSummary) {
  const std::vector<std::string> expected = {
      R"({"experiment":"EX","row":0,"cells":{"n":"1024","rounds":"12.5"},)"
      R"("seed":12345678901234567890,"trials":3})",
      R"({"experiment":"EX","row":1,"cells":{"n":"2048","rounds":"14.0"},)"
      R"("seed":12345678901234567890,"trials":3})",
      R"({"experiment":"EX","event":"summary","rows":2,"wall_seconds":1.25})",
  };
  EXPECT_EQ(metrics_lines(sample_record()), expected);
}

TEST(Manifest, RunnerRejectsUnknownId) {
  EXPECT_THROW(run_registered_experiment("E99", ExperimentConfig{}),
               std::runtime_error);
}

// Golden compatibility check: running E10 through the registry-driven
// runner produces byte-identical table, CSV and notes to calling the
// driver directly with the same config.
TEST(Manifest, GoldenRunnerMatchesLegacyE10) {
  ExperimentConfig config;
  config.trials = 2;
  config.seed = 7;
  config.quick = true;

  const ExperimentResult legacy = run_e10_model_equivalence(config);
  const RunRecord record = run_registered_experiment("E10", config);

  EXPECT_EQ(record.id, "E10");
  EXPECT_EQ(record.result.id, legacy.id);
  EXPECT_EQ(record.result.title, legacy.title);
  EXPECT_EQ(record.result.table.to_string(), legacy.table.to_string());
  EXPECT_EQ(record.result.table.to_csv(), legacy.table.to_csv());
  ASSERT_EQ(record.result.notes.size(), legacy.notes.size());
  for (std::size_t i = 0; i < legacy.notes.size(); ++i)
    EXPECT_EQ(record.result.notes[i].text, legacy.notes[i].text);
  EXPECT_GT(record.wall_seconds, 0.0);
}

TEST(Manifest, ProvenanceIsPopulated) {
  const RunProvenance provenance = collect_provenance();
  EXPECT_FALSE(provenance.git_describe.empty());
  EXPECT_FALSE(provenance.compiler.empty());
  EXPECT_GE(provenance.openmp_threads, 1);
  // ISO-8601 UTC, e.g. 2026-08-05T12:00:00Z
  ASSERT_EQ(provenance.generated_at.size(), 20u);
  EXPECT_EQ(provenance.generated_at.back(), 'Z');
  EXPECT_EQ(provenance.generated_at[10], 'T');
}

}  // namespace
}  // namespace radio
