// Experiment drivers: each E* driver runs end to end on a tiny trial budget
// and produces a well-formed table plus its shape-check notes. These are the
// same code paths the bench binaries regenerate the paper tables with.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "analysis/bench_runner.hpp"
#include "analysis/experiment_registry.hpp"
#include "analysis/experiments.hpp"

namespace radio {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig config;
  config.trials = 2;
  config.seed = 7;
  config.quick = true;
  return config;
}

void expect_well_formed(const ExperimentResult& result, const char* id) {
  EXPECT_EQ(result.id, id);
  EXPECT_FALSE(result.title.empty());
  EXPECT_GT(result.table.num_rows(), 0u);
  EXPECT_GT(result.table.num_cols(), 0u);
  EXPECT_FALSE(result.notes.empty());
  // The table renders without tripping contracts.
  EXPECT_FALSE(result.table.to_string().empty());
  EXPECT_FALSE(result.table.to_csv().empty());
  // The registry entry advertises exactly what the driver produces, so
  // `radio_bench list` never drifts from the run output.
  const ExperimentEntry* entry = ExperimentRegistry::find(id);
  ASSERT_NE(entry, nullptr) << id << " is not registered";
  EXPECT_EQ(entry->id, result.id);
  EXPECT_EQ(entry->title, result.title);
}

TEST(Experiments, E1RunsAndFits) {
  const ExperimentResult r = run_e1_centralized_scaling(tiny_config());
  expect_well_formed(r, "E1");
  EXPECT_EQ(r.table.num_rows(), 15u);  // 3 regimes x 5 sizes in quick mode
  EXPECT_NE(r.notes[0].text.find("fit:"), std::string::npos);
  // The fit note carries its typed payload for manifests.
  ASSERT_TRUE(r.notes[0].fit.has_value());
  EXPECT_EQ(r.notes[0].fit->model, "a*(ln n/ln d) + b*ln d + c");
  EXPECT_EQ(r.notes[0].fit->coefficients.size(), 3u);
  EXPECT_EQ(r.fits().size(), 1u);
}

TEST(Experiments, E2RunsDensitySweep) {
  const ExperimentResult r = run_e2_centralized_density(tiny_config());
  expect_well_formed(r, "E2");
  EXPECT_EQ(r.table.num_rows(), 7u);
}

TEST(Experiments, E3RunsBothVariants) {
  const ExperimentResult r = run_e3_distributed_scaling(tiny_config());
  expect_well_formed(r, "E3");
  EXPECT_EQ(r.table.num_rows(), 12u);  // 2 variants x 6 sizes
  EXPECT_GE(r.notes.size(), 2u);
}

TEST(Experiments, E4ComparesAllProtocols) {
  const ExperimentResult r = run_e4_protocol_comparison(tiny_config());
  expect_well_formed(r, "E4");
  // 7 radio protocols + Thm-5 centralized + tree baseline + 3 rumor modes.
  EXPECT_EQ(r.table.num_rows(), 12u);
}

TEST(Experiments, E5ProducesLayerRows) {
  const ExperimentResult r = run_e5_layer_structure(tiny_config());
  expect_well_formed(r, "E5");
  EXPECT_GE(r.table.num_rows(), 4u);  // at least a few layers per regime
}

TEST(Experiments, E6CoversAllScenarios) {
  const ExperimentResult r = run_e6_covering_matching(tiny_config());
  expect_well_formed(r, "E6");
  EXPECT_EQ(r.table.num_rows(), 7u);  // 3 cover + 3 matching + 1 prop2
}

TEST(Experiments, E7ProducesBoundsCertificatesAndStressRows) {
  const ExperimentConfig config = tiny_config();
  const ExperimentResult r = run_e7_lower_bounds(config);
  expect_well_formed(r, "E7");
  // 4 Thm8 rows + 2x3 Thm6 rows + 7 stress replays.
  EXPECT_EQ(r.table.num_rows(), 4u + 6u + 7u);
  EXPECT_EQ(r.fits().size(), 1u);

  // Certificates survive the metrics.jsonl encoding: every adversary row's
  // witness/survived cells appear verbatim in its JSON line.
  RunRecord record;
  record.id = "E7";
  record.config = config;
  record.result = r;
  const std::vector<std::string> lines = metrics_lines(record);
  ASSERT_EQ(lines.size(), r.table.num_rows() + 1u);  // rows + summary line
  std::size_t certified = 0;
  for (std::size_t row = 0; row < r.table.num_rows(); ++row) {
    const std::string& line = lines[row];
    const std::string& witness = r.table.at(row, 9);
    const std::string& survived = r.table.at(row, 10);
    EXPECT_NE(line.find("{\"experiment\":\"E7\","), std::string::npos);
    EXPECT_NE(line.find("\"witness\":\"" + witness + "\""), std::string::npos)
        << line;
    EXPECT_NE(line.find("\"survived\":\"" + survived + "\""),
              std::string::npos)
        << line;
    if (witness == "-") continue;  // stress rows carry no certificate
    ++certified;
    // A certified witness is a node id, and it survived a bounded number
    // of rounds (both render as plain integers).
    EXPECT_LT(std::stoul(witness), 1u << 13);
    EXPECT_LE(std::stoul(survived), std::stoul(r.table.at(row, 2)));
  }
  EXPECT_EQ(certified, 10u);  // every adversary row certifies its hardest
}

TEST(Experiments, E7RejectsSingleTrialConfigs) {
  ExperimentConfig config = tiny_config();
  config.trials = 1;
  // Diagnose, never clamp: the old driver silently rewrote the count.
  EXPECT_THROW(run_e7_lower_bounds(config), std::runtime_error);
}

TEST(Experiments, E8SweepsDenseRegime) {
  const ExperimentResult r = run_e8_dense_regime(tiny_config());
  expect_well_formed(r, "E8");
  EXPECT_EQ(r.table.num_rows(), 4u);
}

TEST(Experiments, E9CoversAllAblations) {
  const ExperimentResult r = run_e9_phase_ablation(tiny_config());
  expect_well_formed(r, "E9");
  EXPECT_EQ(r.table.num_rows(), 7u);
}

TEST(Experiments, E10ComparesModels) {
  const ExperimentResult r = run_e10_model_equivalence(tiny_config());
  expect_well_formed(r, "E10");
  EXPECT_EQ(r.table.num_rows(), 4u);  // 2 algorithms x 2 sizes in quick mode
}

TEST(Experiments, E11CoversAllFaultScenarios) {
  const ExperimentResult r = run_e11_fault_robustness(tiny_config());
  expect_well_formed(r, "E11");
  EXPECT_EQ(r.table.num_rows(), 10u);  // 5 scenarios x 2 algorithms
}

TEST(Experiments, E12CoversAllGossipProtocols) {
  const ExperimentResult r = run_e12_gossip_scaling(tiny_config());
  expect_well_formed(r, "E12");
  EXPECT_EQ(r.table.num_rows(), 12u);  // 4 sizes x 3 protocols in quick mode
}

TEST(Experiments, E13ComparesKnowledgeModels) {
  const ExperimentResult r = run_e13_adaptive_backoff(tiny_config());
  expect_well_formed(r, "E13");
  EXPECT_EQ(r.table.num_rows(), 12u);  // 3 protocols x 4 sizes in quick mode
}

TEST(Experiments, E14SweepsSourceCounts) {
  const ExperimentResult r = run_e14_multisource(tiny_config());
  expect_well_formed(r, "E14");
  EXPECT_EQ(r.table.num_rows(), 6u);  // k in {1,2,4,16,64,256}
}

TEST(Experiments, E15CoversAllTopologies) {
  const ExperimentResult r = run_e15_structured_topologies(tiny_config());
  expect_well_formed(r, "E15");
  EXPECT_EQ(r.table.num_rows(), 15u);  // 5 topologies x 3 protocols
}

TEST(Experiments, E16SweepsRatesForBothStreamProtocols) {
  const ExperimentResult r = run_e16_stream_throughput(tiny_config());
  expect_well_formed(r, "E16");
  // 2 protocols x 2 sizes x 6 rate fractions in quick mode.
  EXPECT_EQ(r.table.num_rows(), 24u);
  // The acceptance gate's precondition: every stable row's rate is at or
  // below the GHK reference (bench_report.py --check enforces the same).
  const auto& header = r.table.header();
  std::size_t rate_col = 0, bound_col = 0, stable_col = 0;
  for (std::size_t c = 0; c < header.size(); ++c) {
    if (header[c] == "rate") rate_col = c;
    if (header[c] == "ghk_bound") bound_col = c;
    if (header[c] == "stable") stable_col = c;
  }
  for (std::size_t row = 0; row < r.table.num_rows(); ++row) {
    if (r.table.at(row, stable_col) != "yes") continue;
    EXPECT_LE(std::stod(r.table.at(row, rate_col)),
              std::stod(r.table.at(row, bound_col)) + 1e-9)
        << "stable row " << row << " exceeds the GHK bound";
  }
}

TEST(Experiments, E16HonorsRateAndHorizonOverrides) {
  ExperimentConfig config = tiny_config();
  config.rate = 0.01;
  config.horizon = 300;
  const ExperimentResult r = run_e16_stream_throughput(config);
  // A pinned rate collapses the λ grid to one point per (protocol, n).
  EXPECT_EQ(r.table.num_rows(), 4u);
}

TEST(Experiments, E17ProducesLatencyRows) {
  const ExperimentResult r = run_e17_stream_latency(tiny_config());
  expect_well_formed(r, "E17");
  EXPECT_EQ(r.table.num_rows(), 4u);  // 1 size x 4 rate fractions in quick
}

TEST(Experiments, E18StreamsOnImplicitBackend) {
  ExperimentConfig config = tiny_config();
  config.horizon = 400;  // keep the giant-n smoke cheap
  const ExperimentResult r = run_e18_stream_giant(config);
  expect_well_formed(r, "E18");
  EXPECT_EQ(r.table.num_rows(), 3u);  // 3 rate fractions in quick mode
}

}  // namespace
}  // namespace radio
