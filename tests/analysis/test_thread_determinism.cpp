// Thread-count determinism regression: the E1 quick experiment must produce
// byte-identical CSV and metrics.jsonl at OMP_NUM_THREADS=1 and 4 for the
// same seed (modulo provenance fields — wall_seconds is timing, not data).
//
// This pins dynamically what radio-lint's rng-stream-discipline rule pins
// statically: every trial draws from Rng::for_stream(seed, trial_index), so
// the schedule(dynamic) OpenMP partition can never leak into results.
#include <gtest/gtest.h>

#include <regex>
#include <string>
#include <vector>

#include "analysis/bench_runner.hpp"
#include "analysis/experiment_registry.hpp"
#include "analysis/trial_runner.hpp"

#if defined(RADIO_HAVE_OPENMP)
#include <omp.h>
#endif

namespace radio {
namespace {

struct RunArtifacts {
  std::string csv;
  std::vector<std::string> metrics;  // wall_seconds scrubbed
};

std::string scrub_wall_seconds(const std::string& line) {
  static const std::regex kWall("\"wall_seconds\":[^,}]*");
  return std::regex_replace(line, kWall, "\"wall_seconds\":0");
}

RunArtifacts run_quick(const std::string& id, int threads) {
#if defined(RADIO_HAVE_OPENMP)
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
  ExperimentConfig config;
  config.trials = 4;
  config.seed = 20240511;
  config.quick = true;
  const RunRecord record = run_registered_experiment(id, config);
  RunArtifacts artifacts;
  artifacts.csv = record.result.table.to_csv();
  for (const std::string& line : metrics_lines(record))
    artifacts.metrics.push_back(scrub_wall_seconds(line));
  return artifacts;
}

RunArtifacts run_e1_quick(int threads) { return run_quick("E1", threads); }

class ThreadDeterminism : public ::testing::Test {
 protected:
  void SetUp() override {
#if defined(RADIO_HAVE_OPENMP)
    saved_threads_ = omp_get_max_threads();
#endif
  }
  void TearDown() override {
#if defined(RADIO_HAVE_OPENMP)
    omp_set_num_threads(saved_threads_);
#endif
  }
  int saved_threads_ = 1;
};

TEST_F(ThreadDeterminism, E1QuickIsByteIdenticalAcrossThreadCounts) {
  const RunArtifacts serial = run_e1_quick(1);
  const RunArtifacts parallel = run_e1_quick(4);

  EXPECT_EQ(serial.csv, parallel.csv)
      << "E1 CSV differs between OMP_NUM_THREADS=1 and 4 — a trial drew "
         "randomness outside Rng::for_stream or shared mutable state";
  ASSERT_EQ(serial.metrics.size(), parallel.metrics.size());
  for (std::size_t i = 0; i < serial.metrics.size(); ++i)
    EXPECT_EQ(serial.metrics[i], parallel.metrics[i]) << "metrics line " << i;
}

TEST_F(ThreadDeterminism, RepeatedRunsAreIdenticalAtSameThreadCount) {
  const RunArtifacts a = run_e1_quick(4);
  const RunArtifacts b = run_e1_quick(4);
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_EQ(a.metrics, b.metrics);
}

// E7 runs whole schedule searches, each probe on its own stream, inside
// every parallel trial, so its quick table is a sharp end-to-end probe of
// the per-trial stream contract under threads: byte-identical CSV and
// metrics at any thread count.
TEST_F(ThreadDeterminism, E7QuickIsByteIdenticalAcrossThreadCounts) {
  const RunArtifacts serial = run_quick("E7", 1);
  const RunArtifacts parallel = run_quick("E7", 4);
  EXPECT_EQ(serial.csv, parallel.csv)
      << "E7 CSV differs between OMP_NUM_THREADS=1 and 4";
  EXPECT_EQ(serial.metrics, parallel.metrics);
}

}  // namespace
}  // namespace radio
