// Parameterized property sweeps over the (n, d) grid: both paper algorithms
// complete within their asymptotic envelopes, schedules stay legal, and
// monotonicity/causality invariants hold everywhere in the regime.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "analysis/workload.hpp"
#include "core/centralized.hpp"
#include "core/distributed.hpp"
#include "sim/runner.hpp"

namespace radio {
namespace {

/// (n, degree-regime index): 0 -> 2 ln n, 1 -> ln^2 n, 2 -> n^(1/3).
using GridPoint = std::tuple<NodeId, int>;

double regime_degree(NodeId n, int regime) {
  const double nd = static_cast<double>(n);
  switch (regime) {
    case 0:
      return 2.0 * std::log(nd);
    case 1:
      return std::log(nd) * std::log(nd);
    default:
      return std::cbrt(nd);
  }
}

class BroadcastGrid : public ::testing::TestWithParam<GridPoint> {
 protected:
  BroadcastInstance make_instance(std::uint64_t seed) {
    const auto [n, regime] = GetParam();
    Rng rng(seed);
    return make_broadcast_instance(
        GnpParams::with_degree(n, regime_degree(n, regime)), rng);
  }
};

TEST_P(BroadcastGrid, CentralizedCompletesLegallyWithinEnvelope) {
  const auto [n, regime] = GetParam();
  const double d = regime_degree(n, regime);
  const BroadcastInstance instance = make_instance(17 + n);
  Rng rng(n * 3 + static_cast<std::uint64_t>(regime));
  const CentralizedResult built =
      build_centralized_schedule(instance.graph, 0, d, rng);
  ASSERT_TRUE(built.report.completed);
  EXPECT_TRUE(schedule_is_legal(built.schedule, instance.graph, 0));
  const double target = centralized_target_rounds(static_cast<double>(n), d);
  EXPECT_LE(static_cast<double>(built.report.total_rounds), 14.0 * target);
  EXPECT_GE(built.report.total_rounds, built.report.eccentricity);
}

TEST_P(BroadcastGrid, DistributedCompletesWithinLogEnvelope) {
  const auto [n, regime] = GetParam();
  const double ln_n = std::log(static_cast<double>(n));
  const BroadcastInstance instance = make_instance(29 + n);
  // Theorem 7's regime is d >= ln^delta n with delta > 1: only the ln^2 n
  // grid column satisfies it strictly, and only there does the paper's
  // restricted tail apply; outside the regime the all-informed tail variant
  // is the correct deployment (the strict tail can strand nodes beyond
  // distance D).
  DistributedOptions options;
  options.tail_includes_late_informed = regime != 1;
  ElsasserGasieniecBroadcast protocol(options);
  Rng rng(n * 7 + static_cast<std::uint64_t>(regime));
  const BroadcastRun run = broadcast_with(
      protocol, context_for(instance), instance.graph, 0, rng,
      static_cast<std::uint32_t>(100.0 * ln_n));
  ASSERT_TRUE(run.completed);
  EXPECT_LE(static_cast<double>(run.rounds), 25.0 * ln_n);
}

TEST_P(BroadcastGrid, InformedCountIsMonotoneDuringDistributedRun) {
  const auto [n, regime] = GetParam();
  (void)regime;
  const BroadcastInstance instance = make_instance(43 + n);
  ElsasserGasieniecBroadcast protocol;
  Rng rng(n * 13);
  BroadcastSession session(instance.graph, 0);
  run_protocol(protocol, context_for(instance), session, rng, 400);
  std::uint64_t previous = 0;
  for (const RoundStats& s : session.history()) {
    EXPECT_GE(s.informed_total, previous);
    EXPECT_EQ(s.informed_total, previous == 0
                                    ? s.newly_informed + 1
                                    : previous + s.newly_informed);
    previous = s.informed_total;
  }
}

TEST_P(BroadcastGrid, CentralizedPhaseRoundsScaleWithRegime) {
  const auto [n, regime] = GetParam();
  const double d = regime_degree(n, regime);
  const BroadcastInstance instance = make_instance(57 + n);
  Rng rng(n * 17 + static_cast<std::uint64_t>(regime));
  const CentralizedResult built =
      build_centralized_schedule(instance.graph, 0, d, rng);
  ASSERT_TRUE(built.report.completed);
  // The pipeline phase is bounded by the layer structure...
  EXPECT_LE(built.report.phase1_rounds, 2u * built.report.eccentricity + 8u);
  // ...and the selective phase by its c·ln d budget plus the kick-off round.
  const CentralizedOptions defaults;
  EXPECT_LE(static_cast<double>(built.report.phase2_rounds),
            defaults.selective_rounds_factor * std::max(1.0, std::log(d)) + 2.0);
}

std::string grid_name(const ::testing::TestParamInfo<GridPoint>& info) {
  static const char* const regimes[] = {"2logn", "log2n", "cbrt"};
  std::string name = "n";
  name += std::to_string(std::get<0>(info.param));
  name += "_";
  name += regimes[std::get<1>(info.param)];
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BroadcastGrid,
    ::testing::Combine(::testing::Values<NodeId>(256, 512, 1024, 2048),
                       ::testing::Values(0, 1, 2)),
    grid_name);

}  // namespace
}  // namespace radio
