// Graph-generation microbenchmark: edges/sec of every G(n,p) production
// path, plus generation time vs n for the implicit backend's index build.
//
// Four axes:
//   * BM_GenerateCsr — the geometric-skip sparse sampler into a CSR Graph
//     (the legacy default path, now running on the overflow-proof walk);
//   * BM_GenerateBitmap — the word-parallel BernoulliWordGen generator the
//     auto cost model picks for dense rows (p >= 1/64 with a fitting
//     bitmap). Both run at d = n^0.75, where the word sampler keeps its
//     mirrored bitmap;
//   * BM_GenerateAuto — the auto cost model at d = ln² n, the regime of E1,
//     E3 and perfbench: the word sampler's sorted-run assembly at n = 4096,
//     the skip walk's at n = 32768;
//   * BM_ImplicitIndex — ImplicitGnp construction + full index build, the
//     one-off cost an experiment pays before on-demand neighbor queries are
//     O(1). Swept over n at fixed expected degree so bench_report.py can
//     fold generation time vs n into the BENCH_run.json trajectory.
//
// scripts/bench_report.py folds the JSON output of
//   bench/bench_graph_gen --benchmark_format=json
// into BENCH_run.json (graph_gen entry: edges/sec per path).
#include <benchmark/benchmark.h>

#include <cmath>

#include "graph/implicit_gnp.hpp"
#include "graph/random_graph.hpp"

namespace {

constexpr std::uint64_t kSeed = 20260808;

// Dense row from E2's quick grid: n = 2^13, d = n^0.75.
constexpr radio::NodeId kDenseN = 1 << 13;

double dense_p() {
  return std::pow(static_cast<double>(kDenseN), 0.75) /
         static_cast<double>(kDenseN - 1);
}

void BM_GenerateCsr(benchmark::State& state) {
  const auto n = static_cast<radio::NodeId>(state.range(0));
  const radio::GnpParams params{n, dense_p()};
  radio::Rng rng(kSeed);
  std::uint64_t edges = 0;
  for (auto _ : state) {
    const radio::Graph g =
        radio::generate_gnp_backend(params, rng, radio::GraphBackendChoice::kCsr);
    edges = g.num_edges();
    benchmark::DoNotOptimize(edges);
  }
  state.counters["edges_per_s"] = benchmark::Counter(
      static_cast<double>(edges), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GenerateCsr)->Arg(kDenseN)->Unit(benchmark::kMillisecond);

void BM_GenerateBitmap(benchmark::State& state) {
  const auto n = static_cast<radio::NodeId>(state.range(0));
  const radio::GnpParams params{n, dense_p()};
  radio::Rng rng(kSeed);
  std::uint64_t edges = 0;
  for (auto _ : state) {
    const radio::Graph g = radio::generate_gnp_backend(
        params, rng, radio::GraphBackendChoice::kBitmap);
    edges = g.num_edges();
    benchmark::DoNotOptimize(edges);
  }
  state.counters["edges_per_s"] = benchmark::Counter(
      static_cast<double>(edges), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GenerateBitmap)->Arg(kDenseN)->Unit(benchmark::kMillisecond);

void BM_GenerateAuto(benchmark::State& state) {
  const auto n = static_cast<radio::NodeId>(state.range(0));
  const double ln_n = std::log(static_cast<double>(n));
  const radio::GnpParams params = radio::GnpParams::with_degree(n, ln_n * ln_n);
  radio::Rng rng(kSeed);
  std::uint64_t edges = 0;
  for (auto _ : state) {
    const radio::Graph g = radio::generate_gnp_backend(
        params, rng, radio::GraphBackendChoice::kAuto);
    edges = g.num_edges();
    benchmark::DoNotOptimize(edges);
  }
  state.counters["edges_per_s"] = benchmark::Counter(
      static_cast<double>(edges), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GenerateAuto)->Arg(1 << 12)->Arg(1 << 15)->Unit(benchmark::kMillisecond);

// Generation time vs n at fixed d = 3 ln n (the giant-n smoke's density):
// each iteration builds a fresh ImplicitGnp and forces the full index, so
// the per-iteration time IS the generation cost the E2 implicit mode pays.
void BM_ImplicitIndex(benchmark::State& state) {
  const auto n = static_cast<radio::NodeId>(state.range(0));
  const double d = 3.0 * std::log(static_cast<double>(n));
  const radio::GnpParams params = radio::GnpParams::with_degree(n, d);
  std::uint64_t seed = kSeed;
  std::uint64_t edges = 0;
  for (auto _ : state) {
    const radio::ImplicitGnp g(n, params.p, seed++);
    edges = g.num_edges();  // forces the index build
    benchmark::DoNotOptimize(edges);
  }
  state.counters["edges_per_s"] = benchmark::Counter(
      static_cast<double>(edges), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ImplicitIndex)
    ->Arg(1 << 13)
    ->Arg(1 << 16)
    ->Arg(1 << 19)
    ->Arg(1 << 22)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
