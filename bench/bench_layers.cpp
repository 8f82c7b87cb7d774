// bench_layers — every microbenchmark of the simulator in one
// google-benchmark binary, grouped by the layers of scripts/layers.json
// (bottom to top: util, graph, sim-kernel, sim, sim-batch, core, gossip).
// Each bench draws its instance from a fixed seed, so runs time the same
// work. Experiment tables come from radio_bench, not from here.
//
//   build/bench/bench_layers --benchmark_filter=BM_DenseRoundKernel
//   build/bench/bench_layers --benchmark_format=json > layers.json
//
// `scripts/bench_report.py --layers layers.json` folds the selection bench
// (its SELECTION_BENCHES), the graph-generation benches (GEN_BENCH_PATHS),
// the traversal benches (TRAVERSAL_BENCHES) and the batch sweep into a
// BENCH_run.json entry; scripts/ci.sh checks that those names stay
// registered.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "analysis/workload.hpp"
#include "core/adversary.hpp"
#include "core/centralized.hpp"
#include "core/distributed.hpp"
#include "core/layer_probe.hpp"
#include "core/lower_bound.hpp"
#include "gossip/gossip_session.hpp"
#include "graph/bfs.hpp"
#include "graph/components.hpp"
#include "graph/covering.hpp"
#include "graph/implicit_gnp.hpp"
#include "graph/random_graph.hpp"
#include "graph/topologies.hpp"
#include "protocols/decay.hpp"
#include "sim/batch/batch_runner.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "sim/runner.hpp"
#include "sim/session.hpp"
#include "util/bitset.hpp"

namespace {

/// G(n, p) at d = ln² n: the Theorem 5/7 regime of E1, E3 and perfbench.
radio::GnpParams ln2_params(radio::NodeId n) {
  const double ln_n = std::log(static_cast<double>(n));
  return radio::GnpParams::with_degree(n, ln_n * ln_n);
}

/// Iteration k of a bench that draws per iteration (a build, a broadcast, a
/// search, a graph) seeds it from stream k mod kDrawCycle of kDrawSeed, so
/// every run times the same fixed list of draws whatever iteration count
/// google-benchmark picks.
constexpr std::uint64_t kDrawSeed = 20261019;
constexpr std::uint64_t kDrawCycle = 16;

radio::Rng next_draw(std::uint64_t& k) {
  return radio::Rng::for_stream(kDrawSeed, k++ % kDrawCycle);
}

/// Each node independently with probability q, in id order.
std::vector<radio::NodeId> sample_nodes(radio::NodeId n, double q,
                                        radio::Rng& rng) {
  std::vector<radio::NodeId> nodes;
  for (radio::NodeId v = 0; v < n; ++v)
    if (rng.bernoulli(q)) nodes.push_back(v);
  return nodes;
}

}  // namespace

// ----------------------------------------------------------------- util
// Transmitter selection: Bitset::for_each_sampled, the one fixed-q
// Bernoulli walk behind the oblivious sequences, Theorem 7, uniform gossip
// and Theorem 5's phase 2, at q = 1/d (d = ln² n) over an informed set of
// 97% of the nodes, as in a late Theorem-7 tail round. items_per_second
// counts the candidates drawn for.
namespace util_layer {
namespace {

void BM_SampleInformed(benchmark::State& state) {
  const auto n = static_cast<radio::NodeId>(state.range(0));
  const double q = 1.0 / ln2_params(n).expected_degree();
  radio::Bitset informed(n);
  radio::Rng fill(71);
  for (radio::NodeId v = 0; v < n; ++v)
    if (fill.bernoulli(0.97)) informed.set(v);
  const auto candidates = static_cast<std::int64_t>(informed.count());
  std::vector<radio::NodeId> selected;
  std::uint64_t k = 0;
  for (auto _ : state) {
    radio::Rng rng = next_draw(k);
    selected.clear();
    informed.for_each_sampled(q, rng, [&](std::size_t v) {
      selected.push_back(static_cast<radio::NodeId>(v));
    });
    benchmark::DoNotOptimize(selected.data());
  }
  state.SetItemsProcessed(state.iterations() * candidates);
}
BENCHMARK(BM_SampleInformed)->Arg(1 << 12)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace util_layer

// ---------------------------------------------------------------- graph
// Edges/sec of every G(n,p) production path, plus generation time vs n for
// the implicit backend's index build:
//   * BM_GenerateCsr — the geometric-skip sparse sampler into a CSR Graph;
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
namespace graph_layer {
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

// generate_gnp's auto path at a fixed d = 64 (sparse) and at p = 0.75,
// where the complement sampler takes over (E2's density sweep).
void BM_GenerateGnpSparse(benchmark::State& state) {
  const auto n = static_cast<radio::NodeId>(state.range(0));
  const auto params = radio::GnpParams::with_degree(n, 64.0);
  radio::Rng rng(7);
  for (auto _ : state) {
    const radio::Graph g = radio::generate_gnp(params, rng);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.counters["edges_per_s"] = benchmark::Counter(
      static_cast<double>(n) * 32.0,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GenerateGnpSparse)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16);

void BM_GenerateGnpDense(benchmark::State& state) {
  const auto n = static_cast<radio::NodeId>(state.range(0));
  const radio::GnpParams params{n, 0.75};
  radio::Rng rng(7);
  for (auto _ : state) {
    const radio::Graph g = radio::generate_gnp(params, rng);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_GenerateGnpDense)->Arg(1 << 9)->Arg(1 << 11);

// G(n,m) with m = n·ln²n / 2, the E10 partner of BM_GenerateAuto.
void BM_GenerateGnm(benchmark::State& state) {
  const auto n = static_cast<radio::NodeId>(state.range(0));
  const double ln_n = std::log(static_cast<double>(n));
  const auto m = static_cast<radio::EdgeCount>(
      static_cast<double>(n) * ln_n * ln_n / 2.0);
  radio::Rng rng(47);
  for (auto _ : state) {
    const radio::Graph g = radio::generate_gnm(n, m, rng);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.counters["edges"] = static_cast<double>(m);
}
BENCHMARK(BM_GenerateGnm)->Arg(1 << 12)->Arg(1 << 14);

// The E15 topology generators.
void BM_MakeHypercube(benchmark::State& state) {
  const auto dim = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    const radio::Graph g = radio::make_hypercube(dim);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_MakeHypercube)->Arg(10)->Arg(14);

void BM_MakeRandomRegular(benchmark::State& state) {
  const auto n = static_cast<radio::NodeId>(state.range(0));
  radio::Rng rng(83);
  for (auto _ : state) {
    const radio::Graph g = radio::make_random_regular(n, 8, rng);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_MakeRandomRegular)->Arg(1 << 10)->Arg(1 << 13);

// The BFS layer decomposition Lemma 3 (E5) and the Thm-5 builder read.
void BM_BfsLayers(benchmark::State& state) {
  const auto n = static_cast<radio::NodeId>(state.range(0));
  radio::Rng rng(17);
  const radio::BroadcastInstance instance =
      radio::make_broadcast_instance(ln2_params(n), rng);
  for (auto _ : state) {
    const radio::LayerDecomposition layers =
        radio::bfs_layers(instance.graph, 0);
    benchmark::DoNotOptimize(layers.layers.size());
  }
  state.counters["edges_per_s"] = benchmark::Counter(
      static_cast<double>(instance.graph.num_edges()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_BfsLayers)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16);

// The connectivity test every make_broadcast_instance runs, over the
// kDrawCycle graphs of the cycled draw list (drawn before timing).
void BM_IsConnected(benchmark::State& state) {
  const auto n = static_cast<radio::NodeId>(state.range(0));
  std::vector<radio::Graph> graphs;
  for (std::uint64_t k = 0; graphs.size() < kDrawCycle;) {
    radio::Rng rng = next_draw(k);
    graphs.push_back(radio::generate_gnp(ln2_params(n), rng));
  }
  double edges = 0.0;
  std::uint64_t k = 0;
  for (auto _ : state) {
    const radio::Graph& g = graphs[k++ % kDrawCycle];
    benchmark::DoNotOptimize(radio::is_connected(g));
    edges += static_cast<double>(g.num_edges());
  }
  state.counters["edges_per_s"] =
      benchmark::Counter(edges, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_IsConnected)
    ->Arg(1 << 12)
    ->Arg(1 << 15)
    ->Unit(benchmark::kMillisecond);

// The Lemma-4 constructions (E6) on n = 2^14: X is the first 60% of the
// nodes, Y the next |Y| = range(0).
struct CoverFixture {
  radio::Graph graph;
  std::vector<radio::NodeId> x, y;
  double d = 0.0;
};

CoverFixture make_cover_fixture(radio::NodeId n, std::size_t y_size) {
  const radio::GnpParams params = ln2_params(n);
  radio::Rng rng(23);
  radio::BroadcastInstance instance = radio::make_broadcast_instance(params, rng);
  CoverFixture f;
  f.graph = std::move(instance.graph);
  f.d = params.expected_degree();
  const radio::NodeId total = f.graph.num_nodes();
  const auto x_size = static_cast<std::size_t>(0.6 * total);
  for (radio::NodeId v = 0; v < total; ++v) {
    if (f.x.size() < x_size)
      f.x.push_back(v);
    else if (f.y.size() < y_size)
      f.y.push_back(v);
  }
  return f;
}

void BM_SampledIndependentCover(benchmark::State& state) {
  const CoverFixture f =
      make_cover_fixture(1 << 14, static_cast<std::size_t>(state.range(0)));
  radio::Rng rng(29);
  for (auto _ : state) {
    const radio::SampledCover cover =
        radio::sample_independent_cover(f.graph, f.x, f.y, 1.0 / f.d, rng);
    benchmark::DoNotOptimize(cover.covered.size());
  }
}
BENCHMARK(BM_SampledIndependentCover)->Arg(256)->Arg(2048);

void BM_PrivateNeighborMatching(benchmark::State& state) {
  const CoverFixture f =
      make_cover_fixture(1 << 14, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const radio::FullMatching matching =
        radio::private_neighbor_matching(f.graph, f.x, f.y);
    benchmark::DoNotOptimize(matching.pairs.size());
  }
}
BENCHMARK(BM_PrivateNeighborMatching)->Arg(64)->Arg(256);

}  // namespace
}  // namespace graph_layer

// ----------------------------------------------------------- sim-kernel
namespace kernel_layer {
namespace {

// Head-to-head round kernel: the same dense rounds executed with the path
// pinned sparse (Arg 0) vs pinned to the word-parallel kernel (Arg 1).
// n = 4096, p = 1 - 1/32, |T| = n/8 — squarely the E8 regime, where
// sum deg(t) ~ |T| * n dwarfs the (|T| + 4) * n/64 word sweeps.
void BM_DenseRoundKernel(benchmark::State& state) {
  const radio::NodeId n = 1 << 12;
  const radio::GnpParams params{n, 1.0 - 1.0 / 32.0};
  radio::Rng rng(42);
  const radio::Graph g = radio::generate_gnp(params, rng);
  g.adjacency_bitmap();  // build once, outside the timed loop

  radio::Bitset informed(n);
  std::vector<radio::NodeId> transmitters;
  for (radio::NodeId v = 0; v < n; ++v) {
    if (rng.bernoulli(0.5)) informed.set(v);
    if (v % 8 == 0) transmitters.push_back(v);
  }

  radio::RadioEngine engine(g);
  engine.force_path(state.range(0) == 1 ? radio::RoundPath::kDense
                                        : radio::RoundPath::kSparse);
  std::vector<radio::NodeId> delivered;
  for (auto _ : state) {
    delivered.clear();
    const auto outcome = engine.step(transmitters, informed, delivered);
    benchmark::DoNotOptimize(outcome.collisions + delivered.size());
  }
  state.counters["delivered"] = static_cast<double>(delivered.size());
}
BENCHMARK(BM_DenseRoundKernel)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace kernel_layer

// ------------------------------------------------------------------ sim
// One BroadcastSession round on G(n, ln²n) under each session feature.
namespace sim_layer {
namespace {

/// One engine round with a `fraction` of all nodes transmitting: the cost
/// every protocol pays per round (E4).
void BM_RadioEngineRound(benchmark::State& state) {
  const radio::NodeId n = 1 << 15;
  const double fraction = static_cast<double>(state.range(0)) / 1000.0;
  radio::Rng rng(3);
  const radio::BroadcastInstance instance =
      radio::make_broadcast_instance(ln2_params(n), rng);
  const std::vector<radio::NodeId> transmitters =
      sample_nodes(n, fraction, rng);

  radio::BroadcastSession session(instance.graph, 0);
  for (auto _ : state) {
    const radio::RoundStats& stats = session.step(transmitters);
    benchmark::DoNotOptimize(stats.collisions);
  }
  state.counters["transmitters"] = static_cast<double>(transmitters.size());
  state.counters["rounds_per_s"] =
      benchmark::Counter(1.0, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_RadioEngineRound)->Arg(10)->Arg(100)->Arg(500);

/// A round under 10% crash faults and 10% message loss (E11).
void BM_FaultedSessionRound(benchmark::State& state) {
  const radio::NodeId n = 1 << 14;
  radio::Rng rng(53);
  const radio::BroadcastInstance instance =
      radio::make_broadcast_instance(ln2_params(n), rng);
  radio::SessionFaults faults = radio::make_crash_faults(
      instance.graph.num_nodes(), 0.1, 0, rng);
  faults.loss = 0.1;
  faults.seed = 99;
  const std::vector<radio::NodeId> transmitters = sample_nodes(n, 0.02, rng);
  radio::BroadcastSession session(instance.graph, 0, std::move(faults));
  for (auto _ : state) {
    const radio::RoundStats& stats = session.step(transmitters);
    benchmark::DoNotOptimize(stats.collisions);
  }
}
BENCHMARK(BM_FaultedSessionRound);

/// A round with and without per-node channel observations, the
/// collision-detection extension's extra cost (E13).
void BM_ObservedSessionRound(benchmark::State& state) {
  const radio::NodeId n = 1 << 14;
  radio::Rng rng(67);
  const radio::BroadcastInstance instance =
      radio::make_broadcast_instance(ln2_params(n), rng);
  const std::vector<radio::NodeId> transmitters = sample_nodes(n, 0.02, rng);
  radio::BroadcastSession session(instance.graph, 0);
  if (state.range(0) != 0) session.enable_observations();
  for (auto _ : state) {
    const radio::RoundStats& stats = session.step(transmitters);
    benchmark::DoNotOptimize(stats.collisions);
  }
  state.SetLabel(state.range(0) != 0 ? "with observations" : "base model");
}
BENCHMARK(BM_ObservedSessionRound)->Arg(0)->Arg(1);

/// Multi-source session setup plus its first round, k sources (E14).
void BM_MultiSourceFirstRounds(benchmark::State& state) {
  const radio::NodeId n = 1 << 13;
  const auto k = static_cast<std::size_t>(state.range(0));
  radio::Rng rng(71);
  const radio::BroadcastInstance instance =
      radio::make_broadcast_instance(ln2_params(n), rng);
  std::vector<radio::NodeId> sources;
  for (std::size_t i = 0; i < k; ++i)
    sources.push_back(static_cast<radio::NodeId>(i * (n / k)));
  for (auto _ : state) {
    radio::BroadcastSession session(instance.graph, sources);
    const radio::RoundStats& stats = session.step(sources);
    benchmark::DoNotOptimize(stats.newly_informed);
  }
  state.counters["sources"] = static_cast<double>(k);
}
BENCHMARK(BM_MultiSourceFirstRounds)->Arg(1)->Arg(16)->Arg(256);

}  // namespace
}  // namespace sim_layer

// ------------------------------------------------------------ sim-batch
// Trials/sec of the sim/batch instance-parallel core against the
// per-instance RadioEngine path on ONE shared instance.
//
// Workload: the Decay (BGI) protocol broadcasting on a G(n, d/n) instance
// from E1's quick grid (n = 4096, d = ln² n — the paper's "well inside the
// Theorem 5 regime" density). Decay is flood-heavy: active nodes transmit in
// overlapping bursts, so the lanes' transmitter sets overlap strongly and
// the batched sweep amortizes one adjacency pass over all 64 lanes. Both
// paths run serially (run_broadcast_batch never spawns threads), so the
// counters compare kernels, not thread counts.
//
// The two paths must agree byte-for-byte (the sim/batch determinism
// contract): the benchmark verifies equality before timing and aborts with
// SkipWithError on any divergence — a fast benchmark that returns different
// results would be worse than useless.
namespace batch_layer {
namespace {

constexpr int kTrials = 64;
constexpr std::uint32_t kMaxRounds = 400;
constexpr std::uint64_t kSeed = 20240805;

struct SharedInstance {
  radio::BroadcastInstance instance;
  radio::ProtocolContext ctx;
  radio::NodeId source = 0;

  explicit SharedInstance(radio::NodeId n) {
    const double ln_n = std::log(static_cast<double>(n));
    const radio::GnpParams params =
        radio::GnpParams::with_degree(n, ln_n * ln_n);
    radio::Rng rng(kSeed);
    instance = radio::make_broadcast_instance(params, rng);
    ctx = radio::context_for(instance);
    source = radio::pick_source(instance.graph, rng);
  }
};

const SharedInstance& shared_instance(radio::NodeId n) {
  static std::map<radio::NodeId, SharedInstance> shared;
  auto it = shared.find(n);
  if (it == shared.end()) it = shared.emplace(n, SharedInstance(n)).first;
  return it->second;
}

radio::ProtocolFactory decay_factory() {
  return [](int) { return std::make_unique<radio::DecayProtocol>(); };
}

std::vector<radio::BroadcastRun> sweep(radio::NodeId n, std::uint32_t lanes) {
  const SharedInstance& s = shared_instance(n);
  return radio::run_broadcast_batch(s.instance.graph, s.ctx, s.source, kTrials,
                                    kSeed, /*first_stream=*/0, decay_factory(),
                                    kMaxRounds, lanes);
}

bool same_runs(const std::vector<radio::BroadcastRun>& a,
               const std::vector<radio::BroadcastRun>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].completed != b[i].completed || a[i].rounds != b[i].rounds ||
        a[i].collisions != b[i].collisions ||
        a[i].transmissions != b[i].transmissions ||
        a[i].informed != b[i].informed)
      return false;
  return true;
}

void BM_PerInstanceSweep(benchmark::State& state) {
  const auto n = static_cast<radio::NodeId>(state.range(0));
  for (auto _ : state) {
    std::vector<radio::BroadcastRun> runs = sweep(n, /*lanes=*/1);
    benchmark::DoNotOptimize(runs.data());
  }
  state.counters["trials_per_s"] = benchmark::Counter(
      static_cast<double>(kTrials),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_PerInstanceSweep)
    ->Arg(1 << 12)
    ->Arg(1 << 14)
    ->Unit(benchmark::kMillisecond);

void BM_BatchSweep(benchmark::State& state) {
  const auto n = static_cast<radio::NodeId>(state.range(0));
  const auto lanes = static_cast<std::uint32_t>(state.range(1));
  if (!same_runs(sweep(n, 1), sweep(n, lanes))) {
    state.SkipWithError("batched results diverge from per-instance results");
    return;
  }
  for (auto _ : state) {
    std::vector<radio::BroadcastRun> runs = sweep(n, lanes);
    benchmark::DoNotOptimize(runs.data());
  }
  state.counters["trials_per_s"] = benchmark::Counter(
      static_cast<double>(kTrials),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_BatchSweep)
    ->Args({1 << 12, 16})
    ->Args({1 << 12, 64})
    ->Args({1 << 14, 16})
    ->Args({1 << 14, 64})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace batch_layer

// ----------------------------------------------------------------- core
namespace core_layer {
namespace {

/// One Theorem-5 schedule build (E1).
void BM_BuildCentralizedSchedule(benchmark::State& state) {
  const auto n = static_cast<radio::NodeId>(state.range(0));
  const radio::GnpParams params = ln2_params(n);
  radio::Rng rng(12345);
  const radio::BroadcastInstance instance =
      radio::make_broadcast_instance(params, rng);
  double rounds = 0.0;
  std::uint64_t k = 0;
  for (auto _ : state) {
    radio::Rng build_rng = next_draw(k);
    const radio::CentralizedResult built = radio::build_centralized_schedule(
        instance.graph, 0, params.expected_degree(), build_rng);
    rounds = built.report.total_rounds;
    benchmark::DoNotOptimize(built.schedule.rounds.data());
  }
  state.counters["rounds"] = rounds;
  state.counters["nodes_per_s"] = benchmark::Counter(
      static_cast<double>(n), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_BuildCentralizedSchedule)->Arg(1 << 10)->Arg(1 << 12)->Arg(1 << 14);

/// The builder under its E9 ablations: 0 = default, 1 = parity ablated,
/// 2 = no private-neighbour matching.
void BM_BuildWithOptions(benchmark::State& state) {
  const radio::NodeId n = 1 << 12;
  const radio::GnpParams params = ln2_params(n);
  radio::Rng rng(43);
  const radio::BroadcastInstance instance =
      radio::make_broadcast_instance(params, rng);

  radio::CentralizedOptions options;
  switch (state.range(0)) {
    case 1:
      options.ablate_parity = true;
      break;
    case 2:
      options.use_private_matching = false;
      break;
    default:
      break;
  }
  double rounds = 0.0;
  std::uint64_t k = 0;
  for (auto _ : state) {
    radio::Rng build_rng = next_draw(k);
    const radio::CentralizedResult built = radio::build_centralized_schedule(
        instance.graph, 0, params.expected_degree(), build_rng, options);
    rounds = built.report.total_rounds;
    benchmark::DoNotOptimize(built.schedule.rounds.data());
  }
  state.counters["rounds"] = rounds;
}
BENCHMARK(BM_BuildWithOptions)->Arg(0)->Arg(1)->Arg(2);

/// The builder in the §3.1 dense regime, p = 1 − 1/range(0) (E8).
void BM_DenseCentralizedBuild(benchmark::State& state) {
  const radio::NodeId n = 1 << 10;
  const double f = 1.0 / static_cast<double>(state.range(0));
  const radio::GnpParams params{n, 1.0 - f};
  radio::Rng rng(41);
  const radio::BroadcastInstance instance =
      radio::make_broadcast_instance(params, rng);
  double rounds = 0.0;
  std::uint64_t k = 0;
  for (auto _ : state) {
    radio::Rng build_rng = next_draw(k);
    const radio::CentralizedResult built = radio::build_centralized_schedule(
        instance.graph, 0, params.expected_degree(), build_rng);
    rounds = built.report.total_rounds;
    benchmark::DoNotOptimize(built.schedule.rounds.data());
  }
  state.counters["rounds"] = rounds;
}
BENCHMARK(BM_DenseCentralizedBuild)->Arg(2)->Arg(8)->Arg(32);

/// One full Theorem-7 distributed broadcast (E3).
void BM_DistributedBroadcast(benchmark::State& state) {
  const auto n = static_cast<radio::NodeId>(state.range(0));
  const double ln_n = std::log(static_cast<double>(n));
  radio::Rng rng(99);
  const radio::BroadcastInstance instance =
      radio::make_broadcast_instance(ln2_params(n), rng);
  const auto budget = static_cast<std::uint32_t>(60.0 * ln_n);
  double rounds = 0.0;
  std::uint64_t k = 0;
  for (auto _ : state) {
    radio::ElsasserGasieniecBroadcast protocol;
    radio::Rng run_rng = next_draw(k);
    const radio::BroadcastRun run = radio::broadcast_with(
        protocol, radio::context_for(instance), instance.graph, 0, run_rng,
        budget);
    rounds = run.rounds;
    benchmark::DoNotOptimize(run.informed);
  }
  state.counters["rounds"] = rounds;
  state.SetItemsProcessed(state.iterations());  // one trial per iteration
}
BENCHMARK(BM_DistributedBroadcast)
    ->Arg(1 << 10)
    ->Arg(1 << 12)
    ->Arg(1 << 13)
    ->Arg(1 << 16);

/// The Lemma-3 layer probe over a precomputed BFS decomposition (E5).
void BM_LayerProbe(benchmark::State& state) {
  const auto n = static_cast<radio::NodeId>(state.range(0));
  const radio::GnpParams params = ln2_params(n);
  radio::Rng rng(17);
  const radio::BroadcastInstance instance =
      radio::make_broadcast_instance(params, rng);
  const radio::LayerDecomposition layers = radio::bfs_layers(instance.graph, 0);
  for (auto _ : state) {
    const auto rows = radio::probe_layers(instance.graph, layers,
                                          params.expected_degree());
    benchmark::DoNotOptimize(rows.size());
  }
}
BENCHMARK(BM_LayerProbe)->Arg(1 << 12)->Arg(1 << 14);

/// One adversary generation of E7's Thm-8 search: the guided oblivious
/// search at population range(0), two trials per candidate, one generation
/// after seeding.
void BM_ObliviousSearch(benchmark::State& state) {
  const radio::NodeId n = 1 << 10;
  const double ln_n = std::log(static_cast<double>(n));
  radio::Rng rng(31);
  const radio::BroadcastInstance instance =
      radio::make_broadcast_instance(ln2_params(n), rng);
  radio::GuidedSearchParams search;
  search.round_budget = static_cast<std::uint32_t>(10.0 * ln_n);
  search.generations = 1;
  search.population = static_cast<int>(state.range(0));
  search.trials_per_candidate = 2;
  std::uint64_t k = 0;
  for (auto _ : state) {
    radio::Rng search_rng = next_draw(k);
    const auto outcome = radio::guided_oblivious_search(
        instance.graph, 0, radio::context_for(instance), search, search_rng);
    benchmark::DoNotOptimize(outcome.best_rounds);
  }
  state.counters["population"] = static_cast<double>(search.population);
}
BENCHMARK(BM_ObliviousSearch)->Arg(6)->Arg(10);

/// One adversary generation of E7's Thm-6 search: the guided small-set
/// search at p = 1/2 with population range(0), one generation after seeding.
void BM_SmallSetAdversary(benchmark::State& state) {
  const radio::NodeId n = 256;
  const radio::GnpParams params{n, 0.5};
  radio::Rng rng(37);
  const radio::BroadcastInstance instance =
      radio::make_broadcast_instance(params, rng);
  radio::GuidedSearchParams search;
  search.round_budget = 32;
  search.generations = 1;
  search.population = static_cast<int>(state.range(0));
  std::uint64_t k = 0;
  for (auto _ : state) {
    radio::Rng probe_rng = next_draw(k);
    const auto outcome =
        radio::guided_small_set_search(instance.graph, 0, search, probe_rng);
    benchmark::DoNotOptimize(outcome.best_rounds);
  }
  state.counters["population"] = static_cast<double>(search.population);
}
BENCHMARK(BM_SmallSetAdversary)->Arg(8)->Arg(16);

/// One LightSession broadcast: the Theorem-7 schedule as an oblivious
/// sequence through run_probe, E7's probe loop.
void BM_LightSessionBroadcast(benchmark::State& state) {
  const auto n = static_cast<radio::NodeId>(state.range(0));
  const double ln_n = std::log(static_cast<double>(n));
  radio::Rng rng(53);
  const radio::BroadcastInstance instance =
      radio::make_broadcast_instance(ln2_params(n), rng);
  const radio::ProtocolContext ctx = radio::context_for(instance);
  const auto budget = static_cast<std::uint32_t>(60.0 * ln_n);
  radio::ObliviousSequenceProtocol protocol(
      radio::theorem7_oblivious_sequence(ctx, budget));
  double rounds = 0.0;
  std::uint64_t k = 0;
  for (auto _ : state) {
    radio::Rng probe_rng = next_draw(k);
    const radio::LightSession<radio::Graph> run = radio::run_probe(
        protocol, ctx, instance.graph, 0, probe_rng, budget);
    rounds = run.current_round();
    benchmark::DoNotOptimize(run.informed_count());
  }
  state.counters["rounds"] = rounds;
  state.counters["trials_per_s"] = benchmark::Counter(
      1.0, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_LightSessionBroadcast)
    ->Arg(1 << 12)
    ->Arg(1 << 15)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace core_layer

// --------------------------------------------------------------- gossip
namespace gossip_layer {
namespace {

/// One knowledge-merge gossip round, each node transmitting w.p. 1/d (E12).
void BM_GossipRound(benchmark::State& state) {
  const auto n = static_cast<radio::NodeId>(state.range(0));
  const radio::GnpParams params = ln2_params(n);
  radio::Rng rng(61);
  const radio::BroadcastInstance instance =
      radio::make_broadcast_instance(params, rng);
  radio::GossipSession session(instance.graph);
  const double q = 1.0 / params.expected_degree();
  std::vector<radio::NodeId> transmitters;
  for (auto _ : state) {
    transmitters.clear();
    for (radio::NodeId v = 0; v < instance.graph.num_nodes(); ++v)
      if (rng.bernoulli(q)) transmitters.push_back(v);
    const radio::GossipRoundStats& stats = session.step(transmitters);
    benchmark::DoNotOptimize(stats.rumors_moved);
  }
}
BENCHMARK(BM_GossipRound)->Arg(1 << 9)->Arg(1 << 11);

}  // namespace
}  // namespace gossip_layer

BENCHMARK_MAIN();
