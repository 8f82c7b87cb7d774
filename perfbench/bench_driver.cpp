// Trial-throughput benchmark for the radio-broadcast simulator.
//
// Usage: radio_perfbench --workload W --seed S --seconds T --trace 0|1
//
// A trial is one broadcast; a unit is one G(n,p) instance plus the trials
// run on it. Each workload follows one of the paper's results (see kSpecs
// below) and draws its inputs from --seed. The driver repeats a pass over
// the same pass_units units until --seconds of timed work have run, with
// one set-up unit on a fresh instance before each pass, and prints one JSON
// line as the last line of its output:
//
//   --trace 0  trials_per_s, the rate of the fastest pass, and setup_s, the
//              median time of the set-up units;
//   --trace 1  per-layer self times and work counts, from spans recorded
//              around every call into the graph, transmitter-selection
//              (builder or protocol) and channel layers.
//
// The host this runs on may be shared, and its speed then drifts by tens of
// percent over seconds. Passes repeat identical work, so no pass can beat
// the simulator's own speed and the fastest one measures it; slower passes
// measure the neighbours' load.
//
// Checks, all outside the timed work: every kAuditStride-th unit of the
// first pass and every kAuditStride-th set-up unit replays its first
// broadcast (sampled lanes, batched) through the listener-side reference
// channel below; protocol runs are re-run to check determinism, and batched
// lanes are re-run per instance; later passes must reproduce the first
// pass's outcomes exactly. Any disagreement makes "correct" false;
// broadcasts that do not complete count as failed.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/workload.hpp"
#include "core/centralized.hpp"
#include "core/distributed.hpp"
#include "core/lower_bound.hpp"
#include "graph/bfs.hpp"
#include "sim/batch/batch_runner.hpp"
#include "sim/runner.hpp"
#include "sim/schedule.hpp"
#include "sim/session.hpp"
#include "util/rng.hpp"

namespace {

using namespace radio;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------------ workloads

enum class Kind { kCentralized, kDistributed, kObliviousBatch };

struct Spec {
  std::string_view name;
  Kind kind;
  NodeId n;
  double p;
  int unit_trials;  ///< broadcasts per unit (per generated graph)
  int pass_units;   ///< units per timed pass
};

double sparse_p(NodeId n) {  // d = ln² n, the Theorem 7 regime E1/E3 use
  const double ln_n = std::log(static_cast<double>(n));
  return ln_n * ln_n / static_cast<double>(n);
}

const Spec kSpecs[] = {
    // Theorem 5: sparse instances, a centralized schedule built and played
    // back on the engine for each of 8 sources per instance.
    {"centralized", Kind::kCentralized, 4096, sparse_p(4096), 8, 16},
    // Theorem 7: sparse instances, the paper's distributed protocol driven
    // round by round on the engine from 8 sources per instance.
    {"distributed", Kind::kDistributed, 4096, sparse_p(4096), 8, 16},
    // Theorem 8's topology-oblivious sequences (the Theorem 7 schedule as
    // one): 128 broadcasts per sparse instance, 64 batched lanes.
    {"oblivious_batch", Kind::kObliviousBatch, 4096, sparse_p(4096), 128, 5},
};

constexpr std::uint32_t kBatchLanes = 64;
constexpr int kAuditStride = 4;  ///< audit units u with u % kAuditStride == 0
constexpr int kLaneAuditStride = 32;  ///< audited lanes within a batch unit
constexpr std::size_t kMinPasses = 5;
/// Set-up units draw from streams far above any pass unit index.
constexpr std::uint64_t kSetupStreamBase = std::uint64_t{1} << 40;

std::uint32_t round_budget(NodeId n) {  // E3's budget: 60 ln n
  return static_cast<std::uint32_t>(60.0 * std::log(static_cast<double>(n)));
}

// ------------------------------------------------------------------- tracing

enum class Layer : std::uint8_t { kGraph, kSelect, kChannel, kTally };
constexpr std::size_t kLayerCount = 4;

struct Span {
  std::uint32_t parent;
  Layer layer;
  std::uint64_t unit;  ///< spans of one unit (instance) share this id
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// In-memory span recorder. Disabled, open/close cost one branch; enabled,
/// each span is two clock reads and one push_back. Spans nest strictly (the
/// driver is single-threaded), so the open stack gives every span its cause.
class Tracer {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const noexcept { return enabled_; }

  std::uint32_t open(Layer layer, std::uint64_t unit) {
    if (!enabled_) return kNone;
    const auto id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(
        {stack_.empty() ? kNone : stack_.back(), layer, unit, now_ns(), 0});
    stack_.push_back(id);
    return id;
  }

  void close(std::uint32_t id) {
    if (!enabled_) return;
    spans_[id].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Seconds each layer spent in its own spans minus its child spans.
  std::array<double, kLayerCount> self_seconds() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const std::int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
      self[i] += dur;
      if (spans_[i].parent != kNone) self[spans_[i].parent] -= dur;
    }
    std::array<double, kLayerCount> out{};
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[static_cast<std::size_t>(spans_[i].layer)] +=
          static_cast<double>(self[i]) * 1e-9;
    return out;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, Layer layer, std::uint64_t unit)
      : tracer_(tracer), id_(tracer.open(layer, unit)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

/// Work done by the timed trials, summed over the run.
struct Work {
  std::uint64_t trials = 0;
  std::uint64_t edges = 0;          ///< edges of the generated instances
  std::uint64_t rounds = 0;         ///< channel rounds simulated
  std::uint64_t transmissions = 0;
  std::uint64_t collisions = 0;
  std::uint64_t touches = 0;        ///< Σ deg(t) over transmitters t
};

std::uint64_t degree_sum(const Graph& g, std::span<const NodeId> nodes) {
  std::uint64_t sum = 0;
  for (NodeId v : nodes) sum += g.degree(v);
  return sum;
}

using Rounds = std::vector<std::vector<NodeId>>;

/// Forwards to a protocol and, when asked, records a select span around each
/// call (plus a tally span for the touch count) or the transmitter sets.
class ProbedProtocol final : public Protocol {
 public:
  ProbedProtocol(std::unique_ptr<Protocol> inner, Tracer* tracer, Work* work,
                 std::uint64_t unit, Rounds* record)
      : inner_(std::move(inner)),
        tracer_(tracer),
        work_(work),
        unit_(unit),
        record_(record) {}

  std::string name() const override { return inner_->name(); }
  bool is_distributed() const override { return inner_->is_distributed(); }
  void reset(const ProtocolContext& ctx) override { inner_->reset(ctx); }
  bool wants_observations() const override {
    return inner_->wants_observations();
  }
  void observe(std::uint32_t round,
               std::span<const ChannelObservation> obs) override {
    inner_->observe(round, obs);
  }

  void select_transmitters(std::uint32_t round, const SessionView& session,
                           Rng& rng, std::vector<NodeId>& out) override {
    if (tracer_) {
      {
        const ScopedSpan span(*tracer_, Layer::kSelect, unit_);
        inner_->select_transmitters(round, session, rng, out);
      }
      const ScopedSpan span(*tracer_, Layer::kTally, unit_);
      work_->touches += degree_sum(session.graph(), out);
    } else {
      inner_->select_transmitters(round, session, rng, out);
    }
    if (record_) record_->push_back(out);
  }

 private:
  std::unique_ptr<Protocol> inner_;
  Tracer* tracer_;
  Work* work_;
  std::uint64_t unit_;
  Rounds* record_;
};

// --------------------------------------------------------- reference channel

struct Replay {
  bool legal = true;  ///< every transmitter held the message when it sent
  std::uint32_t rounds = 0;
  std::size_t informed = 1;
  std::uint64_t collisions = 0;
  std::uint64_t transmissions = 0;
  std::vector<std::uint32_t> newly;  ///< per round
};

/// The paper's channel restated from the listener's side, independent of the
/// engine's transmitter-side sweep and bitmap kernel: a node that does not
/// transmit hears the message iff exactly one neighbour transmits and that
/// neighbour holds it; two or more transmitting neighbours collide. Stops
/// when every node is informed, as playback and run_protocol do.
Replay reference_replay(const Graph& g, NodeId source, const Rounds& rounds) {
  const NodeId n = g.num_nodes();
  std::vector<char> informed(n, 0);
  std::vector<char> transmitting(n, 0);
  informed[source] = 1;
  Replay r;
  std::vector<NodeId> fresh;
  for (const std::vector<NodeId>& tx : rounds) {
    if (r.informed == n) break;
    for (NodeId t : tx) {
      transmitting[t] = 1;
      r.legal = r.legal && informed[t] != 0;
    }
    fresh.clear();
    for (NodeId v = 0; v < n; ++v) {
      if (transmitting[v]) continue;
      int heard = 0;
      NodeId sender = 0;
      for (NodeId w : g.neighbors(v)) {
        if (!transmitting[w]) continue;
        sender = w;
        if (++heard == 2) break;
      }
      if (heard == 2)
        ++r.collisions;
      else if (heard == 1 && informed[sender] && !informed[v])
        fresh.push_back(v);
    }
    for (NodeId v : fresh) informed[v] = 1;
    for (NodeId t : tx) transmitting[t] = 0;
    r.informed += fresh.size();
    r.transmissions += tx.size();
    r.newly.push_back(static_cast<std::uint32_t>(fresh.size()));
    ++r.rounds;
  }
  return r;
}

/// Whether a replay reproduces an engine run round for round.
bool replay_matches(const Replay& r, const BroadcastRun& run,
                    const BroadcastSession& session) {
  if (!r.legal || r.rounds != run.rounds || r.informed != run.informed ||
      r.collisions != run.collisions || r.transmissions != run.transmissions)
    return false;
  const std::vector<RoundStats>& history = session.history();
  if (history.size() != r.newly.size()) return false;
  for (std::size_t i = 0; i < history.size(); ++i)
    if (history[i].newly_informed != r.newly[i]) return false;
  return true;
}

bool same_run(const BroadcastRun& a, const BroadcastRun& b) {
  return a.completed == b.completed && a.rounds == b.rounds &&
         a.collisions == b.collisions && a.transmissions == b.transmissions &&
         a.informed == b.informed;
}

/// A protocol run on a fresh session that records its transmitter sets.
struct RecordedRun {
  BroadcastRun run;
  Rounds rounds;
  std::unique_ptr<BroadcastSession> session;
};

RecordedRun record_run(std::unique_ptr<Protocol> protocol,
                       const ProtocolContext& ctx, const Graph& g,
                       NodeId source, Rng rng, std::uint32_t max_rounds) {
  RecordedRun rec;
  ProbedProtocol probe(std::move(protocol), nullptr, nullptr, 0, &rec.rounds);
  rec.session = std::make_unique<BroadcastSession>(g, source);
  rec.run = run_protocol(probe, ctx, *rec.session, rng, max_rounds);
  return rec;
}

// ------------------------------------------------------------------- driver

/// One unit: an instance drawn from its own stream and the broadcasts run on
/// it (several sources, or batched lanes from one source).
struct UnitResult {
  double work_s = 0.0;  ///< timed work (input draws and audits excluded)
  int trials = 0;
  int failed = 0;       ///< broadcasts that did not complete
  int mismatches = 0;   ///< invariant or audit disagreements
  std::uint64_t digest = 0xcbf29ce484222325ULL;  ///< of every run's outcome

  void record(const BroadcastRun& run) {
    ++trials;
    if (!run.completed) ++failed;
    for (std::uint64_t x : {std::uint64_t{run.rounds}, run.collisions,
                            run.transmissions, std::uint64_t{run.informed}})
      digest = (digest ^ x) * 0x100000001b3ULL;
  }
};

class Bench {
 public:
  Bench(const Spec& spec, std::uint64_t seed, Tracer& tracer)
      : spec_(spec),
        seed_(derive_row_seed(seed, stable_row_tag("perfbench"),
                              stable_row_tag(spec.name))),
        tracer_(tracer),
        params_{spec.n, spec.p} {}

  const Work& work() const noexcept { return work_; }

  /// Draws unit `unit`'s instance from stream `unit` and runs its
  /// broadcasts; `audit` replays its first broadcast (every
  /// kLaneAuditStride-th lane, batched) through the reference channel.
  UnitResult run_unit(std::uint64_t unit, bool audit) {
    switch (spec_.kind) {
      case Kind::kCentralized:
        return centralized(unit, audit);
      case Kind::kDistributed:
        return distributed(unit, audit);
      case Kind::kObliviousBatch:
        return oblivious_batch(unit, audit);
    }
    return {};
  }

 private:
  BroadcastInstance draw_instance(std::uint64_t unit, Rng& rng,
                                  double& work_s) {
    const auto start = Clock::now();
    BroadcastInstance inst;
    {
      const ScopedSpan span(tracer_, Layer::kGraph, unit);
      inst = make_broadcast_instance(params_, rng);
    }
    work_s += seconds_since(start);
    work_.edges += inst.graph.num_edges();
    return inst;
  }

  std::unique_ptr<Protocol> traced(std::unique_ptr<Protocol> p,
                                   std::uint64_t unit) {
    if (!tracer_.enabled()) return p;
    return std::make_unique<ProbedProtocol>(std::move(p), &tracer_, &work_,
                                            unit, nullptr);
  }

  UnitResult centralized(std::uint64_t unit, bool audit) {
    UnitResult res;
    Rng rng = Rng::for_stream(seed_, unit);
    const BroadcastInstance inst = draw_instance(unit, rng, res.work_s);
    const Graph& g = inst.graph;
    for (int t = 0; t < spec_.unit_trials; ++t) {
      const NodeId source = pick_source(g, rng);
      const auto start = Clock::now();
      CentralizedResult built;
      {
        const ScopedSpan span(tracer_, Layer::kSelect, unit);
        built = build_centralized_schedule(g, source,
                                           inst.params.expected_degree(), rng);
      }
      BroadcastSession session(g, source);
      SchedulePlayback played;
      {
        const ScopedSpan span(tracer_, Layer::kChannel, unit);
        played = play_schedule(built.schedule, session);
      }
      res.work_s += seconds_since(start);

      if (built.report.completed != played.completed ||
          played.protocol_violations != 0 ||
          played.rounds_used < built.report.eccentricity ||
          played.rounds_used > built.schedule.length())
        ++res.mismatches;
      std::uint64_t transmissions = 0;
      for (std::uint32_t r = 0; r < played.rounds_used; ++r) {
        transmissions += built.schedule.rounds[r].size();
        work_.touches += degree_sum(g, built.schedule.rounds[r]);
      }
      const BroadcastRun as_run{played.completed, played.rounds_used,
                                played.collisions, transmissions,
                                session.informed_count()};
      res.record(as_run);
      tally(as_run);

      if (audit && t == 0) {
        const Replay r = reference_replay(g, source, built.schedule.rounds);
        if (!replay_matches(r, as_run, session)) ++res.mismatches;
      }
    }
    return res;
  }

  UnitResult distributed(std::uint64_t unit, bool audit) {
    UnitResult res;
    Rng rng = Rng::for_stream(seed_, unit);
    const std::uint32_t budget = round_budget(spec_.n);
    const BroadcastInstance inst = draw_instance(unit, rng, res.work_s);
    const Graph& g = inst.graph;
    const ProtocolContext ctx = context_for(inst);
    for (int t = 0; t < spec_.unit_trials; ++t) {
      const NodeId source = pick_source(g, rng);
      const Rng protocol_rng = rng;
      const auto start = Clock::now();
      const std::unique_ptr<Protocol> protocol =
          traced(std::make_unique<ElsasserGasieniecBroadcast>(), unit);
      BroadcastSession session(g, source);
      BroadcastRun run;
      {
        const ScopedSpan span(tracer_, Layer::kChannel, unit);
        run = run_protocol(*protocol, ctx, session, rng, budget);
      }
      res.work_s += seconds_since(start);

      res.record(run);
      tally(run);
      if (run.informed != session.informed_count() ||
          run.completed != (run.informed == g.num_nodes()))
        ++res.mismatches;

      if (audit && t == 0) {
        const RecordedRun again =
            record_run(std::make_unique<ElsasserGasieniecBroadcast>(), ctx, g,
                       source, protocol_rng, budget);
        const Replay r = reference_replay(g, source, again.rounds);
        if (!same_run(again.run, run) ||
            !replay_matches(r, again.run, *again.session) ||
            run.rounds < bfs_layers(g, source).eccentricity())
          ++res.mismatches;
      }
    }
    return res;
  }

  UnitResult oblivious_batch(std::uint64_t unit, bool audit) {
    UnitResult res;
    Rng rng = Rng::for_stream(seed_, unit);
    const std::uint32_t budget = round_budget(spec_.n);
    const BroadcastInstance inst = draw_instance(unit, rng, res.work_s);
    const Graph& g = inst.graph;
    const ProtocolContext ctx = context_for(inst);
    const NodeId source = pick_source(g, rng);
    const std::uint64_t lane_seed = rng();
    const auto start = Clock::now();
    const std::vector<double> sequence =
        theorem7_oblivious_sequence(ctx, budget);
    const ProtocolFactory factory = [&](int) {
      return traced(std::make_unique<ObliviousSequenceProtocol>(sequence),
                    unit);
    };
    std::vector<BroadcastRun> runs;
    {
      const ScopedSpan span(tracer_, Layer::kChannel, unit);
      runs = run_broadcast_batch(g, ctx, source, spec_.unit_trials, lane_seed,
                                 0, factory, budget, kBatchLanes);
    }
    res.work_s += seconds_since(start);

    if (runs.size() != static_cast<std::size_t>(spec_.unit_trials))
      ++res.mismatches;
    for (const BroadcastRun& run : runs) {
      res.record(run);
      tally(run);
      if (run.completed != (run.informed == g.num_nodes())) ++res.mismatches;
    }

    if (audit) {
      const auto plain = [&](int) {
        return std::make_unique<ObliviousSequenceProtocol>(sequence);
      };
      if (plan_broadcast_batch(g, spec_.unit_trials, plain, kBatchLanes).path !=
          BatchDispatch::Path::kBatched)
        ++res.mismatches;
      for (std::size_t t = 0; t < runs.size(); t += kLaneAuditStride) {
        const RecordedRun alone =
            record_run(plain(0), ctx, g, source,
                       Rng::for_stream(lane_seed, t), budget);
        const Replay r = reference_replay(g, source, alone.rounds);
        if (!same_run(alone.run, runs[t]) ||
            !replay_matches(r, alone.run, *alone.session))
          ++res.mismatches;
      }
    }
    return res;
  }

  void tally(const BroadcastRun& run) {
    ++work_.trials;
    work_.rounds += run.rounds;
    work_.transmissions += run.transmissions;
    work_.collisions += run.collisions;
  }

  const Spec& spec_;
  std::uint64_t seed_;
  Tracer& tracer_;
  GnpParams params_;
  Work work_;
};

/// Nearest-rank quantile of a non-empty sample.
double quantile_of(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "radio_perfbench: %s\n"
               "usage: radio_perfbench --workload W --seed S --seconds T "
               "--trace 0|1\nworkloads:",
               why);
  for (const Spec& s : kSpecs)
    std::fprintf(stderr, " %.*s", static_cast<int>(s.name.size()),
                 s.name.data());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  if (*text < '0' || *text > '9') return false;
  out = std::strtoull(text, &end, 10);
  return *end == '\0';
}

struct Options {
  const Spec* spec = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

Options parse_options(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for a flag");
    const char* value = argv[++i];
    std::uint64_t u = 0;
    if (flag == "--workload") {
      for (const Spec& s : kSpecs)
        if (s.name == value) opt.spec = &s;
      if (!opt.spec) usage("unknown workload");
    } else if (flag == "--seed") {
      if (!parse_u64(value, opt.seed)) usage("--seed takes an integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, u) || u == 0 || u > 3600)
        usage("--seconds takes an integer in [1, 3600]");
      opt.seconds = static_cast<double>(u);
    } else if (flag == "--trace") {
      if (!parse_u64(value, u) || u > 1) usage("--trace takes 0 or 1");
      opt.trace = u == 1;
      have_trace = true;
    } else {
      usage("unknown flag");
    }
  }
  if (!opt.spec || !have_seed || opt.seconds == 0.0 || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const Spec& spec = *opt.spec;
  Tracer tracer(opt.trace);
  Bench bench(spec, opt.seed, tracer);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  const auto account = [&](const UnitResult& r) {
    attempted += static_cast<std::uint64_t>(r.trials);
    failed += static_cast<std::uint64_t>(r.failed);
    mismatches += static_cast<std::uint64_t>(r.mismatches);
  };

  // Set-up: one unit on a fresh instance, from a stream no pass uses, timed
  // like a pass unit. One runs before every pass so that the set-up samples
  // spread over the run; every kAuditStride-th is audited. Their trials
  // count as attempted but not towards the layer metrics.
  Tracer no_trace(false);
  Bench setup(spec, opt.seed, no_trace);
  std::vector<double> setup_times;

  // Timed passes: every pass runs units [0, pass_units) again, so passes
  // differ only in how busy the host was; the first pass is audited and
  // later passes must reproduce its outcomes exactly.
  std::vector<double> pass_rates;
  std::vector<std::uint64_t> digests;
  double work_s = 0.0;
  while (work_s < opt.seconds || pass_rates.size() < kMinPasses) {
    const UnitResult warm =
        setup.run_unit(kSetupStreamBase + pass_rates.size(),
                       pass_rates.size() % kAuditStride == 0);
    account(warm);
    setup_times.push_back(warm.work_s);

    const bool first = pass_rates.empty();
    double pass_s = 0.0;
    int pass_trials = 0;
    for (int u = 0; u < spec.pass_units; ++u) {
      const UnitResult r = bench.run_unit(static_cast<std::uint64_t>(u),
                                          first && u % kAuditStride == 0);
      account(r);
      if (first)
        digests.push_back(r.digest);
      else if (r.digest != digests[static_cast<std::size_t>(u)])
        ++mismatches;
      pass_s += r.work_s;
      pass_trials += r.trials;
    }
    work_s += pass_s;
    pass_rates.push_back(pass_trials / pass_s);
  }
  const double trials_per_s = quantile_of(pass_rates, 1.0);

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics.push_back({"trials_per_s", trials_per_s, "1/s"});
    metrics.push_back({"setup_s", quantile_of(setup_times, 0.5), "s"});
  } else {
    const Work& w = bench.work();
    const std::array<double, kLayerCount> self = tracer.self_seconds();
    const double graph_s = self[static_cast<std::size_t>(Layer::kGraph)];
    const double select_s = self[static_cast<std::size_t>(Layer::kSelect)];
    const double channel_s = self[static_cast<std::size_t>(Layer::kChannel)];
    const auto trials = static_cast<double>(w.trials);
    const auto per_trial = [&](double x) { return x / trials; };
    metrics.push_back({"graph_ms", 1e3 * per_trial(graph_s), "ms"});
    metrics.push_back(
        {"graph_edges_per_s", static_cast<double>(w.edges) / graph_s, "1/s"});
    metrics.push_back({"select_ms", 1e3 * per_trial(select_s), "ms"});
    metrics.push_back({"channel_ms", 1e3 * per_trial(channel_s), "ms"});
    metrics.push_back({"channel_touches_per_s",
                       static_cast<double>(w.touches) / channel_s, "1/s"});
    metrics.push_back({"rounds_per_trial",
                       per_trial(static_cast<double>(w.rounds)), "count"});
    metrics.push_back({"transmissions_per_trial",
                       per_trial(static_cast<double>(w.transmissions)),
                       "count"});
    metrics.push_back({"collisions_per_trial",
                       per_trial(static_cast<double>(w.collisions)), "count"});
    metrics.push_back({"traced_trials_per_s", trials_per_s, "1/s"});
  }

  std::sort(pass_rates.begin(), pass_rates.end());
  std::printf("workload %.*s: n=%u p=%.6g, %llu trials in %.3f s of timed "
              "work; trials/s of %zu passes:",
              static_cast<int>(spec.name.size()), spec.name.data(), spec.n,
              spec.p, static_cast<unsigned long long>(attempted), work_s,
              pass_rates.size());
  for (double r : pass_rates) std::printf(" %.0f", r);
  std::printf("\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              mismatches == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name, metrics[i].value,
                metrics[i].unit);
  std::printf("}}\n");
  return 0;
}
