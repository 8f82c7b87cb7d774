// The experiment drivers E1…E18 (see DESIGN.md §3). Each regenerates one
// "table" of the reproduction: a Monte-Carlo sweep plus the model fits or
// shape checks that stand in for the paper's asymptotic statements. The
// ExperimentRegistry table (experiment_registry.cpp) names every driver
// declared here, which is how `radio_bench` resolves them by id.
#pragma once

#include "analysis/experiment_config.hpp"

namespace radio {

/// E1 — Theorem 5 upper bound: centralized rounds vs n across degree
/// regimes, fitted to a·(ln n / ln d) + b·ln d + c.
ExperimentResult run_e1_centralized_scaling(const ExperimentConfig& config);

/// E2 — Theorem 5 in d: fixed n, sweep density; the ln n/ln d vs ln d
/// crossover (U-shape) of the round count.
ExperimentResult run_e2_centralized_density(const ExperimentConfig& config);

/// E3 — Theorem 7 upper bound: distributed rounds vs n, fitted to
/// a·ln n + b; paper tail vs all-informed tail variant.
ExperimentResult run_e3_distributed_scaling(const ExperimentConfig& config);

/// E4 — protocol shoot-out: Theorem 5 / Theorem 7 / Decay / selective
/// family / round-robin / flooding / single-port rumor spreading.
ExperimentResult run_e4_protocol_comparison(const ExperimentConfig& config);

/// E5 — Lemma 3: layer sizes vs d^i, intra-layer edges, multi-parent
/// fractions, sibling groups.
ExperimentResult run_e5_layer_structure(const ExperimentConfig& config);

/// E6 — Lemma 4 and Proposition 2: sampled independent coverings, private
/// matchings, minimal-cover-to-matching extraction.
ExperimentResult run_e6_covering_matching(const ExperimentConfig& config);

/// E7 — Theorems 6 and 8: adversarial schedule searches; best found
/// completion times vs the ln n and ln n/ln d + ln d scales.
ExperimentResult run_e7_lower_bounds(const ExperimentConfig& config);

/// E8 — §3.1 dense regime p = 1 − f(n): rounds vs ln n / ln(1/f).
ExperimentResult run_e8_dense_regime(const ExperimentConfig& config);

/// E9 — ablations of Theorem 5's design choices (DESIGN.md §10).
ExperimentResult run_e9_phase_ablation(const ExperimentConfig& config);

/// E10 — Gilbert vs Erdős–Rényi model equivalence (§1.1's "results also
/// hold for Erdős–Rényi graphs").
ExperimentResult run_e10_model_equivalence(const ExperimentConfig& config);

/// E11 — extension: crash/loss fault robustness of a pre-planned Theorem-5
/// schedule vs the adaptive Theorem-7 protocol.
ExperimentResult run_e11_fault_robustness(const ExperimentConfig& config);

/// E12 — extension: radio gossiping (all-to-all) round counts.
ExperimentResult run_e12_gossip_scaling(const ExperimentConfig& config);

/// E13 — extension: collision-detection adaptive backoff (no p knowledge)
/// vs Theorem 7 (knows p).
ExperimentResult run_e13_adaptive_backoff(const ExperimentConfig& config);

/// E14 — extension: multi-source broadcast, rounds vs source count k.
ExperimentResult run_e14_multisource(const ExperimentConfig& config);

/// E15 — extension: structured topologies (hypercube / torus / ring / tree
/// / random-regular) where the diameter term dominates.
ExperimentResult run_e15_structured_topologies(const ExperimentConfig& config);

/// E16 — streaming: throughput vs Poisson arrival rate λ, stability-knee
/// detection against the GHK O(1/log n) reference (DESIGN.md §9).
ExperimentResult run_e16_stream_throughput(const ExperimentConfig& config);

/// E17 — streaming: per-message latency distribution at fixed λ fractions
/// of the GHK bound.
ExperimentResult run_e17_stream_latency(const ExperimentConfig& config);

/// E18 — streaming: queue stability over long horizons at giant n on the
/// implicit G(n,p) backend.
ExperimentResult run_e18_stream_giant(const ExperimentConfig& config);

}  // namespace radio
