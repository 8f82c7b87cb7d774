#include "analysis/experiment_registry.hpp"

#include <algorithm>
#include <cctype>

#include "analysis/experiments.hpp"
#include "util/assert.hpp"

namespace radio {

const std::vector<ExperimentEntry>& ExperimentRegistry::all() {
  static const std::vector<ExperimentEntry> entries = {
      {"E1",
       "Theorem 5: centralized broadcast rounds vs n  (target ln n/ln d + "
       "ln d)",
       &run_e1_centralized_scaling},
      {"E2",
       "Theorem 5: rounds vs density at fixed n (diameter vs selective "
       "term)",
       &run_e2_centralized_density},
      {"E3", "Theorem 7: distributed broadcast rounds vs n (target ln n)",
       &run_e3_distributed_scaling},
      {"E4", "Protocol comparison on G(n,p), d = ln^2 n",
       &run_e4_protocol_comparison},
      {"E5", "Lemma 3: BFS layer structure of G(n,p)",
       &run_e5_layer_structure},
      {"E6", "Lemma 4 / Proposition 2: independent coverings & matchings",
       &run_e6_covering_matching},
      {"E7", "Theorems 6 & 8: guided adversarial search (lower bounds)",
       &run_e7_lower_bounds},
      {"E8", "Dense regime p = 1 - f(n): rounds vs ln n / ln(1/f)",
       &run_e8_dense_regime},
      {"E9", "Theorem 5 ablations: what each design choice buys",
       &run_e9_phase_ablation},
      {"E10", "Gilbert G(n,p) vs Erdos-Renyi G(n,m): same broadcast times",
       &run_e10_model_equivalence},
      {"E11",
       "Fault robustness: precomputed Thm-5 schedule vs adaptive Thm-7 "
       "protocol under crashes and loss",
       &run_e11_fault_robustness},
      {"E12", "Radio gossiping on G(n,p): rounds to all-to-all completion",
       &run_e12_gossip_scaling},
      {"E13",
       "Collision detection vs knowing p: adaptive backoff against "
       "Theorem 7",
       &run_e13_adaptive_backoff},
      {"E14", "Multi-source broadcast: rounds vs number of sources k",
       &run_e14_multisource},
      {"E15",
       "Structured topologies: radio broadcast where diameter dominates",
       &run_e15_structured_topologies},
      {"E16",
       "Streaming throughput vs arrival rate: stability knee under the GHK "
       "bound",
       &run_e16_stream_throughput},
      {"E17",
       "Streaming latency distribution at fixed fractions of the GHK bound",
       &run_e17_stream_latency},
      {"E18",
       "Giant-n streaming on the implicit backend: queue stability over "
       "long horizons",
       &run_e18_stream_giant},
  };
  return entries;
}

const ExperimentEntry* ExperimentRegistry::find(const std::string& id) {
  std::string canonical = id;
  std::transform(canonical.begin(), canonical.end(), canonical.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  for (const ExperimentEntry& entry : all())
    if (entry.id == canonical) return &entry;
  return nullptr;
}

ExperimentResult ExperimentRegistry::new_result(const std::string& id) {
  const ExperimentEntry* entry = find(id);
  RADIO_EXPECTS(entry != nullptr);
  ExperimentResult result;
  result.id = entry->id;
  result.title = entry->title;
  return result;
}

}  // namespace radio
