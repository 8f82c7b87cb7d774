// radio_bench — the experiment runner: `radio_bench list`, `radio_bench run
// E3 E7 --trials 32 --seed 7 --out results/`, `radio_bench run --all`.
// Tables print to stdout; --out additionally records per-experiment
// manifests and a JSONL metrics stream. Regeneration workflow:
// docs/experiments.md.
#include "analysis/bench_runner.hpp"

int main(int argc, char** argv) { return radio::run_bench_cli(argc, argv); }
