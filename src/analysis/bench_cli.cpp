#include "analysis/bench_cli.hpp"

#include <algorithm>
#include <cctype>
#include <limits>
#include <stdexcept>

#include "graph/backend.hpp"
#include "util/cli.hpp"

namespace radio {
namespace {

[[noreturn]] void usage_error(const std::string& what) {
  throw std::runtime_error(what);
}

bool looks_like_experiment_id(const std::string& id) {
  if (id.size() < 2 || (id[0] != 'E' && id[0] != 'e')) return false;
  return std::all_of(id.begin() + 1, id.end(), [](unsigned char c) {
    return std::isdigit(c) != 0;
  });
}

std::string uppercase_id(const std::string& id) {
  std::string out = id;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return out;
}

/// The value of directory flag `name`, rejecting an explicit empty one.
std::string dir_flag(const CliArgs& cli, const std::string& name) {
  std::string dir = cli.get_string(name, "");
  if (cli.has(name) && dir.empty())
    usage_error("--" + name + " requires a directory");
  return dir;
}

}  // namespace

std::string lowercase_id(const std::string& id) {
  std::string out = id;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

BenchCommand parse_bench_command(const std::vector<std::string>& args) {
  BenchCommand command;
  if (args.empty()) return command;  // kHelp

  const std::string& verb = args[0];
  if (verb == "help" || verb == "--help" || verb == "-h") return command;
  if (verb == "list") {
    if (args.size() > 1) usage_error("list takes no arguments");
    command.action = BenchCommand::Action::kList;
    return command;
  }
  if (verb != "run")
    usage_error("unknown command '" + verb + "' (expected list or run)");
  command.action = BenchCommand::Action::kRun;

  // CliArgs skips argv[0], which is where the verb sits.
  std::vector<const char*> argv;
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  const CliArgs cli(static_cast<int>(argv.size()), argv.data(),
                    {"all", "full", "quick"});

  ExperimentConfig& config = command.config;
  config.trials = static_cast<int>(cli.get_int(
      "trials", config.trials, 1, std::numeric_limits<int>::max()));
  config.seed = cli.get_uint("seed", config.seed);
  const bool full = cli.get_bool("full", false);
  const bool quick = cli.get_bool("quick", false);
  if (full && quick) usage_error("pass either --full or --quick, not both");
  config.quick = !full;
  const std::string backend =
      cli.get_string("graph-backend", to_string(config.graph_backend));
  const auto choice = graph_backend_from_name(backend);
  if (!choice)
    usage_error("--graph-backend: '" + backend +
                "' is not a graph backend (expected auto, csr, bitmap or "
                "implicit)");
  config.graph_backend = *choice;
  // A pinned rate or horizon must be positive: 0 is the "driver default"
  // the flag's absence already means.
  config.rate = cli.get_double("rate", config.rate, 1e-9, 1e9);
  config.horizon = static_cast<int>(
      cli.get_int("horizon", config.horizon, 1, 100'000'000));
  command.out_dir = dir_flag(cli, "out");
  command.csv_dir = dir_flag(cli, "csv");

  command.all = cli.get_bool("all", false);
  for (const std::string& id : cli.positionals()) {
    if (!looks_like_experiment_id(id))
      usage_error("'" + id + "' is not an experiment id (expected E1…E18)");
    command.ids.push_back(uppercase_id(id));
  }
  cli.validate();
  if (command.ids.empty() && !command.all)
    usage_error("run requires experiment ids or --all");
  if (!command.ids.empty() && command.all)
    usage_error("pass either explicit ids or --all, not both");
  return command;
}

ExperimentConfig config_for_run(const BenchCommand& command,
                                const std::string& id) {
  ExperimentConfig config = command.config;
  const std::string& dir =
      command.csv_dir.empty() ? command.out_dir : command.csv_dir;
  if (!dir.empty()) config.csv_path = dir + "/" + lowercase_id(id) + ".csv";
  return config;
}

std::string bench_usage() {
  return
      "radio_bench — unified experiment runner (E1…E18)\n"
      "\n"
      "Usage:\n"
      "  radio_bench list                      list registered experiments\n"
      "  radio_bench run <ids...> [flags]      run selected experiments\n"
      "  radio_bench run --all [flags]         run every experiment\n"
      "\n"
      "Flags:\n"
      "  --trials N     Monte-Carlo trials per table row   (default 16)\n"
      "  --seed S       base RNG seed                      (default 42)\n"
      "  --full         large n grids\n"
      "  --quick        small n grids (default)\n"
      "  --graph-backend auto|csr|bitmap|implicit\n"
      "                 instance representation            (default auto)\n"
      "                 auto picks per instance via the cost model;\n"
      "                 implicit switches backend-aware drivers (E2) to the\n"
      "                 giant-n on-demand sampler\n"
      "  --rate L       streaming arrival rate λ, msgs/round.\n"
      "                 E16–E18 only: pins the λ grid to one rate\n"
      "  --horizon R    streaming wall rounds per trial.\n"
      "                 E16–E18 only: overrides the driver's horizon\n"
      "  --out DIR      write CSVs, per-experiment manifests (<id>.manifest\n"
      "                 .json) and a metrics.jsonl stream into DIR\n"
      "  --csv DIR      write CSVs only\n"
      "\n"
      "Tables print to stdout; runner progress goes to stderr. The RADIO_*\n"
      "environment variables are retired: radio_bench exits 2 while one is\n"
      "set. See docs/experiments.md.\n";
}

}  // namespace radio
