#include "analysis/bench_runner.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/experiment_registry.hpp"
#include "analysis/trial_runner.hpp"

namespace radio {
namespace {

std::string run_git_describe() {
  // Best-effort: radio_bench may run outside a checkout (installed, CI
  // artifact dir); provenance then records "unknown" rather than failing.
  FILE* pipe = ::popen("git describe --always --dirty 2>/dev/null", "r");
  if (!pipe) return "unknown";
  char buffer[256];
  std::string out;
  while (std::fgets(buffer, sizeof buffer, pipe)) out += buffer;
  const int status = ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  if (status != 0 || out.empty()) return "unknown";
  return out;
}

std::string compiler_string() {
#if defined(__clang__)
  return std::string("clang ") + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return std::string("gcc ") + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

std::string iso8601_utc_now() {
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
  ::gmtime_r(&now, &tm);
  char buffer[32];
  std::strftime(buffer, sizeof buffer, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buffer;
}

Json config_json(const ExperimentConfig& config) {
  Json obj = Json::object();
  obj.set("trials", config.trials);
  obj.set("seed", config.seed);
  obj.set("quick", config.quick);
  obj.set("graph_backend", std::string(to_string(config.graph_backend)));
  obj.set("rate", config.rate);
  obj.set("horizon", config.horizon);
  obj.set("csv_path", config.csv_path);
  return obj;
}

Json table_json(const Table& table) {
  Json obj = Json::object();
  Json header = Json::array();
  for (const std::string& column : table.header()) header.push_back(column);
  obj.set("columns", std::move(header));
  Json rows = Json::array();
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    Json row = Json::array();
    for (std::size_t c = 0; c < table.num_cols(); ++c)
      row.push_back(table.at(r, c));
    rows.push_back(std::move(row));
  }
  obj.set("rows", std::move(rows));
  return obj;
}

Json fit_json(const ModelFitNote& fit) {
  Json obj = Json::object();
  obj.set("label", fit.label);
  obj.set("model", fit.model);
  Json coefficients = Json::array();
  for (const FitCoefficient& c : fit.coefficients) {
    Json coeff = Json::object();
    coeff.set("term", c.term);
    coeff.set("value", c.value);
    coefficients.push_back(std::move(coeff));
  }
  obj.set("coefficients", std::move(coefficients));
  obj.set("r_squared", fit.r_squared);
  return obj;
}

/// The environment variables radio_bench read before its flags replaced
/// them, each with its flag (none for RADIO_BATCH, whose knob is gone). A
/// script that still sets one is refused rather than silently run with the
/// defaults.
constexpr struct {
  const char* variable;
  const char* flag;
} kRetiredVariables[] = {
    {"RADIO_TRIALS", "--trials"},   {"RADIO_SEED", "--seed"},
    {"RADIO_FULL", "--full"},       {"RADIO_CSV_DIR", "--csv"},
    {"RADIO_BATCH", nullptr},       {"RADIO_GRAPH_BACKEND", "--graph-backend"},
    {"RADIO_RATE", "--rate"},       {"RADIO_HORIZON", "--horizon"},
};

/// Closes before checking: a full disk surfaces only when the buffer is
/// flushed.
bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream file(path, std::ios::binary);
  file << content;
  file.close();
  return !file.fail();
}

}  // namespace

RunProvenance collect_provenance() {
  RunProvenance provenance;
  provenance.git_describe = run_git_describe();
  provenance.compiler = compiler_string();
  provenance.openmp_threads = trial_threads();
  provenance.generated_at = iso8601_utc_now();
  return provenance;
}

RunRecord run_registered_experiment(const std::string& id,
                                    const ExperimentConfig& config) {
  const ExperimentEntry* entry = ExperimentRegistry::find(id);
  if (!entry)
    throw std::runtime_error("unknown experiment id '" + id +
                             "' (see radio_bench list)");
  RunRecord record;
  record.id = entry->id;
  record.config = config;
  const auto start = std::chrono::steady_clock::now();
  record.result = entry->fn(config);
  const auto stop = std::chrono::steady_clock::now();
  record.wall_seconds =
      std::chrono::duration<double>(stop - start).count();
  return record;
}

Json manifest_json(const RunRecord& record, const RunProvenance& provenance) {
  Json manifest = Json::object();
  manifest.set("schema_version", kManifestSchemaVersion);
  manifest.set("id", record.id);
  manifest.set("title", record.result.title);
  manifest.set("config", config_json(record.config));

  Json prov = Json::object();
  prov.set("git", provenance.git_describe);
  prov.set("compiler", provenance.compiler);
  prov.set("openmp_threads", provenance.openmp_threads);
  prov.set("generated_at", provenance.generated_at);
  manifest.set("provenance", std::move(prov));

  manifest.set("wall_seconds", record.wall_seconds);
  manifest.set("table", table_json(record.result.table));

  Json fits = Json::array();
  for (const ModelFitNote* fit : record.result.fits())
    fits.push_back(fit_json(*fit));
  manifest.set("fits", std::move(fits));

  Json notes = Json::array();
  for (const ExperimentNote& note : record.result.notes)
    notes.push_back(note.text);
  manifest.set("notes", std::move(notes));
  return manifest;
}

std::vector<std::string> metrics_lines(const RunRecord& record) {
  std::vector<std::string> lines;
  const Table& table = record.result.table;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    Json line = Json::object();
    line.set("experiment", record.id);
    line.set("row", static_cast<std::int64_t>(r));
    Json cells = Json::object();
    for (std::size_t c = 0; c < table.num_cols(); ++c)
      cells.set(table.header()[c], table.at(r, c));
    line.set("cells", std::move(cells));
    line.set("seed", record.config.seed);
    line.set("trials", record.config.trials);
    lines.push_back(line.dump());
  }
  Json summary = Json::object();
  summary.set("experiment", record.id);
  summary.set("event", "summary");
  summary.set("rows", static_cast<std::int64_t>(table.num_rows()));
  summary.set("wall_seconds", record.wall_seconds);
  lines.push_back(summary.dump());
  return lines;
}

int run_bench_cli(int argc, const char* const* argv) {
  for (const auto& retired : kRetiredVariables) {
    if (std::getenv(retired.variable) == nullptr) continue;
    if (retired.flag != nullptr)
      std::fprintf(stderr,
                   "radio_bench: %s is no longer read; unset it and pass %s "
                   "instead\n",
                   retired.variable, retired.flag);
    else
      std::fprintf(stderr, "radio_bench: %s is no longer read; unset it\n",
                   retired.variable);
    return 2;
  }

  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);

  BenchCommand command;
  try {
    command = parse_bench_command(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "radio_bench: %s\n\n%s", error.what(),
                 bench_usage().c_str());
    return 2;
  }

  if (command.action == BenchCommand::Action::kHelp) {
    std::fputs(bench_usage().c_str(), stdout);
    return 0;
  }
  if (command.action == BenchCommand::Action::kList) {
    for (const ExperimentEntry& entry : ExperimentRegistry::all())
      std::printf("%-4s %s\n", entry.id.c_str(), entry.title.c_str());
    return 0;
  }

  // Resolve the run list up front so an unknown id fails before any work.
  std::vector<std::string> ids = command.ids;
  if (command.all) {
    ids.clear();
    for (const ExperimentEntry& entry : ExperimentRegistry::all())
      ids.push_back(entry.id);
  }
  for (const std::string& id : ids) {
    if (!ExperimentRegistry::find(id)) {
      std::fprintf(stderr,
                   "radio_bench: unknown experiment id '%s' "
                   "(see radio_bench list)\n",
                   id.c_str());
      return 2;
    }
  }

  std::error_code ec;
  for (const std::string* dir : {&command.out_dir, &command.csv_dir}) {
    if (dir->empty()) continue;
    std::filesystem::create_directories(*dir, ec);
    if (ec) {
      std::fprintf(stderr, "radio_bench: cannot create '%s': %s\n",
                   dir->c_str(), ec.message().c_str());
      return 1;
    }
  }

  const bool structured = !command.out_dir.empty();
  const RunProvenance provenance = collect_provenance();
  std::ofstream metrics;
  if (structured) {
    metrics.open(command.out_dir + "/metrics.jsonl",
                 std::ios::binary | std::ios::trunc);
    if (!metrics) {
      std::fprintf(stderr, "radio_bench: cannot write %s/metrics.jsonl\n",
                   command.out_dir.c_str());
      return 1;
    }
  }

  double total_seconds = 0.0;
  for (const std::string& id : ids) {
    const ExperimentConfig config = config_for_run(command, id);
    std::fprintf(stderr, "[radio_bench] running %s (trials=%d seed=%llu %s)\n",
                 id.c_str(), config.trials,
                 static_cast<unsigned long long>(config.seed),
                 config.quick ? "quick" : "full");
    RunRecord record;
    try {
      record = run_registered_experiment(id, config);
    } catch (const std::exception& error) {
      // Drivers reject unusable configs (e.g. E7 needs --trials >= 2) with
      // a diagnostic instead of silently rewriting them; surface it as an
      // input error, same as a malformed flag.
      std::fprintf(stderr, "radio_bench: %s: %s\n", id.c_str(), error.what());
      return 2;
    }
    total_seconds += record.wall_seconds;
    if (!record.result.present(config)) {
      std::fprintf(stderr, "radio_bench: cannot write %s\n",
                   config.csv_path.c_str());
      return 1;
    }
    if (structured) {
      const std::string manifest_path =
          command.out_dir + "/" + lowercase_id(id) + ".manifest.json";
      const Json manifest = manifest_json(record, provenance);
      if (!write_text_file(manifest_path, manifest.dump(2) + "\n")) {
        std::fprintf(stderr, "radio_bench: cannot write %s\n",
                     manifest_path.c_str());
        return 1;
      }
      for (const std::string& line : metrics_lines(record))
        metrics << line << '\n';
      metrics.flush();
      if (!metrics) {
        std::fprintf(stderr, "radio_bench: cannot write %s/metrics.jsonl\n",
                     command.out_dir.c_str());
        return 1;
      }
      std::fprintf(stderr, "[radio_bench] %s done in %.2fs, manifest %s\n",
                   id.c_str(), record.wall_seconds, manifest_path.c_str());
    } else {
      std::fprintf(stderr, "[radio_bench] %s done in %.2fs\n", id.c_str(),
                   record.wall_seconds);
    }
  }
  std::fprintf(stderr, "[radio_bench] %zu experiment(s) in %.2fs\n",
               ids.size(), total_seconds);
  return 0;
}

}  // namespace radio
