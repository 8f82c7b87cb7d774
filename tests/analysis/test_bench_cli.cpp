// radio_bench CLI parsing and config assembly: flags override the
// ExperimentConfig defaults, the CSV destination precedence is --csv >
// --out, and the retired RADIO_* environment variables are refused
// (docs/experiments.md).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/bench_cli.hpp"
#include "analysis/bench_runner.hpp"

namespace radio {
namespace {

int run_cli(std::vector<const char*> args) {
  args.insert(args.begin(), "radio_bench");
  return run_bench_cli(static_cast<int>(args.size()), args.data());
}

TEST(BenchCliTest, NoArgsMeansHelp) {
  EXPECT_EQ(parse_bench_command({}).action, BenchCommand::Action::kHelp);
  EXPECT_EQ(parse_bench_command({"--help"}).action,
            BenchCommand::Action::kHelp);
  EXPECT_EQ(parse_bench_command({"help"}).action, BenchCommand::Action::kHelp);
}

TEST(BenchCliTest, ParsesList) {
  EXPECT_EQ(parse_bench_command({"list"}).action, BenchCommand::Action::kList);
  EXPECT_THROW(parse_bench_command({"list", "extra"}), std::runtime_error);
}

TEST(BenchCliTest, ParsesRunWithIdsAndFlags) {
  const BenchCommand command = parse_bench_command(
      {"run", "E3", "e7", "--trials", "32", "--seed", "7", "--full", "--out",
       "results/"});
  EXPECT_EQ(command.action, BenchCommand::Action::kRun);
  ASSERT_EQ(command.ids.size(), 2u);
  EXPECT_EQ(command.ids[0], "E3");
  EXPECT_EQ(command.ids[1], "E7");  // lowercase input is canonicalized
  EXPECT_FALSE(command.all);
  EXPECT_EQ(command.config.trials, 32);
  EXPECT_EQ(command.config.seed, 7u);
  EXPECT_FALSE(command.config.quick);
  EXPECT_EQ(command.out_dir, "results/");
}

TEST(BenchCliTest, ParsesEqualsSyntaxAndAll) {
  const BenchCommand command = parse_bench_command(
      {"run", "--all", "--trials=4", "--seed=99", "--quick", "--csv=/tmp/x"});
  EXPECT_TRUE(command.all);
  EXPECT_TRUE(command.ids.empty());
  EXPECT_EQ(command.config.trials, 4);
  EXPECT_EQ(command.config.seed, 99u);
  EXPECT_TRUE(command.config.quick);
  EXPECT_EQ(command.csv_dir, "/tmp/x");
}

TEST(BenchCliTest, RejectsMalformedNumericFlagsWithDiagnostics) {
  // --trials=abc used to become atoi garbage; now every numeric flag parses
  // strictly and the diagnostic names the flag and the offending value.
  for (const char* bad : {"abc", "-3", "0", "1.5", "16x", ""}) {
    try {
      parse_bench_command({"run", "E1", std::string("--trials=") + bad});
      FAIL() << "--trials=" << bad << " should be rejected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("--trials"), std::string::npos);
    }
  }
  try {
    parse_bench_command({"run", "E1", "--seed", "banana"});
    FAIL() << "--seed banana should be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("--seed"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'banana'"), std::string::npos);
  }
  // Overflow is an error, not a wrap.
  EXPECT_THROW(parse_bench_command({"run", "E1", "--trials", "3000000000"}),
               std::runtime_error);
  EXPECT_THROW(
      parse_bench_command({"run", "E1", "--seed", "18446744073709551616"}),
      std::runtime_error);
}

TEST(BenchCliTest, RejectsMalformedCommands) {
  EXPECT_THROW(parse_bench_command({"frobnicate"}), std::runtime_error);
  EXPECT_THROW(parse_bench_command({"run"}), std::runtime_error);
  EXPECT_THROW(parse_bench_command({"run", "--trials", "3"}),
               std::runtime_error);  // no ids, no --all
  EXPECT_THROW(parse_bench_command({"run", "E1", "--all"}),
               std::runtime_error);  // both forms
  EXPECT_THROW(parse_bench_command({"run", "E1", "--trials"}),
               std::runtime_error);  // missing value
  EXPECT_THROW(parse_bench_command({"run", "E1", "--out", "--quick"}),
               std::runtime_error);  // missing value before a switch
  EXPECT_THROW(parse_bench_command({"run", "E1", "--trials", "0"}),
               std::runtime_error);
  EXPECT_THROW(parse_bench_command({"run", "E1", "--seed", "banana"}),
               std::runtime_error);
  EXPECT_THROW(parse_bench_command({"run", "E1", "--wat"}),
               std::runtime_error);
  EXPECT_THROW(parse_bench_command({"run", "E1", "--trails", "2"}),
               std::runtime_error);  // misspelt flag
  EXPECT_THROW(parse_bench_command({"run", "E7", "--batch", "4"}),
               std::runtime_error);  // retired flag
  EXPECT_THROW(parse_bench_command({"run", "notanid"}), std::runtime_error);
  EXPECT_THROW(parse_bench_command({"run", "E1", "--full", "--quick"}),
               std::runtime_error);  // contradictory grids
}

TEST(BenchCliTest, ConfigDefaultsWithoutEnvOrFlags) {
  const BenchCommand command = parse_bench_command({"run", "E1"});
  const ExperimentConfig config = config_for_run(command, "E1");
  EXPECT_EQ(config.trials, 16);
  EXPECT_EQ(config.seed, 42u);
  EXPECT_TRUE(config.quick);
  EXPECT_EQ(config.graph_backend, GraphBackendChoice::kAuto);
  EXPECT_TRUE(config.csv_path.empty());
}

TEST(BenchCliTest, CliFlagsTakePrecedenceOverEnv) {
  const BenchCommand command = parse_bench_command(
      {"run", "E10", "--trials", "9", "--seed", "7", "--quick", "--out",
       "/tmp/outdir"});
  const ExperimentConfig config = config_for_run(command, "E10");
  EXPECT_EQ(config.trials, 9);
  EXPECT_EQ(config.seed, 7u);
  EXPECT_TRUE(config.quick);
  EXPECT_EQ(config.csv_path, "/tmp/outdir/e10.csv");
}

TEST(BenchCliTest, CsvDirBeatsOutDirForCsvPlacement) {
  const BenchCommand command = parse_bench_command(
      {"run", "E2", "--csv", "/tmp/csvdir", "--out", "/tmp/outdir"});
  const ExperimentConfig config = config_for_run(command, "E2");
  EXPECT_EQ(config.csv_path, "/tmp/csvdir/e2.csv");
}

TEST(BenchCliTest, StreamingFlagsLayerLikeEveryOtherNumericFlag) {
  // The defaults are 0 ("driver picks its own grid/horizon"), so a pinned
  // value is always an explicit override.
  const BenchCommand bare = parse_bench_command({"run", "E16"});
  EXPECT_EQ(config_for_run(bare, "E16").rate, 0.0);
  EXPECT_EQ(config_for_run(bare, "E16").horizon, 0);

  const BenchCommand flagged = parse_bench_command(
      {"run", "E16", "--rate", "0.125", "--horizon", "2500"});
  EXPECT_DOUBLE_EQ(config_for_run(flagged, "E16").rate, 0.125);
  EXPECT_EQ(config_for_run(flagged, "E16").horizon, 2500);

  EXPECT_DOUBLE_EQ(
      parse_bench_command({"run", "E16", "--rate=0.01"}).config.rate, 0.01);
  EXPECT_EQ(
      parse_bench_command({"run", "E16", "--horizon=100"}).config.horizon,
      100);
}

TEST(BenchCliTest, RejectsMalformedStreamingValues) {
  for (const char* bad : {"banana", "0", "-0.5", "", "0.1x"}) {
    try {
      parse_bench_command({"run", "E16", std::string("--rate=") + bad});
      FAIL() << "--rate=" << bad << " should be rejected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("--rate"), std::string::npos);
    }
  }
  for (const char* bad : {"soon", "0", "-100", "", "1e3"}) {
    try {
      parse_bench_command({"run", "E16", std::string("--horizon=") + bad});
      FAIL() << "--horizon=" << bad << " should be rejected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("--horizon"), std::string::npos);
    }
  }
}

TEST(BenchCliTest, GraphBackendFlagLayersLikeEveryOtherFlag) {
  const BenchCommand bare = parse_bench_command({"run", "E2"});
  EXPECT_EQ(config_for_run(bare, "E2").graph_backend,
            GraphBackendChoice::kAuto);

  const BenchCommand flagged =
      parse_bench_command({"run", "E2", "--graph-backend", "implicit"});
  EXPECT_EQ(config_for_run(flagged, "E2").graph_backend,
            GraphBackendChoice::kImplicit);

  EXPECT_EQ(parse_bench_command({"run", "E2", "--graph-backend=csr"})
                .config.graph_backend,
            GraphBackendChoice::kCsr);
}

TEST(BenchCliTest, RejectsMalformedGraphBackendValues) {
  // Backend names parse strictly: junk, case variants and trailing
  // characters are diagnostics naming the flag, never a silent default.
  for (const char* bad : {"banana", "AUTO", "csr ", "implicit7", ""}) {
    try {
      parse_bench_command(
          {"run", "E2", std::string("--graph-backend=") + bad});
      FAIL() << "--graph-backend=" << bad << " should be rejected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("--graph-backend"),
                std::string::npos);
    }
  }
}

TEST(BenchCliTest, LowercaseIdHelper) {
  EXPECT_EQ(lowercase_id("E10"), "e10");
  EXPECT_EQ(lowercase_id("e3"), "e3");
}

TEST(BenchCliTest, UsageMentionsTheCommands) {
  const std::string usage = bench_usage();
  EXPECT_NE(usage.find("radio_bench list"), std::string::npos);
  EXPECT_NE(usage.find("--trials"), std::string::npos);
}

TEST(BenchCliTest, RetiredEnvironmentVariablesExitTwo) {
  // A script that still sets a RADIO_* knob must fail loudly, naming the
  // flag that replaced it (if any), instead of silently running the
  // defaults.
  const struct {
    const char* variable;
    const char* value;
    const char* flag;
  } retired[] = {
      {"RADIO_TRIALS", "64", "--trials"},
      {"RADIO_SEED", "7", "--seed"},
      {"RADIO_FULL", "", "--full"},
      {"RADIO_CSV_DIR", "results", "--csv"},
      {"RADIO_BATCH", "16", nullptr},
      {"RADIO_GRAPH_BACKEND", "csr", "--graph-backend"},
      {"RADIO_RATE", "0.05", "--rate"},
      {"RADIO_HORIZON", "500", "--horizon"},
  };
  for (const auto& r : retired) {
    ::setenv(r.variable, r.value, 1);
    ::testing::internal::CaptureStderr();
    const int code = run_cli({"list"});
    const std::string diagnostic = ::testing::internal::GetCapturedStderr();
    ::unsetenv(r.variable);
    EXPECT_EQ(code, 2) << r.variable;
    EXPECT_NE(diagnostic.find(r.variable), std::string::npos) << diagnostic;
    if (r.flag != nullptr)
      EXPECT_NE(diagnostic.find(r.flag), std::string::npos) << diagnostic;
    else
      EXPECT_EQ(diagnostic.find("--"), std::string::npos) << diagnostic;
  }
  EXPECT_EQ(run_cli({"list"}), 0);
}

TEST(BenchCliTest, UnwritableCsvExitsOne) {
  // A directory squatting on the CSV's path makes the write fail; that is
  // an output I/O failure (exit 1), whether the CSV goes to --csv or --out.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "radio_bench_csv_blocked";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir / "e15.csv");
  const std::string dir_arg = dir.string();
  for (const char* flag : {"--csv", "--out"}) {
    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    const int code = run_cli({"run", "E15", "--trials", "2", flag,
                              dir_arg.c_str()});
    const std::string out = ::testing::internal::GetCapturedStdout();
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(code, 1) << flag;
    EXPECT_NE(out.find("[failed to write csv to"), std::string::npos) << out;
    EXPECT_NE(err.find("e15.csv"), std::string::npos) << err;
  }
  std::filesystem::remove_all(dir);
}

TEST(BenchCliTest, WriteFailingAtFlushExitsOne) {
  // A full disk fails a write only when the buffered bytes are flushed, so
  // every artifact must be checked after it is flushed or closed. Each case
  // points one artifact at /dev/full, which accepts the open and fails the
  // first write that reaches it.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "radio_bench_disk_full";
  const std::string dir_arg = dir.string();
  const struct {
    const char* artifact;
    const char* flag;
  } cases[] = {
      {"e15.csv", "--csv"},
      {"e15.manifest.json", "--out"},
      {"metrics.jsonl", "--out"},
  };
  for (const auto& c : cases) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::filesystem::create_symlink("/dev/full", dir / c.artifact);
    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    const int code = run_cli({"run", "E15", "--quick", "--trials", "2", c.flag,
                              dir_arg.c_str()});
    const std::string out = ::testing::internal::GetCapturedStdout();
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(code, 1) << c.artifact;
    EXPECT_NE(err.find("radio_bench: cannot write " +
                       (dir / c.artifact).string()),
              std::string::npos)
        << err;
    EXPECT_EQ(out.find("[csv written to " + (dir / c.artifact).string()),
              std::string::npos)
        << out;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace radio
