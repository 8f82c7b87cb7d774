// ExperimentResult presentation: stdout rendering and CSV mirroring.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "analysis/experiment_config.hpp"

namespace radio {
namespace {

ExperimentResult sample_result() {
  ExperimentResult result;
  result.id = "EX";
  result.title = "sample";
  result.table = Table({"k", "v"});
  result.table.row().cell("a").cell(1);
  result.note("note one");
  return result;
}

TEST(Presentation, WritesCsvWhenConfigured) {
  const std::string path = ::testing::TempDir() + "/radio_present_test.csv";
  std::remove(path.c_str());
  ExperimentConfig config;
  config.csv_path = path;
  EXPECT_TRUE(sample_result().present(config));
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream buffer;
  buffer << file.rdbuf();
  EXPECT_EQ(buffer.str(), "k,v\na,1\n");
}

TEST(Presentation, NoCsvWhenUnconfigured) {
  const std::string path = ::testing::TempDir() + "/radio_present_none.csv";
  std::remove(path.c_str());
  ExperimentConfig config;  // csv_path empty
  EXPECT_TRUE(sample_result().present(config));
  std::ifstream file(path);
  EXPECT_FALSE(file.good());
}

TEST(Presentation, SurvivesBadCsvPath) {
  ExperimentConfig config;
  config.csv_path = "/nonexistent_zzz_dir/out.csv";
  // Must not crash or throw; it reports the failure on stdout and to the
  // caller, which turns it into exit code 1.
  bool written = true;
  EXPECT_NO_FATAL_FAILURE(written = sample_result().present(config));
  EXPECT_FALSE(written);
}

}  // namespace
}  // namespace radio
