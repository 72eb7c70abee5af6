// Tests for the INI-style experiment config loader.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "runner/config_file.h"
#include "runner/scenarios.h"

namespace netbatch::runner {
namespace {

LoadedExperiment Load(const std::string& text) {
  std::istringstream in(text);
  return LoadExperiment(in);
}

TEST(ConfigFileTest, DefaultsWhenEmpty) {
  const LoadedExperiment loaded = Load("");
  EXPECT_EQ(loaded.policy_name, "NoRes");
  EXPECT_EQ(loaded.spec.scheduler, InitialSchedulerKind::kRoundRobin);
  EXPECT_EQ(loaded.spec.scenario_name, "normal");
  EXPECT_DOUBLE_EQ(loaded.scale, 0.25);
  EXPECT_EQ(loaded.spec.seed, 42u);
  EXPECT_EQ(loaded.spec.scenario.cluster.pools.size(), 20u);
}

TEST(ConfigFileTest, ParsesFullExperimentSection) {
  const LoadedExperiment loaded = Load(R"(
# a comment
[experiment]
scenario   = high        ; inline comment
scale      = 0.5
seed       = 7
scheduler  = util
staleness_min = 15
policy     = ResSusWaitRand
threshold_min = 45
overhead_min  = 5
checkpoint_min = 30
shards        = 4
)");
  EXPECT_EQ(loaded.policy_name, "ResSusWaitRand");
  EXPECT_EQ(loaded.spec.scenario_name, "high");
  EXPECT_DOUBLE_EQ(loaded.scale, 0.5);
  // The replication seed is the workload seed, so the generated trace is
  // the one the scenario preset describes.
  EXPECT_EQ(loaded.spec.seed, 7u);
  EXPECT_EQ(loaded.spec.scenario.workload.seed, 7u);
  EXPECT_EQ(loaded.spec.scheduler, InitialSchedulerKind::kUtilization);
  EXPECT_EQ(loaded.spec.scheduler_staleness, MinutesToTicks(15));
  EXPECT_EQ(loaded.spec.policy_options.wait_threshold, MinutesToTicks(45));
  EXPECT_EQ(loaded.spec.sim_options.restart_overhead, MinutesToTicks(5));
  EXPECT_EQ(loaded.spec.sim_options.checkpoint_interval,
            MinutesToTicks(30));
  EXPECT_EQ(loaded.spec.sim_options.shards, 4);
  // scenario=high halves capacity relative to normal at the same scale.
  const auto normal_cores = NormalLoadScenario(0.5).cluster.TotalCores();
  EXPECT_LT(loaded.spec.scenario.cluster.TotalCores(), normal_cores);
}

TEST(ConfigFileTest, ParsesOutagesSection) {
  const LoadedExperiment loaded = Load(R"(
[experiment]
scenario = normal
[outages]
mtbf_min = 10080
mttr_min = 120
)");
  EXPECT_DOUBLE_EQ(loaded.spec.sim_options.outages.mtbf_minutes, 10080.0);
  EXPECT_DOUBLE_EQ(loaded.spec.sim_options.outages.mttr_minutes, 120.0);
}

TEST(ConfigFileTest, UnknownKeyAborts) {
  EXPECT_DEATH(Load("[experiment]\ntypo_key = 1\n"), "unknown key");
}

TEST(ConfigFileTest, UnknownSectionAborts) {
  EXPECT_DEATH(Load("[nonsense]\nx = 1\n"), "unknown config section");
}

TEST(ConfigFileTest, KeyOutsideSectionAborts) {
  EXPECT_DEATH(Load("x = 1\n"), "outside any");
}

TEST(ConfigFileTest, MalformedValueAborts) {
  EXPECT_DEATH(Load("[experiment]\nscale = fast\n"), "not a number");
  EXPECT_DEATH(Load("[experiment]\nseed = 1.5\n"), "not an integer");
}

TEST(ConfigFileTest, UnknownScenarioAborts) {
  EXPECT_DEATH(Load("[experiment]\nscenario = mega\n"), "unknown scenario");
}

// `scenario = fitted.ini` in sub/exp.ini names the preset beside the INI,
// whatever directory the INI is loaded from.
TEST(ConfigFileTest, RelativePresetPathResolvesAgainstTheIniDirectory) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(testing::TempDir()) /
                        ("nb_cfg_rel_" + std::to_string(::getpid()));
  const fs::path sub = root / "sub";
  fs::create_directories(sub);
  const workload::GeneratorConfig preset = NormalLoadScenario(0.05).workload;
  WriteWorkloadPresetFile((sub / "fitted.ini").string(), preset);
  {
    std::ofstream ini(sub / "exp.ini");
    ini << "[experiment]\nscenario = fitted.ini\nscale = 0.05\nseed = 9\n";
  }
  // The working directory is not `sub`: only the INI's directory has it.
  ASSERT_FALSE(fs::exists("fitted.ini"));

  const LoadedExperiment loaded =
      LoadExperimentFile((sub / "exp.ini").string());
  EXPECT_EQ(loaded.spec.scenario_name, (sub / "fitted.ini").string());
  EXPECT_EQ(loaded.spec.scenario.workload.seed, 9u);
  EXPECT_EQ(loaded.spec.scenario.workload.num_pools, preset.num_pools);
  EXPECT_EQ(loaded.spec.scenario.cluster.pools.size(), preset.num_pools);
  fs::remove_all(root);
}

}  // namespace
}  // namespace netbatch::runner
