// End-to-end tests of netbatch_cli's single-run mode: the binary is run as
// a subprocess and its printed report compared across equivalent command
// lines.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace {

// Runs netbatch_cli with `args`; returns its stdout and expects exit 0.
std::string RunCli(const std::string& args) {
  const std::string command = std::string(NB_CLI_PATH) + " " + args;
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) return "";
  std::string out;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    out.append(buffer, n);
  }
  EXPECT_EQ(pclose(pipe), 0) << command;
  return out;
}

std::string WriteIni(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream(path) << text;
  return path;
}

// A flag given next to --config overrides its own field only: the INI's
// scenario and scale survive a --seed, and the run keeps the INI's
// scenario name, which roots the policy's random substream.
TEST(CliConfigTest, EachFlagOverridesOnlyItsOwnField) {
  const std::string config = "--config=" + WriteIni("cli_high.ini", R"(
[experiment]
scenario = high
scale = 0.05
seed = 42
policy = ResSusRand
)");
  const std::string from_file = RunCli(config);
  ASSERT_NE(from_file.find("jobs="), std::string::npos) << from_file;
  EXPECT_EQ(RunCli(config + " --seed=42"), from_file);
  EXPECT_EQ(RunCli(config + " --scale=0.05"), from_file);
  EXPECT_EQ(RunCli("--scenario=high --scale=0.05 --seed=42 "
                   "--policy=ResSusRand"),
            from_file);
  EXPECT_EQ(RunCli(config + " --seed=43"),
            RunCli("--scenario=high --scale=0.05 --seed=43 "
                   "--policy=ResSusRand"));
}

}  // namespace
