#include "runner/parse.h"

#include <fstream>
#include <utility>

#include "common/check.h"
#include "runner/config_file.h"

namespace netbatch::runner {

const char* ToString(InitialSchedulerKind kind) {
  switch (kind) {
    case InitialSchedulerKind::kRoundRobin:
      return "round-robin";
    case InitialSchedulerKind::kUtilization:
      return "utilization-based";
  }
  return "?";
}

const char* ToShortString(InitialSchedulerKind kind) {
  switch (kind) {
    case InitialSchedulerKind::kRoundRobin:
      return "rr";
    case InitialSchedulerKind::kUtilization:
      return "util";
  }
  return "?";
}

std::optional<InitialSchedulerKind> ParseInitialSchedulerKind(
    std::string_view name) {
  for (const InitialSchedulerKind kind :
       {InitialSchedulerKind::kRoundRobin,
        InitialSchedulerKind::kUtilization}) {
    if (name == ToString(kind) || name == ToShortString(kind)) return kind;
  }
  return std::nullopt;
}

namespace {

struct BuiltinScenario {
  std::string_view name;
  Scenario (*make)(double scale, std::uint64_t seed);
};

constexpr BuiltinScenario kBuiltinScenarios[] = {
    {"normal", NormalLoadScenario},    {"high", HighLoadScenario},
    {"highsusp", HighSuspensionScenario}, {"year", YearLongScenario},
    {"bigpool", LargePoolScenario},
};

}  // namespace

bool IsBuiltinScenario(std::string_view name) {
  for (const BuiltinScenario& builtin : kBuiltinScenarios) {
    if (name == builtin.name) return true;
  }
  return false;
}

Scenario ResolveScenario(const std::string& name, double scale,
                         std::uint64_t seed) {
  for (const BuiltinScenario& builtin : kBuiltinScenarios) {
    if (name == builtin.name) return builtin.make(scale, seed);
  }
  std::ifstream probe(name);
  NETBATCH_CHECK(static_cast<bool>(probe),
                 "unknown scenario '" + name +
                     "' (expected normal | high | highsusp | year | bigpool, "
                     "or a workload preset file path)");
  workload::GeneratorConfig workload = LoadWorkloadPreset(probe);
  workload.seed = seed;
  return ScenarioFromWorkload(std::move(workload), scale);
}

}  // namespace netbatch::runner
