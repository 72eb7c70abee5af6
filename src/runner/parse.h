// Name -> configuration parsing for the experiment surface.
//
// Everything a CLI flag or config-file value names lives here: initial
// scheduler kinds, rescheduling policy kinds (re-exported from
// core/policies.h), and scenario resolution (builtin name or preset file
// path). Tools and config loaders share these so a name means the same
// thing everywhere it can be spelled.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/policies.h"
#include "runner/scenarios.h"

namespace netbatch::runner {

enum class InitialSchedulerKind { kRoundRobin, kUtilization };

const char* ToString(InitialSchedulerKind kind);       // "round-robin" ...
const char* ToShortString(InitialSchedulerKind kind);  // "rr" / "util"

// Accepts both the ToString and ToShortString forms;
// ParseInitialSchedulerKind(ToString(k)) == k for every kind.
std::optional<InitialSchedulerKind> ParseInitialSchedulerKind(
    std::string_view name);

// Rescheduling policies parse in core/policies.h; re-exported so callers
// resolving "what did the user name?" need only this header.
using core::ParsePolicyKind;

// True for the paper scenarios' names: normal | high | highsusp | year |
// bigpool. Any other scenario name is a workload preset file path.
bool IsBuiltinScenario(std::string_view name);

// Maps a scenario name to its definition. Builtin names (normal | high |
// highsusp | year | bigpool) resolve to the paper scenarios; any other
// value must be the path of a workload preset file (calibration output),
// which is loaded with `seed` overriding the preset's. Aborts on an
// unknown name that is not a readable file.
Scenario ResolveScenario(const std::string& name, double scale,
                         std::uint64_t seed);

}  // namespace netbatch::runner
