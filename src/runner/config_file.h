// Experiment configuration files.
//
// A small INI-style format so experiment definitions can live in version
// control next to their results instead of in shell history:
//
//   # table2.ini
//   [experiment]
//   scenario   = high        ; normal | high | highsusp | year
//   scale      = 0.25
//   seed       = 42
//   scheduler  = rr          ; rr | util
//   staleness_min = 0
//   policy     = ResSusUtil  ; five paper names or DupSusUtil
//   threshold_min = 30
//   overhead_min  = 0
//   checkpoint_min = 0
//
//   [outages]
//   mtbf_min = 0
//   mttr_min = 240
//
// Unknown sections or keys abort (a typo must not silently fall back to a
// default mid-sweep). Lines starting with '#' or ';' are comments; inline
// comments after values are allowed with " ;".
#pragma once

#include <iosfwd>
#include <string>

#include "runner/sweep.h"

namespace netbatch::runner {

// The run an experiment file describes. `spec` carries the scenario name
// and seed read from the file (defaults: normal, 42) and the scenario
// resolved from them at `scale`, so a caller overriding only one of name,
// scale or seed can re-resolve with the other two. The policy stays a name
// (possibly an extension like DupSusUtil) for the caller to build.
struct LoadedExperiment {
  LoadedExperiment() { spec.scenario_name = "normal"; }

  ExperimentSpec spec;
  double scale = 0.25;
  std::string policy_name = "NoRes";
};

// A relative workload-preset path in `scenario =` resolves against
// `base_dir` — for a file, the directory the file is in — so an experiment
// INI and the preset beside it load from any working directory.
LoadedExperiment LoadExperiment(std::istream& in,
                                const std::string& base_dir = "");
LoadedExperiment LoadExperimentFile(const std::string& path);

// ---- workload presets ------------------------------------------------------
//
// A *workload preset* is a GeneratorConfig serialized as INI — the output of
// `netbatch_cli calibrate --emit-preset` (calib/fit.h) and a first-class
// scenario source: anywhere a scenario name is accepted (`--scenario=`,
// `scenario =` in an experiment INI), a preset file path loads the fitted
// workload and sizes a matching cluster via ScenarioFromWorkload. Layout:
//
//   [workload]            ; rates, pools, cores/memory demands, task size
//   [runtime.low]         ; lognormal body + bounded-Pareto tail, bounds
//   [runtime.high]
//   [burst]               ; repeatable — one section per high-prio stream
//   [sites]               ; repeatable `site =` pool lists
//
// Round-trips exactly: Load(Write(config)) == config, field for field
// (doubles are written with max_digits10 precision). Unknown sections or
// keys abort, as with experiment files.

void WriteWorkloadPreset(std::ostream& out,
                         const workload::GeneratorConfig& config);
void WriteWorkloadPresetFile(const std::string& path,
                             const workload::GeneratorConfig& config);

workload::GeneratorConfig LoadWorkloadPreset(std::istream& in);
workload::GeneratorConfig LoadWorkloadPresetFile(const std::string& path);

// Scenario resolution (builtin name or preset file path) lives in
// runner/parse.h with the other name -> configuration helpers.

}  // namespace netbatch::runner
