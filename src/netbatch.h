// NetBatchSim: umbrella header.
//
// Pulls in the full public API: the cluster substrate, schedulers,
// rescheduling policies, workload generation, metrics, the experiment
// runner, and the serving layer (SchedulerCore, wire protocol, netbatchd).
// Include individual headers instead when compile time matters.
#pragma once

#include "analysis/pool_imbalance.h"   // IWYU pragma: export
#include "analysis/queueing.h"         // IWYU pragma: export
#include "analysis/suspension.h"       // IWYU pragma: export
#include "analysis/timeseries.h"       // IWYU pragma: export
#include "calib/fit.h"                 // IWYU pragma: export
#include "calib/goodness.h"            // IWYU pragma: export
#include "cluster/config.h"            // IWYU pragma: export
#include "cluster/simulation.h"        // IWYU pragma: export
#include "common/counters.h"           // IWYU pragma: export
#include "common/histogram.h"          // IWYU pragma: export
#include "common/table.h"              // IWYU pragma: export
#include "core/load_predictor.h"       // IWYU pragma: export
#include "core/policies.h"             // IWYU pragma: export
#include "core/pool_selector.h"        // IWYU pragma: export
#include "metrics/chrome_trace.h"      // IWYU pragma: export
#include "metrics/collector.h"         // IWYU pragma: export
#include "metrics/event_log.h"         // IWYU pragma: export
#include "metrics/report.h"            // IWYU pragma: export
#include "metrics/report_json.h"       // IWYU pragma: export
#include "runner/config_file.h"        // IWYU pragma: export
#include "runner/parse.h"              // IWYU pragma: export
#include "runner/scenarios.h"          // IWYU pragma: export
#include "runner/sweep.h"              // IWYU pragma: export
#include "sched/round_robin.h"         // IWYU pragma: export
#include "sched/utilization.h"         // IWYU pragma: export
#include "service/daemon.h"            // IWYU pragma: export
#include "service/protocol.h"          // IWYU pragma: export
#include "service/scheduler_core.h"    // IWYU pragma: export
#include "workload/generator.h"        // IWYU pragma: export
#include "workload/swf.h"              // IWYU pragma: export
#include "workload/trace_io.h"         // IWYU pragma: export
#include "workload/transform.h"        // IWYU pragma: export
