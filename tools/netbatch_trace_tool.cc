// netbatch_trace_tool — inspect and transform trace CSV files.
//
//   netbatch_trace_tool stats      --in=trace.csv [--histograms]
//   netbatch_trace_tool window     --in=trace.csv --out=busy.csv
//                                  --begin-min=76000 --end-min=86080
//   netbatch_trace_tool thin       --in=trace.csv --out=half.csv --keep=0.5
//   netbatch_trace_tool scale-rt   --in=trace.csv --out=slow.csv --factor=2
//   netbatch_trace_tool filter     --in=trace.csv --out=low.csv --class=low
//   netbatch_trace_tool merge      --in=a.csv --in2=b.csv --out=ab.csv
//   netbatch_trace_tool import-swf --in=log.swf --out=trace.csv
//
// The window subcommand mirrors the paper's own methodology: its tables are
// computed on the jobs "with submission time between 76000 and 86080
// minutes" of the year-long trace (§3.1). import-swf converts a Parallel
// Workloads Archive log (workload/swf.h) into the native CSV format so real
// traces can be replayed or calibrated against.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "netbatch.h"
#include "subcommand.h"

using namespace netbatch;

namespace {

constexpr const char* kUsage =
    R"(netbatch_trace_tool <stats|window|thin|scale-rt|filter|merge|import-swf>

  stats      print summary statistics           --in [--histograms]
  window     keep a submission-time window      --in --out --begin-min --end-min
  thin       keep each job with probability p   --in --out --keep [--seed]
  scale-rt   multiply runtimes by a factor      --in --out --factor
  filter     keep one priority class            --in --out --class=low|high
  merge      concatenate two traces             --in --in2 --out [--rebase]
  import-swf convert an SWF (Parallel Workloads --in --out
             Archive) log to the native CSV     [--include-failed]
                                                [--include-cancelled]
                                                [--high-queues=<q1,q2,...>]

  stats --histograms adds log-scale runtime and interarrival histograms.
  import-swf --high-queues marks jobs from those SWF queue numbers as
  high priority (SWF itself has no priority field).
)";

void PrintStats(const workload::Trace& trace) {
  const workload::TraceStats stats = trace.Stats();
  TextTable table({"Metric", "Value"});
  table.AddRow({"jobs", std::to_string(stats.job_count)});
  table.AddRow({"high priority", std::to_string(stats.high_priority_count)});
  table.AddRow({"first submit (min)",
                TextTable::Fixed(TicksToMinutes(stats.first_submit), 1)});
  table.AddRow({"last submit (min)",
                TextTable::Fixed(TicksToMinutes(stats.last_submit), 1)});
  table.AddRow({"mean runtime (min)",
                TextTable::Fixed(stats.mean_runtime_minutes, 1)});
  table.AddRow({"mean cores", TextTable::Fixed(stats.mean_cores, 2)});
  table.AddRow({"total work (core-min)",
                std::to_string(stats.total_work_core_minutes)});
  std::printf("%s", table.Render().c_str());
}

// An ASCII log-scale histogram: one row per occupied bucket, bar lengths
// proportional to the bucket count.
void PrintLogHistogram(const char* title, const std::vector<double>& values,
                       double lo, double hi) {
  if (values.empty()) {
    std::printf("\n%s: no samples\n", title);
    return;
  }
  LogHistogram hist(lo, hi, 4);
  for (double v : values) hist.Add(v);
  std::printf("\n%s (%lld samples, ~p50=%.2f ~p90=%.2f ~p99=%.2f)\n", title,
              static_cast<long long>(hist.total_count()),
              hist.ApproxQuantile(0.50), hist.ApproxQuantile(0.90),
              hist.ApproxQuantile(0.99));
  std::int64_t max_count = 0;
  std::size_t first = hist.bucket_count();
  std::size_t last = 0;
  for (std::size_t i = 0; i < hist.bucket_count(); ++i) {
    if (hist.bucket(i) == 0) continue;
    max_count = std::max(max_count, hist.bucket(i));
    first = std::min(first, i);
    last = i;
  }
  for (std::size_t i = first; i <= last; ++i) {
    const int width = static_cast<int>(std::lround(
        40.0 * static_cast<double>(hist.bucket(i)) /
        static_cast<double>(max_count)));
    std::string bar(static_cast<std::size_t>(width), '#');
    std::printf("  >= %10.2f %10lld  %s\n", hist.bucket_lower(i),
                static_cast<long long>(hist.bucket(i)), bar.c_str());
  }
}

void PrintHistograms(const workload::Trace& trace) {
  std::vector<double> runtimes;
  std::vector<double> interarrivals;
  runtimes.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    runtimes.push_back(TicksToMinutes(trace[i].runtime));
    if (i > 0) {
      interarrivals.push_back(
          TicksToMinutes(trace[i].submit_time - trace[i - 1].submit_time));
    }
  }
  PrintLogHistogram("runtime minutes", runtimes, 1.0, 200000.0);
  PrintLogHistogram("interarrival minutes", interarrivals, 0.01, 10000.0);
}

std::vector<std::int64_t> SplitInts(const std::string& text) {
  std::vector<std::int64_t> values;
  std::string item;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == ',') {
      if (!item.empty()) values.push_back(std::stoll(item));
      item.clear();
    } else {
      item += text[i];
    }
  }
  return values;
}

int RunImportSwf(const Flags& flags) {
  const std::string in = flags.GetString("in", "");
  NETBATCH_CHECK(!in.empty(), "--in is required");
  const std::string out = flags.GetString("out", "");
  NETBATCH_CHECK(!out.empty(), "import-swf requires --out");
  workload::SwfImportOptions options;
  options.include_failed = flags.GetBool("include-failed", false);
  options.include_cancelled = flags.GetBool("include-cancelled", false);
  options.high_priority_queues = SplitInts(flags.GetString("high-queues", ""));
  const auto unused = flags.UnusedFlags();
  NETBATCH_CHECK(unused.empty(),
                 "unknown flag --" + (unused.empty() ? "" : unused.front()) +
                     " (see --help)");

  const workload::SwfImportResult result = workload::ReadSwfTraceFile(in, options);
  workload::WriteTraceFile(result.trace, out);
  std::printf(
      "import-swf: %zu records -> %zu jobs -> %s\n"
      "  skipped: %zu by status filter, %zu invalid\n"
      "  mapped:  %zu pools, %zu owners\n",
      result.total_records, result.trace.size(), out.c_str(),
      result.skipped_status, result.skipped_invalid, result.pool_count,
      result.owner_count);
  return 0;
}

int RunStats(const Flags& flags) {
  const std::string in = flags.GetString("in", "");
  NETBATCH_CHECK(!in.empty(), "--in is required");
  const workload::Trace trace = workload::ReadTraceFile(in);
  PrintStats(trace);
  if (flags.GetBool("histograms", false)) PrintHistograms(trace);
  return 0;
}

// Shared scaffolding for the trace -> trace subcommands: load --in, apply
// the named transform, write --out.
int RunTransform(const Flags& flags, const std::string& command) {
  const std::string in = flags.GetString("in", "");
  NETBATCH_CHECK(!in.empty(), "--in is required");
  const workload::Trace trace = workload::ReadTraceFile(in);

  const std::string out = flags.GetString("out", "");
  NETBATCH_CHECK(!out.empty(), "--out is required for transforms");

  workload::Trace result;
  if (command == "window") {
    const Ticks begin = MinutesToTicks(flags.GetInt("begin-min", 0));
    const Ticks end = MinutesToTicks(
        flags.GetInt("end-min", TicksToMinutes(kTicksPerWeek)));
    result = trace.Window(begin, end);
  } else if (command == "thin") {
    result = workload::ThinArrivals(
        trace, flags.GetDouble("keep", 0.5),
        static_cast<std::uint64_t>(flags.GetInt("seed", 1)));
  } else if (command == "scale-rt") {
    result = workload::ScaleRuntimes(trace, flags.GetDouble("factor", 1.0));
  } else if (command == "filter") {
    const std::string klass = flags.GetString("class", "low");
    NETBATCH_CHECK(klass == "low" || klass == "high",
                   "--class must be low or high");
    result = workload::FilterByPriority(
        trace, klass == "low" ? workload::kLowPriority
                              : workload::kHighPriority);
  } else {
    NETBATCH_CHECK(command == "merge", "unknown transform: " + command);
    const std::string in2 = flags.GetString("in2", "");
    NETBATCH_CHECK(!in2.empty(), "merge requires --in2");
    result = workload::Merge(trace, workload::ReadTraceFile(in2),
                             flags.GetBool("rebase", false));
  }

  workload::WriteTraceFile(result, out);
  std::printf("%s: %zu jobs -> %zu jobs -> %s\n", command.c_str(),
              trace.size(), result.size(), out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  return tools::DispatchSubcommand(
      flags,
      {
          {"stats", RunStats},
          {"window",
           [](const Flags& f) { return RunTransform(f, "window"); }},
          {"thin", [](const Flags& f) { return RunTransform(f, "thin"); }},
          {"scale-rt",
           [](const Flags& f) { return RunTransform(f, "scale-rt"); }},
          {"filter", [](const Flags& f) { return RunTransform(f, "filter"); }},
          {"merge", [](const Flags& f) { return RunTransform(f, "merge"); }},
          {"import-swf", RunImportSwf},
      },
      kUsage);
}
