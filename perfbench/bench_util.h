// Shared plumbing for the benchmark's probes: a steady clock, span
// accounting for the traced runs, a flat JSON writer, and the generators
// that turn a workload seed into the request streams.
//
// Spans follow the benchmark's tracing rule: each span's duration is
// charged to its layer, minus the part its nested spans cover (self time).
// The probes open spans only around calls into a layer's public functions;
// nothing inside src/ is instrumented. Self times have the tracer's own
// calibrated cost taken out. A probe's own driving loop runs in a harness
// span: its self time is the part of the traced work that no named layer
// explains, so trace coverage is named self time over named plus harness
// self time.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/check.h"
#include "netbatch.h"

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

class Spans {
 public:
  // An enabled Spans calibrates its own cost on construction; call
  // Calibrate() again after the traced work, before reading self times,
  // so the estimate spans the whole run.
  explicit Spans(bool enabled, bool calibrate = true) : enabled_(enabled) {
    if (enabled_ && calibrate) Calibrate();
  }

  // Index of the layer named `name`, registering it on first use.
  int Layer(const std::string& name) {
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      if (layers_[i].name == name) return static_cast<int>(i);
    }
    layers_.push_back({name, 0, 0, 0});
    return static_cast<int>(layers_.size() - 1);
  }

  void Enter(int layer) {
    if (!enabled_) return;
    stack_.push_back({layer, NowNs(), 0, 0});
  }

  void Exit() {
    if (!enabled_) return;
    const std::int64_t end = NowNs();
    const Frame frame = stack_.back();
    stack_.pop_back();
    const std::int64_t total = end - frame.start_ns;
    LayerTotals& totals = layers_[frame.layer];
    totals.raw_self_ns += total - frame.child_ns;
    totals.children += frame.children;
    ++totals.calls;
    if (!stack_.empty()) {
      stack_.back().child_ns += total;
      ++stack_.back().children;
    }
  }

  // Times empty spans nested in one parent, five rounds per call. The
  // tracer's cost estimate is the median over every round so far of what
  // one span costs its parent and itself in clock reads and bookkeeping.
  void Calibrate() {
    constexpr int kRounds = 5, kSpans = 200000;
    for (int round = 0; round < kRounds; ++round) {
      Spans bare(true, false);
      const int parent = bare.Layer("parent"), child = bare.Layer("child");
      bare.Enter(parent);
      for (int i = 0; i < kSpans; ++i) {
        bare.Enter(child);
        bare.Exit();
      }
      bare.Exit();
      parent_costs_.push_back(bare.layers_[parent].raw_self_ns / kSpans);
      self_costs_.push_back(bare.layers_[child].raw_self_ns / kSpans);
    }
  }

  std::uint64_t calls(int layer) const { return layers_[layer].calls; }
  // Self time with the tracer's estimated cost taken out. The estimate is
  // approximate, so a layer that does almost nothing of its own can read
  // slightly below zero.
  double self_s(int layer) const {
    const LayerTotals& l = layers_[layer];
    const std::int64_t ns =
        l.raw_self_ns -
        static_cast<std::int64_t>(l.children) * Median(parent_costs_) -
        static_cast<std::int64_t>(l.calls) * Median(self_costs_);
    return static_cast<double>(ns) / 1e9;
  }
  // Self time of every layer except the `skip` ones.
  double self_s_except(std::initializer_list<int> skip) const {
    double s = 0;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      if (std::find(skip.begin(), skip.end(), static_cast<int>(i)) == skip.end()) {
        s += self_s(static_cast<int>(i));
      }
    }
    return s;
  }

 private:
  struct Frame {
    int layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::uint32_t children;
  };
  struct LayerTotals {
    std::string name;
    std::int64_t raw_self_ns;
    std::uint64_t children;
    std::uint64_t calls;
  };

  static std::int64_t Median(std::vector<std::int64_t> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  }

  bool enabled_;
  std::vector<std::int64_t> parent_costs_, self_costs_;
  std::vector<Frame> stack_;
  std::vector<LayerTotals> layers_;
};

class Span {
 public:
  Span(Spans& spans, int layer) : spans_(spans) { spans_.Enter(layer); }
  ~Span() { spans_.Exit(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans& spans_;
};

// One flat JSON object; values print with every digit.
class Json {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    fields_.emplace_back(key, buf);
  }
  void Int(const std::string& key, std::int64_t value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void Str(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, "\"" + value + "\"");
  }
  void Nums(const std::string& key, const std::vector<double>& values) {
    std::string out = "[";
    char buf[64];
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", values[i]);
      out += buf;
    }
    fields_.emplace_back(key, out + "]");
  }
  void Print() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out += (i ? ", \"" : "\"") + fields_[i].first + "\": " +
             fields_[i].second;
    }
    std::printf("%s}\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// --- request streams --------------------------------------------------------

// serve-storm cycles its rounds over this many runs of the year.
constexpr std::size_t kStormSlices = 4;

// serve-storm: `n` consecutive jobs of the YearLong trace in submit order,
// the `slice`-th run of `n` from its start. The prefix of the year that
// holds kStormSlices runs is generated (the year is cut to the days
// needed), so every slice costs the same to set up.
inline std::vector<netbatch::workload::JobSpec> StormJobs(double scale,
                                                          std::uint64_t seed,
                                                          std::size_t n,
                                                          std::size_t slice) {
  using namespace netbatch;
  runner::Scenario scenario = runner::YearLongScenario(scale, seed);
  workload::GeneratorConfig config = scenario.workload;
  config.seed = seed;
  const std::size_t first = slice * n;
  const std::size_t want = std::max(first + n, kStormSlices * n);
  Ticks days = 30;
  while (true) {
    config.duration = std::min<Ticks>(days * kTicksPerDay,
                                      scenario.workload.duration);
    const workload::Trace trace = workload::GenerateTrace(config);
    if (trace.size() >= want ||
        config.duration == scenario.workload.duration) {
      NETBATCH_CHECK(trace.size() >= first + n, "the year holds too few jobs");
      return std::vector<workload::JobSpec>(trace.jobs().begin() + first,
                                            trace.jobs().begin() + first + n);
    }
    days *= 2;
  }
}

// serve-durable: the `normal` week (the paper's ~40%-utilization setting),
// cut to the jobs submitted in the first `trace_ticks` of the week.
inline std::vector<netbatch::workload::JobSpec> DurableJobs(
    double scale, std::uint64_t seed, netbatch::Ticks trace_ticks) {
  using namespace netbatch;
  workload::GeneratorConfig config =
      runner::NormalLoadScenario(scale, seed).workload;
  config.seed = seed;
  const workload::Trace trace = workload::GenerateTrace(config);
  std::vector<workload::JobSpec> jobs;
  for (const workload::JobSpec& spec : trace.jobs()) {
    if (spec.submit_time >= trace_ticks) break;
    jobs.push_back(spec);
  }
  return jobs;
}

}  // namespace perfbench
