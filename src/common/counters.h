// Cheap named counters and gauges for simulator observability.
//
// A CounterRegistry is a per-simulation (NOT global — sweeps run many
// simulations concurrently) set of monotonically increasing counters and
// last-value gauges. Hot paths resolve a Counter*/Gauge* once and then pay
// one integer add per event; the registry keeps registration order so
// snapshots and rendered output are stable across runs.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

namespace netbatch {

// A monotonically increasing event count.
class Counter {
 public:
  void Increment(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

// A last-observed value (queue depth, busy cores); also tracks its maximum.
class Gauge {
 public:
  void Set(std::int64_t value) {
    value_ = value;
    if (value > max_) max_ = value;
  }
  std::int64_t value() const { return value_; }
  std::int64_t max() const { return max_; }

 private:
  std::int64_t value_ = 0;
  std::int64_t max_ = 0;
};

// Point-in-time copy of a registry, in registration order. Carried in
// ExperimentResult so sweep consumers can read counters after the
// simulation object is gone.
struct CounterSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  // (name, last value, max value)
  std::vector<std::tuple<std::string, std::int64_t, std::int64_t>> gauges;
};

// How a gauge's *value* combines when snapshots from several shards (or
// simulation domains) are folded into one cluster-wide view. Counters always
// add; a gauge's `max` field always merges by max-of-maxes — the policy only
// decides the merged `value`.
enum class GaugeMergePolicy {
  kSum,  // additive quantities: busy cores, queue depths, pending events
  kMax,  // watermarks / per-shard maxima: recovery time, map high-water marks
};

// Per-gauge merge policy by name. Additive by default; watermark-style
// gauges — whose per-shard values are already maxima or durations that do
// not add across shards — merge by max.
GaugeMergePolicy GaugeMergePolicyFor(std::string_view name);

// Folds `from` into `into`: counters add, gauge values merge per
// GaugeMergePolicyFor, gauge maxes merge by max. Names absent from `into`
// are appended, preserving first-seen order.
void MergeCounterSnapshots(CounterSnapshot& into, const CounterSnapshot& from);

// One "name=value" line per counter, then one "name=value (max=M)" line per
// gauge, in snapshot order. netbatchd's kStats text and its parsers rely on
// this layout.
std::string RenderCounterSnapshot(const CounterSnapshot& snap);

class CounterRegistry {
 public:
  // Returns the counter/gauge with `name`, creating it on first use.
  // References stay valid for the registry's lifetime.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);

  // Read-only lookup; nullptr when the name was never registered.
  const Counter* FindCounter(std::string_view name) const;
  const Gauge* FindGauge(std::string_view name) const;

  CounterSnapshot TakeSnapshot() const;

  // RenderCounterSnapshot(TakeSnapshot()).
  std::string Render() const;

 private:
  // Deques keep references stable across registration.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::unordered_map<std::string, std::size_t> counter_index_;
  std::unordered_map<std::string, std::size_t> gauge_index_;
};

}  // namespace netbatch
