#include "common/counters.h"

#include <algorithm>

namespace netbatch {

GaugeMergePolicy GaugeMergePolicyFor(std::string_view name) {
  // Watermark gauges: each shard reports its own maximum (or a duration that
  // is not additive across shards), so the cluster-wide value is the max of
  // the per-shard values — summing them fabricates a number no shard ever saw.
  if (name == "daemon.recovery_ms") return GaugeMergePolicy::kMax;
  if (name == "daemon.latency_map_entries") return GaugeMergePolicy::kMax;
  return GaugeMergePolicy::kSum;
}

std::string RenderCounterSnapshot(const CounterSnapshot& snap) {
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    out += name + "=" + std::to_string(value) + "\n";
  }
  for (const auto& [name, value, max] : snap.gauges) {
    out += name + "=" + std::to_string(value) +
           " (max=" + std::to_string(max) + ")\n";
  }
  return out;
}

void MergeCounterSnapshots(CounterSnapshot& into, const CounterSnapshot& from) {
  for (const auto& [name, value] : from.counters) {
    auto it = std::find_if(
        into.counters.begin(), into.counters.end(),
        [&](const auto& entry) { return entry.first == name; });
    if (it == into.counters.end()) {
      into.counters.emplace_back(name, value);
    } else {
      it->second += value;
    }
  }
  for (const auto& [name, value, max] : from.gauges) {
    auto it = std::find_if(into.gauges.begin(), into.gauges.end(),
                           [&](const auto& entry) {
                             return std::get<0>(entry) == name;
                           });
    if (it == into.gauges.end()) {
      into.gauges.emplace_back(name, value, max);
      continue;
    }
    if (GaugeMergePolicyFor(name) == GaugeMergePolicy::kMax) {
      std::get<1>(*it) = std::max(std::get<1>(*it), value);
    } else {
      std::get<1>(*it) += value;
    }
    std::get<2>(*it) = std::max(std::get<2>(*it), max);
  }
}

Counter& CounterRegistry::GetCounter(std::string_view name) {
  auto it = counter_index_.find(std::string(name));
  if (it != counter_index_.end()) return counters_[it->second];
  counter_index_.emplace(std::string(name), counters_.size());
  counter_names_.emplace_back(name);
  return counters_.emplace_back();
}

Gauge& CounterRegistry::GetGauge(std::string_view name) {
  auto it = gauge_index_.find(std::string(name));
  if (it != gauge_index_.end()) return gauges_[it->second];
  gauge_index_.emplace(std::string(name), gauges_.size());
  gauge_names_.emplace_back(name);
  return gauges_.emplace_back();
}

const Counter* CounterRegistry::FindCounter(std::string_view name) const {
  auto it = counter_index_.find(std::string(name));
  return it == counter_index_.end() ? nullptr : &counters_[it->second];
}

const Gauge* CounterRegistry::FindGauge(std::string_view name) const {
  auto it = gauge_index_.find(std::string(name));
  return it == gauge_index_.end() ? nullptr : &gauges_[it->second];
}

CounterSnapshot CounterRegistry::TakeSnapshot() const {
  CounterSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    snap.counters.emplace_back(counter_names_[i], counters_[i].value());
  }
  snap.gauges.reserve(gauges_.size());
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    snap.gauges.emplace_back(gauge_names_[i], gauges_[i].value(),
                             gauges_[i].max());
  }
  return snap;
}

std::string CounterRegistry::Render() const {
  return RenderCounterSnapshot(TakeSnapshot());
}

}  // namespace netbatch
