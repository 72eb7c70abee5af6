// Determinism and correctness tests for the sharded intra-run engine
// (cluster/sharded_simulation.h): the shard count must never change a
// single observable — per-domain event-stream digests, final job states,
// merged counters, samples — and the conservative sync window must stay
// sound at its 1-tick minimum.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/sharded_simulation.h"
#include "cluster/simulation.h"
#include "common/rng.h"
#include "core/policies.h"
#include "sched/round_robin.h"

namespace netbatch::cluster {
namespace {

workload::JobSpec Spec(JobId::ValueType id, Ticks submit, Ticks runtime,
                       std::int32_t cores = 1,
                       workload::Priority priority = workload::kLowPriority,
                       std::vector<PoolId> pools = {}) {
  workload::JobSpec spec;
  spec.id = JobId(id);
  spec.submit_time = submit;
  spec.runtime = runtime;
  spec.cores = cores;
  spec.memory_mb = 1024;
  spec.priority = priority;
  spec.candidate_pools = std::move(pools);
  return spec;
}

// Four deliberately asymmetric pools so routing, preemption pressure, and
// eligibility all differ per domain.
ClusterConfig ChurnCluster() {
  ClusterConfig config;
  const std::vector<std::tuple<int, int, std::int64_t>> shapes = {
      {3, 4, 16384}, {2, 8, 32768}, {4, 2, 8192}, {1, 16, 65536}};
  for (const auto& [count, cores, memory] : shapes) {
    PoolConfig pool;
    pool.machine_groups.push_back({
        .count = count,
        .cores = cores,
        .memory_mb = memory,
        .speed = 1.0,
    });
    config.pools.push_back(pool);
  }
  return config;
}

// A churn-heavy trace: mixed priorities (preemption), mixed widths (distinct
// eligibility subsets), bursty arrivals (deep queues, wait timeouts).
workload::Trace ChurnTrace(std::size_t jobs) {
  Rng rng(0x5eedbeef);
  std::vector<workload::JobSpec> specs;
  specs.reserve(jobs);
  Ticks submit = 0;
  for (std::size_t i = 0; i < jobs; ++i) {
    submit += static_cast<Ticks>(rng.Next() % 40);
    const std::uint64_t draw = rng.Next();
    const std::int32_t cores = 1 << (draw % 4);  // 1, 2, 4, or 8 cores
    const Ticks runtime = MinutesToTicks(2 + static_cast<Ticks>(draw % 25));
    const workload::Priority priority = (draw % 5 == 0)
                                            ? workload::kHighPriority
                                            : workload::kLowPriority;
    specs.push_back(Spec(static_cast<JobId::ValueType>(i), submit, runtime,
                         cores, priority));
  }
  return workload::Trace(std::move(specs));
}

SimulationOptions ChurnOptions(int shards) {
  SimulationOptions options;
  options.shards = shards;
  options.restart_overhead = MinutesToTicks(1);
  options.checkpoint_interval = MinutesToTicks(5);
  options.outages.mtbf_minutes = 400;
  options.outages.mttr_minutes = 20;
  options.outages.seed = DeriveSeed(0x7e57, "outages");
  options.audit_period = MinutesToTicks(30);
  return options;
}

// Per-domain policies must seed from a per-domain substream so random
// selectors are independent of the shard count — exactly what the sweep
// runner does.
ShardedSimulation::DomainPolicyFactory ChurnPolicyFactory() {
  return [](PoolId domain) {
    core::PolicyOptions options;
    options.wait_threshold = MinutesToTicks(4);  // churn: plenty of timeouts
    options.seed =
        DeriveSeed(0x7e57, "policy.pool" + std::to_string(domain.value()));
    return core::MakePolicy(core::PolicyKind::kResSusWaitRand, options);
  };
}

struct SampleRow {
  Ticks now = 0;
  double utilization = 0.0;
  std::size_t suspended = 0;
  std::size_t pending = 0;

  bool operator==(const SampleRow& other) const {
    return now == other.now && utilization == other.utilization &&
           suspended == other.suspended && pending == other.pending;
  }
};

struct SampleRecorder final : SimulationObserver {
  std::vector<SampleRow> rows;
  void OnSample(Ticks now, const ClusterView& view) override {
    rows.push_back(SampleRow{now, view.ClusterUtilization(),
                             view.SuspendedJobCount(),
                             view.PendingEventCount()});
  }
};

// (id, state, pool, completion) for every job slot still owned by its id —
// handed-off jobs leave stale reclaimed slots behind in the losing domain.
using JobRow = std::tuple<std::uint64_t, int, std::uint32_t, Ticks>;

struct RunResult {
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t reschedules = 0;
  std::uint64_t outages = 0;
  std::uint64_t evictions = 0;
  std::vector<std::uint64_t> domain_hashes;
  std::vector<std::uint64_t> domain_fired;
  std::vector<JobRow> final_jobs;
  std::vector<SampleRow> samples;
  CounterSnapshot counters;
};

RunResult RunChurn(const ClusterConfig& config, const workload::Trace& trace,
                   SimulationOptions options,
                   const ShardedSimulation::DomainPolicyFactory& factory) {
  sched::RoundRobinScheduler router;
  ShardedSimulation sim(config, trace, router, factory, std::move(options));
  SampleRecorder recorder;
  sim.AddObserver(&recorder);
  sim.Run();
  sim.CheckInvariants();

  RunResult result;
  result.completed = sim.completed_count();
  result.rejected = sim.rejected_count();
  result.preemptions = sim.preemption_count();
  result.reschedules = sim.reschedule_count();
  result.outages = sim.outage_count();
  result.evictions = sim.eviction_count();
  for (std::size_t d = 0; d < sim.DomainCount(); ++d) {
    result.domain_hashes.push_back(sim.domain_event_hash(d));
    result.domain_fired.push_back(sim.domain_fired_events(d));
    const JobArena& jobs = sim.domain_jobs(d);
    for (const Job& job : jobs) {
      if (!jobs.Contains(job.id()) ||
          jobs.at(job.id()).slot() != job.slot()) {
        continue;  // stale slot left by a hand-off
      }
      result.final_jobs.push_back(JobRow{job.id().value(),
                                         static_cast<int>(job.state()),
                                         job.pool().value(),
                                         job.completion_time()});
    }
  }
  std::sort(result.final_jobs.begin(), result.final_jobs.end());
  result.samples = std::move(recorder.rows);
  result.counters = sim.MergedCounters();
  return result;
}

// The tentpole bar: every observable of a churn-heavy run — outages,
// preemption, random wait-timeout rescheduling, cross-domain restarts — is
// bit-identical for shard counts 1, 2, 3, and 7.
TEST(ShardedSimTest, TortureChurnIsBitIdenticalAcrossShardCounts) {
  const ClusterConfig config = ChurnCluster();
  const workload::Trace trace = ChurnTrace(400);

  const RunResult baseline =
      RunChurn(config, trace, ChurnOptions(1), ChurnPolicyFactory());
  ASSERT_EQ(baseline.completed + baseline.rejected, trace.size());
  // The scenario must actually exercise the cross-domain machinery.
  EXPECT_GT(baseline.reschedules, 0u);
  EXPECT_GT(baseline.preemptions, 0u);
  EXPECT_GT(baseline.outages, 0u);
  EXPECT_FALSE(baseline.samples.empty());

  for (const int shards : {2, 3, 7}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const RunResult run =
        RunChurn(config, trace, ChurnOptions(shards), ChurnPolicyFactory());
    EXPECT_EQ(run.completed, baseline.completed);
    EXPECT_EQ(run.rejected, baseline.rejected);
    EXPECT_EQ(run.preemptions, baseline.preemptions);
    EXPECT_EQ(run.reschedules, baseline.reschedules);
    EXPECT_EQ(run.outages, baseline.outages);
    EXPECT_EQ(run.evictions, baseline.evictions);
    EXPECT_EQ(run.domain_hashes, baseline.domain_hashes);
    EXPECT_EQ(run.domain_fired, baseline.domain_fired);
    EXPECT_EQ(run.final_jobs, baseline.final_jobs);
    EXPECT_EQ(run.samples, baseline.samples);
    EXPECT_EQ(run.counters.counters, baseline.counters.counters);
    EXPECT_EQ(run.counters.gauges, baseline.counters.gauges);
  }
}

// The sync-window edge: a cross-pool latency of exactly one tick — the
// smallest the floor allows — still delivers every restart at a later
// barrier, and the result still matches across shard counts.
TEST(ShardedSimTest, OneTickSyncWindowStaysDeterministic) {
  ClusterConfig config;
  PoolConfig small;
  small.machine_groups.push_back({
      .count = 1,
      .cores = 4,
      .memory_mb = 16384,
      .speed = 1.0,
  });
  PoolConfig big;
  big.machine_groups.push_back({
      .count = 1,
      .cores = 8,
      .memory_mb = 32768,
      .speed = 1.0,
  });
  config.pools.push_back(small);
  config.pools.push_back(big);

  // A long low-priority job fills pool 0; a high-priority arrival suspends
  // it, and ResSusUtil moves the suspendee to the idle pool 1 — one tick
  // away, the narrowest window the floor allows.
  const workload::Trace trace({
      Spec(0, 0, MinutesToTicks(30), 4, workload::kLowPriority,
           {PoolId(0), PoolId(1)}),
      Spec(1, MinutesToTicks(10), MinutesToTicks(5), 4,
           workload::kHighPriority, {PoolId(0)}),
      Spec(2, MinutesToTicks(20), MinutesToTicks(5), 1,
           workload::kLowPriority, {PoolId(0)}),
  });

  SimulationOptions options;
  options.shards = 1;
  options.transfer_matrix = {{0, 1}, {1, 0}};  // exactly one tick across

  const auto factory = [](PoolId) {
    return core::MakePolicy(core::PolicyKind::kResSusUtil);
  };

  sched::RoundRobinScheduler router;
  ShardedSimulation sim(config, trace, router, factory, options);
  sim.Run();
  sim.CheckInvariants();
  EXPECT_EQ(sim.sync_window(), 1);
  EXPECT_EQ(sim.completed_count(), trace.size());
  EXPECT_GT(sim.preemption_count(), 0u);
  EXPECT_GT(sim.reschedule_count(), 0u);

  SimulationOptions wide = options;
  wide.shards = 2;
  sched::RoundRobinScheduler router2;  // fresh cursor: routing must match
  ShardedSimulation sim2(config, trace, router2, factory, wide);
  sim2.Run();
  EXPECT_EQ(sim2.completed_count(), sim.completed_count());
  EXPECT_EQ(sim2.reschedule_count(), sim.reschedule_count());
  for (std::size_t d = 0; d < sim.DomainCount(); ++d) {
    EXPECT_EQ(sim2.domain_event_hash(d), sim.domain_event_hash(d));
  }
}

// A job no pool could ever run takes the routed-reject path: parked in its
// first candidate domain with an empty forced order, counted rejected.
TEST(ShardedSimTest, ImpossibleJobIsRejectedNotLost) {
  ClusterConfig config;
  PoolConfig pool;
  pool.machine_groups.push_back({
      .count = 1,
      .cores = 4,
      .memory_mb = 16384,
      .speed = 1.0,
  });
  config.pools.push_back(pool);
  config.pools.push_back(pool);

  const workload::Trace trace({
      Spec(0, 0, MinutesToTicks(10)),
      Spec(1, 5, MinutesToTicks(10), /*cores=*/64),  // fits nowhere
  });

  SimulationOptions options;
  options.shards = 2;
  sched::RoundRobinScheduler router;
  const auto factory = [](PoolId) {
    return core::MakePolicy(core::PolicyKind::kNoRes);
  };
  ShardedSimulation sim(config, trace, router, factory, options);
  sim.Run();
  sim.CheckInvariants();
  EXPECT_EQ(sim.completed_count(), 1u);
  EXPECT_EQ(sim.rejected_count(), 1u);
}

// Single-pool clusters degenerate to one domain with a saturated sync
// window; outcomes must match the classic engine's.
TEST(ShardedSimTest, SinglePoolMatchesClassicEngineOutcomes) {
  ClusterConfig config;
  PoolConfig pool;
  pool.machine_groups.push_back({
      .count = 2,
      .cores = 4,
      .memory_mb = 16384,
      .speed = 1.0,
  });
  config.pools.push_back(pool);

  std::vector<workload::JobSpec> specs;
  for (int i = 0; i < 40; ++i) {
    specs.push_back(Spec(static_cast<JobId::ValueType>(i), 25 * i,
                         MinutesToTicks(3 + i % 7), 1 + (i % 3)));
  }
  const workload::Trace trace(std::move(specs));

  sched::RoundRobinScheduler classic_scheduler;
  auto classic_policy = core::MakePolicy(core::PolicyKind::kNoRes);
  NetBatchSimulation classic(config, trace, classic_scheduler,
                             *classic_policy, SimulationOptions{});
  classic.Run();

  SimulationOptions options;
  options.shards = 1;
  sched::RoundRobinScheduler router;
  const auto factory = [](PoolId) {
    return core::MakePolicy(core::PolicyKind::kNoRes);
  };
  ShardedSimulation sharded(config, trace, router, factory, options);
  sharded.Run();
  sharded.CheckInvariants();

  ASSERT_EQ(sharded.completed_count(), classic.completed_count());
  ASSERT_EQ(sharded.rejected_count(), classic.rejected_count());
  const JobArena& jobs = sharded.domain_jobs(0);
  for (const Job& job : jobs) {
    const Job& twin = classic.jobs().at(job.id());
    EXPECT_EQ(job.state(), twin.state());
    EXPECT_EQ(job.completion_time(), twin.completion_time());
  }
}

}  // namespace
}  // namespace netbatch::cluster
