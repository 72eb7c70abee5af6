// Randomized stress / property tests of the physical pool: after every
// operation the pool's resource-conservation invariants must hold, and
// every job must end in a legal state.
#include <gtest/gtest.h>

#include <optional>

#include "cluster/pool.h"
#include "common/rng.h"

namespace netbatch::cluster {
namespace {

workload::JobSpec RandomSpec(Rng& rng, JobId::ValueType id) {
  workload::JobSpec spec;
  spec.id = JobId(id);
  spec.cores = static_cast<std::int32_t>(rng.UniformInt(1, 8));
  spec.memory_mb = rng.UniformInt(256, 16384);
  spec.runtime = MinutesToTicks(rng.UniformInt(1, 500));
  spec.priority = rng.Bernoulli(0.3) ? workload::kHighPriority
                                     : workload::kLowPriority;
  return spec;
}

using StressParam = std::tuple<bool, bool, std::uint64_t>;

std::string StressName(const ::testing::TestParamInfo<StressParam>& info) {
  const auto [holds, local, seed] = info.param;
  return std::string(holds ? "holdmem" : "swapmem") +
         (local ? "_localresume" : "_priresume") + "_seed" +
         std::to_string(seed);
}

class PoolStressTest : public ::testing::TestWithParam<StressParam> {};

TEST_P(PoolStressTest, InvariantsSurviveRandomOperationSequences) {
  const auto [holds_memory, local_resume, seed] = GetParam();
  Rng rng(seed);

  JobArena jobs;
  MachineArena machines(PoolId(0), jobs);
  for (MachineId::ValueType m = 0; m < 6; ++m) {
    machines.Add(static_cast<std::int32_t>(rng.UniformInt(2, 16)),
                 rng.UniformInt(4096, 65536), 1.0);
  }
  PhysicalPool pool(PoolId(0), std::move(machines), jobs, holds_memory,
                    local_resume);

  std::vector<JobId> live;  // running, waiting or suspended in this pool
  JobId::ValueType next_id = 0;
  Ticks now = 0;

  for (int step = 0; step < 3000; ++step) {
    now += rng.UniformInt(1, 300);
    const double action = rng.NextDouble();
    if (action < 0.5) {
      // Submit a new job.
      Job job = jobs.Create(RandomSpec(rng, next_id++));
      job.OnSubmitted(now);
      const PlaceResult result = pool.TryPlace(job, now);
      if (result.outcome != PlaceOutcome::kNotEligible) {
        live.push_back(job.id());
      }
    } else if (action < 0.8 && !live.empty()) {
      // Complete a random running job.
      const std::size_t pick = rng.UniformIndex(live.size());
      Job job = jobs.at(live[pick]);
      if (job.state() == JobState::kRunning) {
        pool.OnJobCompleted(job, now);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    } else if (!live.empty()) {
      // Detach-and-restart a random suspended job, or dequeue a waiter.
      const std::size_t pick = rng.UniformIndex(live.size());
      Job job = jobs.at(live[pick]);
      if (job.state() == JobState::kSuspended) {
        pool.DetachSuspended(job);
        job.OnRestart(now, PoolId(0));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else if (job.state() == JobState::kWaiting && rng.Bernoulli(0.5)) {
        pool.RemoveFromQueue(job.id());
        job.OnRestart(now, PoolId(0));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
    if (step % 64 == 0) pool.CheckInvariants();
  }
  pool.CheckInvariants();

  // Drain: complete everything still running, restart everything parked.
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < live.size();) {
      Job job = jobs.at(live[i]);
      if (job.state() == JobState::kRunning) {
        now += 1;
        pool.OnJobCompleted(job, now);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        progress = true;
      } else {
        ++i;
      }
    }
  }
  pool.CheckInvariants();
  // Whatever remains is legally parked (waiting for capacity that random
  // completions never freed in the right shape).
  for (JobId id : live) {
    const JobState state = jobs.at(id).state();
    EXPECT_TRUE(state == JobState::kWaiting || state == JobState::kSuspended)
        << ToString(state);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Semantics, PoolStressTest,
    ::testing::Combine(::testing::Bool(),  // suspended_holds_memory
                       ::testing::Bool(),  // local_resume_first
                       ::testing::Values(1u, 2u, 3u)),
    StressName);

}  // namespace
}  // namespace netbatch::cluster
