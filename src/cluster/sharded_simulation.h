// The sharded intra-run simulation engine (opt-in, SimulationOptions::shards).
//
// Partitions the cluster per pool: every pool becomes a *domain* owning its
// own event heap (sim::Simulator) and its own SchedulerCore over a cluster
// slice — the full pool list with every remote pool's machine groups
// emptied, so global pool ids (job.pool(), transfer-matrix indices,
// candidate-pool checks) keep meaning without translation. Domains advance
// in bulk-synchronous windows under a conservative sync bound derived from
// the minimum cross-pool transfer latency: within a window no domain can
// affect another, so windows run in parallel across `shards` worker threads
// and the result is bit-identical for every shard count (the only cross-
// domain traffic — submission routing and rescheduling restarts — is
// applied single-threaded at barriers, in a deterministic (time, source,
// sequence) order).
//
// Cross-domain interactions:
//   * submission routing — a barrier-time router (the configured
//     InitialScheduler) picks each job's landing pool against the barrier's
//     aggregate pool snapshots; the submit event is inserted into the
//     landing domain at the job's exact submit time, so landing-side
//     accounting (wait time, jobs.submitted) is identical to a
//     single-domain run. Jobs no pool could ever fit are routed to their
//     first candidate domain with an empty forced order, which drives the
//     core's ordinary reject bookkeeping.
//   * rescheduling restarts — always cross-pool by construction; the
//     losing domain captures the job's column image, erases it, and ships a
//     typed message that the owning domain re-materializes at the restart's
//     delivery time. The effective transfer matrix floors every off-
//     diagonal entry at one tick, which is what makes the sync window
//     positive (and delivery always land in a *later* window).
//
// Intra-window policy decisions see a hybrid view: the domain's own pool
// live, remote pools frozen at the last barrier — the paper's §3.2.2
// observation ("knowing the current situation in every physical pool at any
// time ... can be impractical") made literal.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/config.h"
#include "cluster/interfaces.h"
#include "cluster/job.h"
#include "cluster/simulation.h"
#include "common/counters.h"
#include "workload/trace.h"

namespace netbatch {
class ThreadPool;
}

namespace netbatch::cluster {

// Immutable per-pool machine-shape table answering "could some machine in
// pool P ever run this demand?" without touching any domain's live state.
// Mirrors PhysicalPool::HasEligibleMachine's capacity-only predicate
// (CapacityClassIndex::AnyEligible with require_online = false) exactly:
// both reduce to "any machine shape with cores and memory at or above the
// demand", so router decisions and in-pool step-0 checks can never
// disagree.
class StaticEligibility {
 public:
  explicit StaticEligibility(const ClusterConfig& config);

  bool Eligible(PoolId pool, const workload::JobSpec& spec) const;

 private:
  struct Shape {
    std::int32_t cores = 0;
    std::int64_t memory_mb = 0;
  };
  std::vector<std::vector<Shape>> shapes_;  // per pool, groups with count > 0
};

class ShardedSimulation final : public ClusterView {
 public:
  // Builds the rescheduling policy of one domain. Invoked once per pool at
  // construction; implementations needing randomness must seed from a
  // per-domain substream so results stay independent of the shard count.
  using DomainPolicyFactory =
      std::function<std::unique_ptr<ReschedulingPolicy>(PoolId domain)>;

  // `router` is consulted single-threaded at barriers for landing-pool
  // decisions and must outlive the simulation, as must the policies the
  // factory returns (the simulation keeps them alive itself).
  // options.shards >= 1 selects the worker-thread count; results are
  // identical for every value. Policies with DuplicateInsteadOfRestart are
  // rejected — twin races would span domains.
  ShardedSimulation(const ClusterConfig& config, const workload::Trace& trace,
                    InitialScheduler& router,
                    const DomainPolicyFactory& policy_factory,
                    SimulationOptions options);
  ~ShardedSimulation();

  ShardedSimulation(const ShardedSimulation&) = delete;
  ShardedSimulation& operator=(const ShardedSimulation&) = delete;

  // Observers see OnSample only (fired at sampling barriers with this
  // aggregate view); per-transition hooks would race across domains. Call
  // before Run(); observers must outlive the simulation.
  void AddObserver(SimulationObserver* observer);

  // Replays the whole trace until every job completed or was rejected.
  void Run();

  // --- results (summed across domains) -------------------------------------
  std::size_t completed_count() const;
  std::size_t rejected_count() const;
  std::uint64_t preemption_count() const;
  std::uint64_t reschedule_count() const;
  std::uint64_t outage_count() const;
  std::uint64_t eviction_count() const;
  std::uint64_t TotalFiredEvents() const;

  // Counter registries folded across domains with the shared per-gauge
  // merge policy (counters add, watermark gauges max).
  CounterSnapshot MergedCounters() const;

  std::size_t DomainCount() const;
  // Domain d's job table. Handed-off jobs leave stale reclaimed slots
  // behind; walk with the id-reverse-lookup filter (see
  // MetricsCollector::BuildReport's sharded overload).
  const JobArena& domain_jobs(std::size_t domain) const;
  // Order-sensitive FNV-1a digest of every event domain d dispatched
  // (time, kind, job, pool, machine, stamp) — the determinism torture
  // test's fingerprint.
  std::uint64_t domain_event_hash(std::size_t domain) const;
  std::uint64_t domain_fired_events(std::size_t domain) const;

  // The conservative sync window W: barriers advance to at most
  // min(next event) + W. Equals the minimum effective cross-pool transfer
  // latency (>= 1 tick by construction).
  Ticks sync_window() const { return sync_window_; }

  // Audits every domain core plus the cross-domain trace-total bound;
  // aborts on the first violation.
  void CheckInvariants() const;

  // --- ClusterView (the barrier-time aggregate view) ------------------------
  Ticks Now() const override { return now_; }
  std::size_t PoolCount() const override { return snapshots_.size(); }
  double PoolUtilization(PoolId pool) const override;
  std::size_t PoolQueueLength(PoolId pool) const override;
  std::int64_t PoolTotalCores(PoolId pool) const override;
  bool PoolEligible(PoolId pool,
                    const workload::JobSpec& spec) const override {
    return eligibility_.Eligible(pool, spec);
  }
  double ClusterUtilization() const override;
  std::size_t SuspendedJobCount() const override;
  std::size_t PendingEventCount() const override;
  std::uint64_t FiredEventCount() const override;

 private:
  class DomainSim;

  // Last-barrier state of one pool, read lock-free by every domain during a
  // window (refreshed only between windows, single-threaded).
  struct PoolSnap {
    std::int64_t busy_cores = 0;
    std::int64_t total_cores = 0;
    std::uint64_t queued = 0;
    std::uint64_t suspended = 0;
  };

  // A rescheduling restart crossing domains: the job's spec + column image,
  // re-materialized by the target domain at `deliver_time`. (src_domain,
  // src_seq) break delivery ties deterministically.
  struct RestartHandoff {
    Ticks deliver_time = 0;
    PoolId target;
    std::uint32_t src_domain = 0;
    std::uint64_t src_seq = 0;
    workload::JobSpec spec;
    JobArena::RestoreImage image;
  };

  bool Finished() const;
  void RouteSubmit(const workload::JobSpec& spec);
  // Runs every domain up to (exclusive) `barrier`; returns the latest clock
  // any domain actually reached (used for the final, uncapped window).
  Ticks RunWindows(Ticks barrier, ThreadPool* workers, unsigned threads);
  void RefreshSnapshots();
  void DoSample(Ticks now);
  void DoAudit();

  SimulationOptions options_;
  InitialScheduler* router_;
  const workload::Trace* trace_;
  StaticEligibility eligibility_;
  Ticks sync_window_ = 1;
  std::size_t total_jobs_ = 0;
  Ticks now_ = 0;

  std::vector<std::unique_ptr<ReschedulingPolicy>> policies_;
  std::vector<std::unique_ptr<DomainSim>> domains_;
  std::vector<PoolSnap> snapshots_;
  std::vector<SimulationObserver*> observers_;
};

}  // namespace netbatch::cluster
