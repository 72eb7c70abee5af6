#include "cluster/sharded_simulation.h"

#include <algorithm>
#include <limits>
#include <string>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "common/distributions.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace netbatch::cluster {

namespace {

constexpr Ticks kNever = std::numeric_limits<Ticks>::max();

Ticks SaturatingAdd(Ticks a, Ticks b) {
  if (a >= kNever - b) return kNever;
  return a + b;
}

// The domain's InitialScheduler. Routing happened at the barrier, so by the
// time the core asks for a pool order the answer is already decided: a
// one-shot forced order armed from the submit event ({landing pool}, or {}
// for a routed reject). When unarmed — the core re-offering jobs evicted by
// a machine failure — it answers {own pool}: evicted jobs requeue locally, a
// documented v1 deviation (cross-pool failure rescheduling would need the
// job to leave the domain mid-window).
class ForcedOrderScheduler final : public InitialScheduler {
 public:
  explicit ForcedOrderScheduler(PoolId own) : own_(own) {}

  void ForceNext(PoolId pool) {
    armed_ = true;
    forced_ = pool;
  }

  std::vector<PoolId> PoolOrder(const workload::JobSpec& spec,
                                const ClusterView& view) override {
    (void)spec;
    (void)view;
    if (armed_) {
      armed_ = false;
      if (!forced_.valid()) return {};
      return {forced_};
    }
    return {own_};
  }

 private:
  PoolId own_;
  bool armed_ = false;
  PoolId forced_;
};

}  // namespace

// ---- StaticEligibility -----------------------------------------------------

StaticEligibility::StaticEligibility(const ClusterConfig& config) {
  shapes_.resize(config.pools.size());
  for (std::size_t p = 0; p < config.pools.size(); ++p) {
    for (const MachineGroupConfig& group : config.pools[p].machine_groups) {
      if (group.count <= 0) continue;
      shapes_[p].push_back(Shape{group.cores, group.memory_mb});
    }
  }
}

bool StaticEligibility::Eligible(PoolId pool,
                                 const workload::JobSpec& spec) const {
  if (!pool.valid() || pool.value() >= shapes_.size()) return false;
  for (const Shape& shape : shapes_[pool.value()]) {
    if (shape.cores >= spec.cores && shape.memory_mb >= spec.memory_mb) {
      return true;
    }
  }
  return false;
}

// ---- DomainSim -------------------------------------------------------------

// One pool's private simulation: event heap + SchedulerCore over the
// empty-remote-pools slice. Runs single-threaded within a window; the
// coordinator calls the "barrier-side" methods strictly between windows.
class ShardedSimulation::DomainSim final : private sched::CoreHost,
                                           private sim::EventDispatcher {
 public:
  // What the domain's rescheduling policy sees mid-window: the own pool
  // live, every remote pool frozen at the last barrier (plus the static
  // eligibility oracle, which never disagrees with the remote pool's own
  // capacity check).
  class HybridView final : public ClusterView {
   public:
    explicit HybridView(const DomainSim& domain) : domain_(&domain) {}

    Ticks Now() const override;
    std::size_t PoolCount() const override;
    double PoolUtilization(PoolId pool) const override;
    std::size_t PoolQueueLength(PoolId pool) const override;
    std::int64_t PoolTotalCores(PoolId pool) const override;
    bool PoolEligible(PoolId pool,
                      const workload::JobSpec& spec) const override;
    double ClusterUtilization() const override;
    std::size_t SuspendedJobCount() const override;

   private:
    const DomainSim* domain_;
  };

  // Swaps the view the real policy reasons over: the core passes itself,
  // whose remote pools are empty husks — the hybrid view is the whole point.
  class PolicyAdapter final : public ReschedulingPolicy {
   public:
    PolicyAdapter(ReschedulingPolicy& real, const ClusterView& hybrid)
        : real_(&real), hybrid_(&hybrid) {}

    std::optional<PoolId> OnSuspended(const Job& job,
                                      const ClusterView& view) override {
      (void)view;
      return real_->OnSuspended(job, *hybrid_);
    }
    std::optional<Ticks> WaitRescheduleThreshold() const override {
      return real_->WaitRescheduleThreshold();
    }
    std::optional<PoolId> OnWaitTimeout(const Job& job,
                                        const ClusterView& view) override {
      (void)view;
      return real_->OnWaitTimeout(job, *hybrid_);
    }
    bool DuplicateInsteadOfRestart() const override { return false; }

   private:
    ReschedulingPolicy* real_;
    const ClusterView* hybrid_;
  };

  DomainSim(ShardedSimulation& parent, PoolId own, const ClusterConfig& slice,
            sched::CoreOptions core_options, ReschedulingPolicy& policy,
            std::uint64_t outage_seed, std::size_t reserve_jobs)
      : parent_(&parent),
        own_(own),
        forced_sched_(own),
        hybrid_view_(*this),
        policy_adapter_(policy, hybrid_view_),
        core_(slice, forced_sched_, policy_adapter_, /*host=*/*this,
              std::move(core_options)),
        outage_rng_(outage_seed) {
    sim_.set_dispatcher(this);
    // Handed-off jobs are Erase()d from the losing domain's arena, so
    // reclamation must be on; the core's audit skips the terminal-counter
    // ledger accordingly.
    core_.jobs().EnableReclamation();
    core_.ReserveJobs(reserve_jobs);
    sim_.Reserve(reserve_jobs);
    pending_events_gauge_ = &core_.counters().GetGauge("sim.pending_events");
    fired_events_gauge_ = &core_.counters().GetGauge("sim.fired_events");
  }

  // --- barrier-side (coordinator thread only) ------------------------------

  void AdmitAndScheduleSubmit(const workload::JobSpec& spec, PoolId chosen) {
    const Ticks at = spec.submit_time;
    Job job = core_.AdmitJob(spec);
    sim::Event event;
    event.kind = static_cast<std::uint16_t>(EventKind::kSubmit);
    event.job = job.id();
    event.stamp = job.generation();
    event.pool = chosen;  // invalid() routes the core's reject path
    sim_.ScheduleAt(at, event);
  }

  void ReceiveHandoff(const RestartHandoff& handoff) {
    Job job = core_.jobs().RestoreJob(handoff.spec, handoff.image);
    sim::Event event;
    event.kind = static_cast<std::uint16_t>(EventKind::kRestartDelivery);
    event.job = job.id();
    // The image generation strictly exceeds every stamp armed during any
    // previous stay of this job here, so recycled-id events stay stale.
    event.stamp = handoff.image.generation;
    event.pool = handoff.target;
    sim_.ScheduleAt(handoff.deliver_time, event);
  }

  void ScheduleInitialFailures() {
    for (const Machine& machine : core_.pool(own_).machines()) {
      ScheduleNextFailure(machine.id());
    }
  }

  std::optional<Ticks> NextEventTime() { return sim_.NextEventTime(); }

  // Fires everything strictly before `barrier` (RunUntil is inclusive).
  void RunWindow(Ticks barrier) { window_end_ = sim_.RunUntil(barrier - 1); }
  Ticks window_end() const { return window_end_; }

  void DrainOutbox(std::vector<RestartHandoff>& into) {
    for (RestartHandoff& msg : outbox_) into.push_back(std::move(msg));
    outbox_.clear();
  }

  PoolSnap Snap() const {
    const PhysicalPool& pool = core_.pool(own_);
    PoolSnap snap;
    snap.busy_cores = pool.busy_cores();
    snap.total_cores = pool.total_cores();
    snap.queued = pool.QueueLength();
    snap.suspended = pool.SuspendedCount();
    return snap;
  }

  void SampleGauges(Ticks now) {
    core_.RefreshGauges(now);
    pending_events_gauge_->Set(
        static_cast<std::int64_t>(sim_.PendingEvents()));
    fired_events_gauge_->Set(static_cast<std::int64_t>(sim_.FiredEvents()));
  }

  void Audit(Ticks now) {
    core_.counters().GetCounter("audit.runs").Increment();
    FailFastSink sink;
    core_.AuditInvariants(sink, now);
  }

  const sched::SchedulerCore& core() const { return core_; }
  std::uint64_t event_hash() const { return event_hash_; }
  std::uint64_t fired_events() const { return sim_.FiredEvents(); }
  std::size_t pending_events() const { return sim_.PendingEvents(); }

 private:
  // A rescheduling restart the core armed this window; shipped as a
  // RestartHandoff once the triggering event finishes dispatching (the job
  // must not be erased out from under the core mid-decision).
  struct PendingHandoff {
    JobId job;
    PoolId target;
    Ticks deliver_time = 0;
  };

  // --- sim::EventDispatcher ------------------------------------------------

  void Dispatch(const sim::Event& event) override {
    HashEvent(event);
    const Ticks now = sim_.Now();
    switch (static_cast<EventKind>(event.kind)) {
      case EventKind::kSubmit:
        forced_sched_.ForceNext(event.pool);
        core_.Submit(event.job, now);
        break;
      case EventKind::kCompletion:
        // Contains() guards drop events for jobs handed off to another
        // domain (their slot was erased); the generation stamp then guards
        // events from a previous stay of a returned job.
        if (core_.jobs().Contains(event.job)) {
          core_.Complete(event.job, event.stamp, now);
        }
        break;
      case EventKind::kWaitTimeout:
        if (core_.jobs().Contains(event.job)) {
          core_.OnWaitTimeout(event.job, event.stamp, now);
        }
        break;
      case EventKind::kRestartDelivery:
        if (core_.jobs().Contains(event.job)) {
          core_.DeliverRestart(event.job, event.stamp, event.pool, now);
        }
        break;
      case EventKind::kMachineFailure:
        OnMachineFailure(event.machine);
        break;
      case EventKind::kMachineRepair:
        core_.RepairMachine(own_, event.machine, now);
        ScheduleNextFailure(event.machine);
        break;
      default:
        NETBATCH_CHECK(false, "unexpected event kind in sharded domain");
    }
    DrainPendingHandoffs();
  }

  // --- sched::CoreHost -----------------------------------------------------

  void ArmCompletion(Job job, Ticks duration) override {
    const sim::EventSeq seq =
        sim_.ScheduleAfter(duration, JobEvent(EventKind::kCompletion, job));
    job.set_pending_event(seq);
  }

  void CancelCompletion(Job job) override {
    sim_.Cancel(job.pending_event());
    job.set_pending_event(sim::kNoEvent);
  }

  void ArmWaitTimeout(Job job, Ticks threshold) override {
    sim_.ScheduleAfter(threshold, JobEvent(EventKind::kWaitTimeout, job));
  }

  void ScheduleRestartDelivery(Job job, PoolId target,
                               Ticks overhead) override {
    // Rescheduling restarts are cross-pool by construction (the core only
    // restarts when the policy picked a pool != job.pool()), and the
    // effective matrix floors overhead at one tick, so every restart
    // arrives here rather than delivering inline — the hand-off hook.
    NETBATCH_CHECK(target != own_, "sharded restart must cross pools");
    pending_handoffs_.push_back(
        PendingHandoff{job.id(), target, sim_.Now() + overhead});
  }

  void OnJobTerminal(const Job& job) override {
    // Quiescence is a cross-domain property; the coordinator checks the
    // summed terminal counts at each barrier instead.
    (void)job;
  }

  // --- internals -----------------------------------------------------------

  static sim::Event JobEvent(EventKind kind, const Job& job) {
    sim::Event event;
    event.kind = static_cast<std::uint16_t>(kind);
    event.job = job.id();
    event.stamp = job.generation();
    return event;
  }

  void HashEvent(const sim::Event& event) {
    const auto mix = [this](std::uint64_t v) {
      event_hash_ ^= v;
      event_hash_ *= 1099511628211ull;  // FNV-1a prime
    };
    mix(static_cast<std::uint64_t>(event.time));
    mix(event.kind);
    mix(event.job.value());
    mix(event.pool.value());
    mix(event.machine.value());
    mix(event.stamp);
  }

  void DrainPendingHandoffs() {
    for (const PendingHandoff& pending : pending_handoffs_) {
      RestartHandoff msg;
      msg.deliver_time = pending.deliver_time;
      msg.target = pending.target;
      msg.src_domain = own_.value();
      msg.src_seq = next_outbox_seq_++;
      msg.spec = core_.jobs().at(pending.job).spec();
      msg.image = core_.jobs().CaptureImage(pending.job);
      core_.jobs().Erase(pending.job);
      outbox_.push_back(std::move(msg));
    }
    pending_handoffs_.clear();
  }

  void ScheduleNextFailure(MachineId machine) {
    const double uptime_minutes = SampleExponential(
        outage_rng_, 1.0 / parent_->options_.outages.mtbf_minutes);
    sim::Event event;
    event.kind = static_cast<std::uint16_t>(EventKind::kMachineFailure);
    event.pool = own_;
    event.machine = machine;
    sim_.ScheduleAfter(
        std::max<Ticks>(
            1, static_cast<Ticks>(uptime_minutes * kTicksPerMinute)),
        event);
  }

  void OnMachineFailure(MachineId machine) {
    core_.FailMachine(own_, machine, sim_.Now());
    const double downtime_minutes = SampleExponential(
        outage_rng_, 1.0 / parent_->options_.outages.mttr_minutes);
    sim::Event event;
    event.kind = static_cast<std::uint16_t>(EventKind::kMachineRepair);
    event.pool = own_;
    event.machine = machine;
    sim_.ScheduleAfter(
        std::max<Ticks>(
            1, static_cast<Ticks>(downtime_minutes * kTicksPerMinute)),
        event);
  }

  ShardedSimulation* parent_;
  PoolId own_;
  sim::Simulator sim_;
  ForcedOrderScheduler forced_sched_;
  HybridView hybrid_view_;
  PolicyAdapter policy_adapter_;
  sched::SchedulerCore core_;
  Rng outage_rng_;
  Gauge* pending_events_gauge_ = nullptr;
  Gauge* fired_events_gauge_ = nullptr;
  std::uint64_t event_hash_ = 14695981039346656037ull;  // FNV offset basis
  Ticks window_end_ = 0;
  std::vector<PendingHandoff> pending_handoffs_;
  std::vector<RestartHandoff> outbox_;
  std::uint64_t next_outbox_seq_ = 0;
};

// ---- HybridView ------------------------------------------------------------

Ticks ShardedSimulation::DomainSim::HybridView::Now() const {
  return domain_->sim_.Now();
}

std::size_t ShardedSimulation::DomainSim::HybridView::PoolCount() const {
  return domain_->parent_->snapshots_.size();
}

double ShardedSimulation::DomainSim::HybridView::PoolUtilization(
    PoolId pool) const {
  if (pool == domain_->own_) {
    return domain_->core_.pool(pool).Utilization();
  }
  const PoolSnap& snap = domain_->parent_->snapshots_[pool.value()];
  if (snap.total_cores == 0) return 0.0;
  return static_cast<double>(snap.busy_cores) /
         static_cast<double>(snap.total_cores);
}

std::size_t ShardedSimulation::DomainSim::HybridView::PoolQueueLength(
    PoolId pool) const {
  if (pool == domain_->own_) {
    return domain_->core_.pool(pool).QueueLength();
  }
  return domain_->parent_->snapshots_[pool.value()].queued;
}

std::int64_t ShardedSimulation::DomainSim::HybridView::PoolTotalCores(
    PoolId pool) const {
  // Capacity is immutable, so the snapshot is exact for the own pool too.
  return domain_->parent_->snapshots_[pool.value()].total_cores;
}

bool ShardedSimulation::DomainSim::HybridView::PoolEligible(
    PoolId pool, const workload::JobSpec& spec) const {
  // The oracle matches the pools' own capacity-only check bit for bit, so
  // one code path serves the own pool and every frozen remote one.
  return domain_->parent_->eligibility_.Eligible(pool, spec);
}

double ShardedSimulation::DomainSim::HybridView::ClusterUtilization() const {
  std::int64_t busy = 0;
  std::int64_t total = 0;
  const auto& snapshots = domain_->parent_->snapshots_;
  for (std::size_t p = 0; p < snapshots.size(); ++p) {
    const PoolId pool_id(static_cast<PoolId::ValueType>(p));
    if (pool_id == domain_->own_) {
      busy += domain_->core_.pool(pool_id).busy_cores();
    } else {
      busy += snapshots[p].busy_cores;
    }
    total += snapshots[p].total_cores;
  }
  if (total == 0) return 0.0;
  return static_cast<double>(busy) / static_cast<double>(total);
}

std::size_t ShardedSimulation::DomainSim::HybridView::SuspendedJobCount()
    const {
  std::size_t suspended = 0;
  const auto& snapshots = domain_->parent_->snapshots_;
  for (std::size_t p = 0; p < snapshots.size(); ++p) {
    const PoolId pool_id(static_cast<PoolId::ValueType>(p));
    if (pool_id == domain_->own_) {
      suspended += domain_->core_.pool(pool_id).SuspendedCount();
    } else {
      suspended += snapshots[p].suspended;
    }
  }
  return suspended;
}

// ---- ShardedSimulation -----------------------------------------------------

ShardedSimulation::ShardedSimulation(const ClusterConfig& config,
                                     const workload::Trace& trace,
                                     InitialScheduler& router,
                                     const DomainPolicyFactory& policy_factory,
                                     SimulationOptions options)
    : options_(std::move(options)),
      router_(&router),
      trace_(&trace),
      eligibility_(config),
      total_jobs_(trace.size()) {
  const std::size_t pool_count = config.pools.size();
  NETBATCH_CHECK(pool_count > 0, "sharded simulation needs at least one pool");
  NETBATCH_CHECK(options_.shards >= 1,
                 "sharded simulation needs shards >= 1");

  // The effective transfer matrix: the configured one (or the scalar
  // restart_overhead broadcast), with every off-diagonal entry floored at
  // one tick. The floor is what gives the conservative sync window a
  // positive width — a restart decided inside a window can only land at a
  // later barrier — and what keeps every restart on the hand-off hook
  // (zero-overhead restarts would deliver inline, into an empty pool).
  std::vector<std::vector<Ticks>> matrix(
      pool_count, std::vector<Ticks>(pool_count, options_.restart_overhead));
  if (!options_.transfer_matrix.empty()) {
    NETBATCH_CHECK(options_.transfer_matrix.size() == pool_count,
                   "transfer matrix must have one row per pool");
    for (std::size_t f = 0; f < pool_count; ++f) {
      NETBATCH_CHECK(options_.transfer_matrix[f].size() == pool_count,
                     "transfer matrix must be square");
      matrix[f] = options_.transfer_matrix[f];
    }
  }
  sync_window_ = kNever;  // saturates for single-pool clusters
  for (std::size_t f = 0; f < pool_count; ++f) {
    for (std::size_t t = 0; t < pool_count; ++t) {
      if (f == t) continue;
      matrix[f][t] = std::max<Ticks>(1, matrix[f][t]);
      sync_window_ = std::min(sync_window_, matrix[f][t]);
    }
  }

  sched::CoreOptions core_options;
  core_options.restart_overhead = options_.restart_overhead;
  core_options.checkpoint_interval = options_.checkpoint_interval;
  core_options.transfer_matrix = matrix;
  core_options.dispatch_mode = options_.dispatch_mode;
  core_options.audit_on_transitions = options_.audit_on_transitions;

  snapshots_.assign(pool_count, PoolSnap{});
  policies_.reserve(pool_count);
  domains_.reserve(pool_count);
  const std::size_t reserve_jobs = trace.size() / pool_count + 16;
  for (std::size_t d = 0; d < pool_count; ++d) {
    const PoolId domain_id(static_cast<PoolId::ValueType>(d));
    ClusterConfig slice = config;
    for (std::size_t p = 0; p < pool_count; ++p) {
      if (p != d) slice.pools[p].machine_groups.clear();
    }
    std::unique_ptr<ReschedulingPolicy> policy = policy_factory(domain_id);
    NETBATCH_CHECK(policy != nullptr, "domain policy factory returned null");
    NETBATCH_CHECK(!policy->DuplicateInsteadOfRestart(),
                   "sharded simulation does not support duplication policies");
    policies_.push_back(std::move(policy));
    domains_.push_back(std::make_unique<DomainSim>(
        *this, domain_id, slice, core_options, *policies_.back(),
        DeriveSeed(options_.outages.seed,
                   "shard.pool" + std::to_string(d)),
        reserve_jobs));
  }
  RefreshSnapshots();
}

ShardedSimulation::~ShardedSimulation() = default;

void ShardedSimulation::AddObserver(SimulationObserver* observer) {
  observers_.push_back(observer);
}

void ShardedSimulation::Run() {
  if (options_.outages.mtbf_minutes > 0) {
    NETBATCH_CHECK(options_.outages.mttr_minutes > 0,
                   "outage repair time must be positive");
    for (auto& domain : domains_) domain->ScheduleInitialFailures();
  }
  const bool sampling = options_.sampling_enabled && !observers_.empty();
  if (sampling) {
    NETBATCH_CHECK(options_.sample_period > 0,
                   "sample period must be positive");
  }
  Ticks next_sample = sampling ? Ticks{0} : kNever;
  Ticks next_audit = options_.audit_period > 0 ? Ticks{0} : kNever;
  std::size_t next_submit = 0;
  std::vector<RestartHandoff> inbox;
  const unsigned threads = static_cast<unsigned>(std::min<std::size_t>(
      static_cast<std::size_t>(options_.shards), domains_.size()));
  std::unique_ptr<ThreadPool> workers =
      threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
  const auto jobs = trace_->jobs();

  for (;;) {
    if (Finished() && next_submit == trace_->size() && inbox.empty()) break;

    if (now_ == next_sample) {
      DoSample(now_);
      next_sample += options_.sample_period;
    }
    if (now_ == next_audit) {
      DoAudit();
      next_audit += options_.audit_period;
    }

    // The conservative horizon: nothing anywhere can happen before t_min,
    // and nothing decided after t_min can cross domains in under W ticks.
    Ticks t_min = kNever;
    for (auto& domain : domains_) {
      if (auto t = domain->NextEventTime()) t_min = std::min(t_min, *t);
    }
    if (next_submit < trace_->size()) {
      t_min = std::min(t_min, jobs[next_submit].submit_time);
    }
    for (const RestartHandoff& handoff : inbox) {
      t_min = std::min(t_min, handoff.deliver_time);
    }
    NETBATCH_CHECK(t_min != kNever,
                   "sharded simulation stalled with unfinished jobs");

    Ticks barrier = SaturatingAdd(t_min, sync_window_);
    barrier = std::min(barrier, next_sample);
    barrier = std::min(barrier, next_audit);
    NETBATCH_CHECK(barrier > now_, "sync window failed to advance the clock");

    // Route every submission landing inside this window. The router runs
    // here, single-threaded, against the barrier's aggregate snapshots — in
    // trace order, so its internal state (rotation cursors, RNG) advances
    // identically for every shard count.
    while (next_submit < trace_->size() &&
           jobs[next_submit].submit_time < barrier) {
      RouteSubmit(jobs[next_submit]);
      ++next_submit;
    }

    // Deliver cross-domain restarts due inside this window, in the global
    // (deliver_time, src_domain, src_seq) order. All of them were sent at
    // least W ticks before their delivery, i.e. strictly before an earlier
    // barrier — every domain already reached its send time.
    if (!inbox.empty()) {
      std::sort(inbox.begin(), inbox.end(),
                [](const RestartHandoff& a, const RestartHandoff& b) {
                  return std::tie(a.deliver_time, a.src_domain, a.src_seq) <
                         std::tie(b.deliver_time, b.src_domain, b.src_seq);
                });
      std::size_t delivered = 0;
      while (delivered < inbox.size() &&
             inbox[delivered].deliver_time < barrier) {
        const RestartHandoff& handoff = inbox[delivered];
        domains_[handoff.target.value()]->ReceiveHandoff(handoff);
        ++delivered;
      }
      inbox.erase(inbox.begin(),
                  inbox.begin() + static_cast<std::ptrdiff_t>(delivered));
    }

    const Ticks reached = RunWindows(barrier, workers.get(), threads);

    for (auto& domain : domains_) domain->DrainOutbox(inbox);
    RefreshSnapshots();
    // An uncapped barrier (single pool, no sampling or audits) means the
    // window ran everything; land the clock on the last fired event.
    now_ = barrier == kNever ? std::max(now_, reached) : barrier;
  }

  NETBATCH_CHECK(completed_count() + rejected_count() == total_jobs_,
                 "sharded simulation ended with unfinished jobs");
  // Leave the gauges describing the end-of-run state even when no sampler
  // ran, mirroring the single-domain engine.
  for (auto& domain : domains_) domain->SampleGauges(now_);
}

bool ShardedSimulation::Finished() const {
  return completed_count() + rejected_count() == total_jobs_;
}

void ShardedSimulation::RouteSubmit(const workload::JobSpec& spec) {
  const std::vector<PoolId> order = router_->PoolOrder(spec, *this);
  PoolId chosen;
  // Mirror the dispatch passes the virtual pool manager would run, against
  // the snapshots: prefer a pool with free aggregate cores, else the first
  // that could ever fit the job. The landing pool re-runs its own passes
  // live at submit time, so a stale snapshot costs placement quality (the
  // paper's decentralized-knowledge trade-off), never correctness.
  if (options_.dispatch_mode == DispatchMode::kPreferImmediateStart) {
    for (const PoolId pool : order) {
      if (!eligibility_.Eligible(pool, spec)) continue;
      const PoolSnap& snap = snapshots_[pool.value()];
      if (snap.busy_cores + spec.cores <= snap.total_cores) {
        chosen = pool;
        break;
      }
    }
  }
  if (!chosen.valid()) {
    for (const PoolId pool : order) {
      if (eligibility_.Eligible(pool, spec)) {
        chosen = pool;
        break;
      }
    }
  }
  PoolId landing = chosen;
  if (!landing.valid()) {
    // No pool can ever run this job: park it in its first candidate domain
    // (any domain works) with the invalid sentinel, which forces an empty
    // offer order and the core's ordinary reject accounting.
    landing = spec.candidate_pools.empty() ? PoolId(0)
                                           : spec.candidate_pools.front();
  }
  domains_[landing.value()]->AdmitAndScheduleSubmit(spec, chosen);
}

Ticks ShardedSimulation::RunWindows(Ticks barrier, ThreadPool* workers,
                                    unsigned threads) {
  if (workers == nullptr || threads <= 1) {
    for (auto& domain : domains_) domain->RunWindow(barrier);
  } else {
    for (unsigned s = 0; s < threads; ++s) {
      workers->Submit([this, barrier, s, threads] {
        for (std::size_t d = s; d < domains_.size(); d += threads) {
          domains_[d]->RunWindow(barrier);
        }
      });
    }
    workers->Wait();
  }
  Ticks reached = 0;
  for (auto& domain : domains_) {
    reached = std::max(reached, domain->window_end());
  }
  return reached;
}

void ShardedSimulation::RefreshSnapshots() {
  for (std::size_t d = 0; d < domains_.size(); ++d) {
    snapshots_[d] = domains_[d]->Snap();
  }
}

void ShardedSimulation::DoSample(Ticks now) {
  for (auto& domain : domains_) domain->SampleGauges(now);
  for (SimulationObserver* observer : observers_) {
    observer->OnSample(now, *this);
  }
}

void ShardedSimulation::DoAudit() {
  for (auto& domain : domains_) domain->Audit(now_);
  NETBATCH_CHECK(completed_count() + rejected_count() <= total_jobs_,
                 "terminal counters exceed total trace jobs");
}

// ---- results ----------------------------------------------------------------

std::size_t ShardedSimulation::completed_count() const {
  std::size_t total = 0;
  for (const auto& domain : domains_) total += domain->core().completed_count();
  return total;
}

std::size_t ShardedSimulation::rejected_count() const {
  std::size_t total = 0;
  for (const auto& domain : domains_) total += domain->core().rejected_count();
  return total;
}

std::uint64_t ShardedSimulation::preemption_count() const {
  std::uint64_t total = 0;
  for (const auto& domain : domains_) {
    total += domain->core().preemption_count();
  }
  return total;
}

std::uint64_t ShardedSimulation::reschedule_count() const {
  std::uint64_t total = 0;
  for (const auto& domain : domains_) {
    total += domain->core().reschedule_count();
  }
  return total;
}

std::uint64_t ShardedSimulation::outage_count() const {
  std::uint64_t total = 0;
  for (const auto& domain : domains_) total += domain->core().outage_count();
  return total;
}

std::uint64_t ShardedSimulation::eviction_count() const {
  std::uint64_t total = 0;
  for (const auto& domain : domains_) total += domain->core().eviction_count();
  return total;
}

std::uint64_t ShardedSimulation::TotalFiredEvents() const {
  std::uint64_t total = 0;
  for (const auto& domain : domains_) total += domain->fired_events();
  return total;
}

CounterSnapshot ShardedSimulation::MergedCounters() const {
  CounterSnapshot merged;
  for (const auto& domain : domains_) {
    MergeCounterSnapshots(merged, domain->core().counters().TakeSnapshot());
  }
  return merged;
}

std::size_t ShardedSimulation::DomainCount() const { return domains_.size(); }

const JobArena& ShardedSimulation::domain_jobs(std::size_t domain) const {
  return domains_[domain]->core().jobs();
}

std::uint64_t ShardedSimulation::domain_event_hash(std::size_t domain) const {
  return domains_[domain]->event_hash();
}

std::uint64_t ShardedSimulation::domain_fired_events(
    std::size_t domain) const {
  return domains_[domain]->fired_events();
}

void ShardedSimulation::CheckInvariants() const {
  for (const auto& domain : domains_) domain->core().CheckInvariants();
  NETBATCH_CHECK(completed_count() + rejected_count() <= total_jobs_,
                 "terminal counters exceed total trace jobs");
}

// ---- aggregate ClusterView --------------------------------------------------

double ShardedSimulation::PoolUtilization(PoolId pool) const {
  const PoolSnap& snap = snapshots_[pool.value()];
  if (snap.total_cores == 0) return 0.0;
  return static_cast<double>(snap.busy_cores) /
         static_cast<double>(snap.total_cores);
}

std::size_t ShardedSimulation::PoolQueueLength(PoolId pool) const {
  return snapshots_[pool.value()].queued;
}

std::int64_t ShardedSimulation::PoolTotalCores(PoolId pool) const {
  return snapshots_[pool.value()].total_cores;
}

double ShardedSimulation::ClusterUtilization() const {
  std::int64_t busy = 0;
  std::int64_t total = 0;
  for (const PoolSnap& snap : snapshots_) {
    busy += snap.busy_cores;
    total += snap.total_cores;
  }
  if (total == 0) return 0.0;
  return static_cast<double>(busy) / static_cast<double>(total);
}

std::size_t ShardedSimulation::SuspendedJobCount() const {
  std::size_t suspended = 0;
  for (const PoolSnap& snap : snapshots_) suspended += snap.suspended;
  return suspended;
}

std::size_t ShardedSimulation::PendingEventCount() const {
  std::size_t pending = 0;
  for (const auto& domain : domains_) pending += domain->pending_events();
  return pending;
}

std::uint64_t ShardedSimulation::FiredEventCount() const {
  return TotalFiredEvents();
}

}  // namespace netbatch::cluster
