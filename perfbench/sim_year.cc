// pb_sim — the simulator half of the benchmark (workload `sim-year`).
//
// Replays the paper's 20-pool YearLong preset with ResSusUtil on the
// classic engine (shards=0), the way `netbatch_cli --scenario=year` does.
//
//   pb_sim run   --scale=S --seed=N --seconds=T
//     Untraced. Repeats {generate trace, build engine, replay, restore a
//     core from a checkpoint} until T seconds have passed, cycling over
//     the kTraces traces of seed N (rep 0 is the cold warm-up and is not
//     timed; each trace's first replay checkpoints its final core state for
//     the restores of its later reps). Prints per-rep
//     trace index, setup/replay/restore times, host time per 5,000 job
//     completions, and each trace's decision digest as one JSON object.
//
//   pb_sim digest --scale=S --seed=N
//     One classic replay of the trace seeded N; prints its decision digest.
//
//   pb_sim shards --scale=S --seed=N
//     The multi-core record: the first kShardDays days of seed N's trace 0 on
//     the classic engine and on the sharded engine at shards=1..4 (the
//     sharded engine's cost grows with simulated time, so the full year
//     would take minutes). Prints jobs per wall second for each.
//
//   pb_sim trace --scale=S --seed=N
//     On seed N's trace 0: one untraced classic replay, then one traced
//     replay through this
//     file's own CoreHost over sim::EventQueue, with timing decorators
//     around the initial scheduler, the rescheduling policy and the metrics
//     observer. Prints per-layer counts and self times, and whether the
//     traced replay reproduced the untraced decisions. The event loop is the
//     harness: its self time is what the named layers leave unexplained.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "netbatch.h"

using namespace netbatch;
using perfbench::Json;
using perfbench::NowNs;
using perfbench::SecondsSince;
using perfbench::Span;
using perfbench::Spans;

namespace {

constexpr int kShardDays = 20;

// A run replays kTraces years drawn from its seed, in turn: one random
// year's job count varies by several percent from seed to seed, and so do
// its load and replay cost; the mix of three varies less.
constexpr int kTraces = 3;

// Seed of the k-th trace of a run seeded `seed`. The traced replay and the
// multi-core record use trace 0; `pb_sim digest` takes a trace seed.
std::uint64_t TraceSeed(std::uint64_t seed, int k) {
  return seed * kTraces + static_cast<std::uint64_t>(k);
}

struct Stack {
  std::unique_ptr<cluster::InitialScheduler> scheduler;
  std::unique_ptr<cluster::ReschedulingPolicy> policy;
};

Stack MakeStack(std::uint64_t seed) {
  core::PolicyOptions options;
  options.seed = seed;
  return {std::make_unique<sched::RoundRobinScheduler>(),
          core::MakePolicy(core::PolicyKind::kResSusUtil, options)};
}

runner::Scenario YearScenario(double scale, std::uint64_t seed) {
  runner::Scenario scenario = runner::YearLongScenario(scale, seed);
  scenario.workload.seed = seed;
  return scenario;
}

// The decisions a replay made, reduced to exact integers.
struct Digest {
  std::uint64_t jobs = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t reschedules = 0;
  std::uint64_t suspended_jobs = 0;     // jobs suspended at least once
  std::int64_t suspend_ticks_sum = 0;   // total suspension time
  std::int64_t suspend_ticks_max = 0;

  std::string Render() const {
    return "jobs=" + std::to_string(jobs) +
           ",completed=" + std::to_string(completed) +
           ",rejected=" + std::to_string(rejected) +
           ",preemptions=" + std::to_string(preemptions) +
           ",reschedules=" + std::to_string(reschedules) +
           ",suspended_jobs=" + std::to_string(suspended_jobs) +
           ",suspend_ticks_sum=" + std::to_string(suspend_ticks_sum) +
           ",suspend_ticks_max=" + std::to_string(suspend_ticks_max);
  }
};

Digest DigestOf(const sched::SchedulerCore& core, std::size_t jobs) {
  Digest d;
  d.jobs = jobs;
  d.completed = core.completed_count();
  d.rejected = core.rejected_count();
  d.preemptions = core.preemption_count();
  d.reschedules = core.reschedule_count();
  for (const cluster::Job job : core.jobs()) {
    if (!job.ever_suspended()) continue;
    ++d.suspended_jobs;
    d.suspend_ticks_sum += job.suspend_ticks();
    d.suspend_ticks_max = std::max(d.suspend_ticks_max, job.suspend_ticks());
  }
  return d;
}

// Records the host time the replay takes per kBatchJobs job completions.
// Batches of completions rather than simulated days: a seed whose year
// holds more jobs has busier days, but every batch is the same work count.
// A batch takes ~5 ms, long enough that a 1 ms host stall does not decide
// its time, and a year still yields ~160 batches per replay. Batches start
// at the first completion, so the engine's start-up (queueing every submit,
// ~30 ms) is in none of them.
class BatchClock final : public cluster::SimulationObserver {
 public:
  static constexpr std::uint64_t kBatchJobs = 5000;

  void OnJobCompleted(const cluster::Job& job) override {
    (void)job;
    if (completed_++ % kBatchJobs != 0) return;
    const std::int64_t t = NowNs();
    if (completed_ > 1) {
      batch_us_.push_back(static_cast<double>(t - last_ns_) / 1e3);
    }
    last_ns_ = t;
  }

  const std::vector<double>& batch_us() const { return batch_us_; }

 private:
  std::uint64_t completed_ = 0;
  std::int64_t last_ns_ = 0;
  std::vector<double> batch_us_;
};

// A host for restored cores that are never driven: restore timing only.
class IdleHost final : public sched::CoreHost {
  void ArmCompletion(cluster::Job, Ticks) override {}
  void CancelCompletion(cluster::Job) override {}
  void ArmWaitTimeout(cluster::Job, Ticks) override {}
  void ScheduleRestartDelivery(cluster::Job, PoolId, Ticks) override {}
  void OnJobTerminal(const cluster::Job&) override {}
};

int RunTimed(double scale, std::uint64_t seed, double seconds) {
  std::vector<runner::Scenario> scenarios;
  for (int k = 0; k < kTraces; ++k) {
    scenarios.push_back(YearScenario(scale, TraceSeed(seed, k)));
  }
  std::vector<double> gen_s, build_s, run_s, jobs_per_s, batch_us, trace_of,
      batches;
  std::vector<std::vector<std::uint8_t>> checkpoints(kTraces);
  std::vector<std::string> digests(kTraces);
  bool digests_agree = true;
  std::uint64_t jobs_total = 0, rejected_total = 0;
  std::vector<double> restore_s;
  bool restored = true;
  const std::int64_t start = NowNs();
  // Rep r replays trace r mod kTraces; rep 0 is the cold warm-up.
  for (int rep = 0; rep <= 2 * kTraces || SecondsSince(start) < seconds;
       ++rep) {
    const int k = rep % kTraces;
    const runner::Scenario& scenario = scenarios[k];
    const std::int64_t t0 = NowNs();
    const workload::Trace trace = workload::GenerateTrace(scenario.workload);
    const std::int64_t t1 = NowNs();
    Stack stack = MakeStack(TraceSeed(seed, k));
    cluster::NetBatchSimulation sim(scenario.cluster, trace, *stack.scheduler,
                                    *stack.policy);
    metrics::MetricsCollector collector;
    BatchClock clock;
    sim.AddObserver(&collector);
    sim.AddObserver(&clock);
    const std::int64_t t2 = NowNs();
    sim.Run();
    const std::int64_t t3 = NowNs();
    const std::string d = DigestOf(sim.core(), trace.size()).Render();
    if (digests[k].empty()) {
      digests[k] = d;
      sim.core().ExportState(checkpoints[k]);
    }
    digests_agree = digests_agree && d == digests[k];
    if (rep == 0) continue;  // cold warm-up: not timed
    gen_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    build_s.push_back(static_cast<double>(t2 - t1) / 1e9);
    jobs_total += trace.size();
    rejected_total += sim.rejected_count();
    trace_of.push_back(k);
    run_s.push_back(static_cast<double>(t3 - t2) / 1e9);
    jobs_per_s.push_back(static_cast<double>(sim.completed_count()) /
                         (static_cast<double>(t3 - t2) / 1e9));
    batches.push_back(static_cast<double>(clock.batch_us().size()));
    batch_us.insert(batch_us.end(), clock.batch_us().begin(),
                    clock.batch_us().end());

    // The simulator's crash-restart analogue: rebuild a scheduling core
    // from a checkpoint of the trace's final state.
    Stack restored_stack = MakeStack(TraceSeed(seed, k));
    IdleHost host;
    const std::int64_t t4 = NowNs();
    sched::SchedulerCore core(scenario.cluster, *restored_stack.scheduler,
                              *restored_stack.policy, host);
    restored = core.ImportState(checkpoints[k]) && restored;
    restore_s.push_back(SecondsSince(t4));
  }

  Json out;
  std::string all;
  for (const std::string& d : digests) all += (all.empty() ? "" : ";") + d;
  out.Str("digests", all);
  out.Int("digests_agree", digests_agree ? 1 : 0);
  out.Int("jobs", static_cast<std::int64_t>(jobs_total));
  out.Int("rejected", static_cast<std::int64_t>(rejected_total));
  out.Int("restored", restored ? 1 : 0);
  out.Nums("trace", trace_of);
  out.Nums("gen_s", gen_s);
  out.Nums("build_s", build_s);
  out.Nums("run_s", run_s);
  out.Nums("jobs_per_s", jobs_per_s);
  out.Nums("batches", batches);
  out.Nums("batch_us", batch_us);
  out.Nums("restore_s", restore_s);
  out.Print();
  return 0;
}

// --- traced replay ------------------------------------------------------------

struct Layers {
  explicit Layers(Spans& s)
      : queue(s.Layer("sim.queue")),
        submit(s.Layer("service.core.submit")),
        complete(s.Layer("service.core.complete")),
        wait_timeout(s.Layer("service.core.wait_timeout")),
        deliver_restart(s.Layer("service.core.deliver_restart")),
        pool_order(s.Layer("sched.pool_order")),
        policy(s.Layer("core.policy")),
        observer(s.Layer("metrics.observer")),
        sampler(s.Layer("sim.sampler")),
        loop(s.Layer("sim.loop")) {}
  int queue, submit, complete, wait_timeout, deliver_restart, pool_order,
      policy, observer, sampler, loop;
};

class TimedScheduler final : public cluster::InitialScheduler {
 public:
  TimedScheduler(cluster::InitialScheduler& inner, Spans& spans, int layer)
      : inner_(inner), spans_(spans), layer_(layer) {}
  std::vector<PoolId> PoolOrder(const workload::JobSpec& spec,
                                const cluster::ClusterView& view) override {
    Span span(spans_, layer_);
    return inner_.PoolOrder(spec, view);
  }

 private:
  cluster::InitialScheduler& inner_;
  Spans& spans_;
  int layer_;
};

class TimedPolicy final : public cluster::ReschedulingPolicy {
 public:
  TimedPolicy(cluster::ReschedulingPolicy& inner, Spans& spans, int layer)
      : inner_(inner), spans_(spans), layer_(layer) {}
  std::optional<PoolId> OnSuspended(const cluster::Job& job,
                                    const cluster::ClusterView& view) override {
    Span span(spans_, layer_);
    ++consultations_;
    const std::optional<PoolId> target = inner_.OnSuspended(job, view);
    if (target.has_value()) ++moves_;
    return target;
  }
  std::optional<Ticks> WaitRescheduleThreshold() const override {
    return inner_.WaitRescheduleThreshold();
  }
  std::optional<PoolId> OnWaitTimeout(
      const cluster::Job& job, const cluster::ClusterView& view) override {
    Span span(spans_, layer_);
    ++consultations_;
    const std::optional<PoolId> target = inner_.OnWaitTimeout(job, view);
    if (target.has_value()) ++moves_;
    return target;
  }
  bool DuplicateInsteadOfRestart() const override {
    return inner_.DuplicateInsteadOfRestart();
  }
  std::uint64_t consultations() const { return consultations_; }
  std::uint64_t moves() const { return moves_; }

 private:
  cluster::ReschedulingPolicy& inner_;
  Spans& spans_;
  int layer_;
  std::uint64_t consultations_ = 0;
  std::uint64_t moves_ = 0;
};

// Forwards every observer callback to the metrics collector inside a span.
class TimedObserver final : public cluster::SimulationObserver {
 public:
  TimedObserver(cluster::SimulationObserver& inner, Spans& spans, int layer)
      : inner_(inner), spans_(spans), layer_(layer) {}
  void OnJobEnqueued(const cluster::Job& j) override { Span s(spans_, layer_); inner_.OnJobEnqueued(j); }
  void OnJobStarted(const cluster::Job& j) override { Span s(spans_, layer_); inner_.OnJobStarted(j); }
  void OnJobResumed(const cluster::Job& j) override { Span s(spans_, layer_); inner_.OnJobResumed(j); }
  void OnJobSuspended(const cluster::Job& j) override { Span s(spans_, layer_); inner_.OnJobSuspended(j); }
  void OnJobRescheduled(const cluster::Job& j, PoolId from, PoolId to,
                        cluster::RescheduleReason reason) override {
    Span s(spans_, layer_);
    inner_.OnJobRescheduled(j, from, to, reason);
  }
  void OnJobCompleted(const cluster::Job& j) override { Span s(spans_, layer_); inner_.OnJobCompleted(j); }
  void OnJobRejected(const cluster::Job& j) override { Span s(spans_, layer_); inner_.OnJobRejected(j); }
  void OnSample(Ticks now, const cluster::ClusterView& view) override {
    Span s(spans_, layer_);
    inner_.OnSample(now, view);
  }

 private:
  cluster::SimulationObserver& inner_;
  Spans& spans_;
  int layer_;
};

// The benchmark's own event loop: the same event kinds, insertion order and
// stop rule as cluster::NetBatchSimulation, over a bare sim::EventQueue.
class TracedHost final : public sched::CoreHost {
 public:
  enum Kind : std::uint16_t { kSubmit = 1, kComplete, kWait, kDeliver, kSample };

  TracedHost(Spans& spans, const Layers& layers)
      : spans_(spans), layers_(layers) {}

  void Bind(sched::SchedulerCore& core, std::size_t total_jobs) {
    core_ = &core;
    total_jobs_ = total_jobs;
  }

  void Run(std::vector<cluster::SimulationObserver*> observers) {
    {
      Span loop(spans_, layers_.loop);
      queue_.Reserve(total_jobs_);
      for (const cluster::Job& job : core_->jobs()) {
        Push(job.submit_time(), JobEvent(kSubmit, job));
      }
      if (!observers.empty()) Push(0, Event(kSample));
    }
    while (!stop_ && !queue_.Empty()) {
      // The loop's own self time is the dispatch plus the bookkeeping of
      // the spans nested in it: wall time no named layer explains.
      Span loop(spans_, layers_.loop);
      sim::Event ev;
      {
        Span span(spans_, layers_.queue);
        ev = queue_.Pop();
      }
      ++ops_;
      now_ = ev.time;
      switch (ev.kind) {
        case kSubmit: {
          Span span(spans_, layers_.submit);
          core_->Submit(ev.job, now_);
          break;
        }
        case kComplete: {
          Span span(spans_, layers_.complete);
          core_->Complete(ev.job, ev.stamp, now_);
          break;
        }
        case kWait: {
          Span span(spans_, layers_.wait_timeout);
          core_->OnWaitTimeout(ev.job, ev.stamp, now_);
          break;
        }
        case kDeliver: {
          Span span(spans_, layers_.deliver_restart);
          core_->DeliverRestart(ev.job, ev.stamp, ev.pool, now_);
          break;
        }
        case kSample: {
          {
            Span span(spans_, layers_.sampler);
            core_->RefreshGauges(now_);
          }
          for (cluster::SimulationObserver* obs : observers) {
            obs->OnSample(now_, *core_);
          }
          if (!Finished()) Push(now_ + kTicksPerMinute, Event(kSample));
          break;
        }
      }
    }
  }

  std::uint64_t ops() const { return ops_; }

 private:
  static sim::Event Event(std::uint16_t kind) {
    sim::Event ev;
    ev.kind = kind;
    return ev;
  }
  static sim::Event JobEvent(std::uint16_t kind, const cluster::Job& job) {
    sim::Event ev = Event(kind);
    ev.job = job.id();
    ev.stamp = job.generation();
    return ev;
  }
  sim::EventSeq Push(Ticks at, const sim::Event& ev) {
    Span span(spans_, layers_.queue);
    ++ops_;
    return queue_.Schedule(at, ev);
  }
  bool Finished() const {
    return core_->completed_count() + core_->rejected_count() == total_jobs_;
  }

  void ArmCompletion(cluster::Job job, Ticks duration) override {
    job.set_pending_event(Push(now_ + duration, JobEvent(kComplete, job)));
  }
  void CancelCompletion(cluster::Job job) override {
    {
      Span span(spans_, layers_.queue);
      ++ops_;
      queue_.Cancel(job.pending_event());
    }
    job.set_pending_event(sim::kNoEvent);
  }
  void ArmWaitTimeout(cluster::Job job, Ticks threshold) override {
    Push(now_ + threshold, JobEvent(kWait, job));
  }
  void ScheduleRestartDelivery(cluster::Job job, PoolId target,
                               Ticks overhead) override {
    sim::Event ev = JobEvent(kDeliver, job);
    ev.pool = target;
    Push(now_ + overhead, ev);
  }
  void OnJobTerminal(const cluster::Job&) override {
    if (Finished()) stop_ = true;
  }

  Spans& spans_;
  const Layers& layers_;
  sched::SchedulerCore* core_ = nullptr;
  sim::EventQueue queue_;
  std::size_t total_jobs_ = 0;
  Ticks now_ = 0;
  bool stop_ = false;
  std::uint64_t ops_ = 0;
};

int RunTraced(double scale, std::uint64_t seed) {
  const runner::Scenario scenario = YearScenario(scale, seed);
  std::int64_t t0 = NowNs();
  const workload::Trace trace = workload::GenerateTrace(scenario.workload);
  const double generate_s = SecondsSince(t0);

  // Untraced reference: the classic engine, as in `pb_sim run`.
  std::string untraced_digest;
  double untraced_wall = 0;
  {
    Stack stack = MakeStack(seed);
    cluster::NetBatchSimulation sim(scenario.cluster, trace, *stack.scheduler,
                                    *stack.policy);
    metrics::MetricsCollector collector;
    sim.AddObserver(&collector);
    t0 = NowNs();
    sim.Run();
    untraced_wall = SecondsSince(t0);
    untraced_digest = DigestOf(sim.core(), trace.size()).Render();
  }

  Spans spans(/*enabled=*/true);
  const Layers layers(spans);
  Stack stack = MakeStack(seed);
  TimedScheduler scheduler(*stack.scheduler, spans, layers.pool_order);
  TimedPolicy policy(*stack.policy, spans, layers.policy);
  TracedHost host(spans, layers);
  metrics::MetricsCollector collector;
  TimedObserver observer(collector, spans, layers.observer);

  t0 = NowNs();
  sched::SchedulerCore core(scenario.cluster, scheduler, policy, host);
  core.ReserveJobs(trace.size());
  for (const workload::JobSpec& spec : trace.jobs()) core.AdmitJob(spec);
  const double build_s = SecondsSince(t0);
  core.AddObserver(&observer);
  host.Bind(core, trace.size());

  t0 = NowNs();
  host.Run({&observer});
  const double traced_wall = SecondsSince(t0);
  core.RefreshGauges(core.Now());
  const std::string traced_digest = DigestOf(core, trace.size()).Render();

  const auto counter = [&](const char* name) -> std::int64_t {
    const Counter* c = core.counters().FindCounter(name);
    return c == nullptr ? 0 : static_cast<std::int64_t>(c->value());
  };
  const Gauge* waiting = core.counters().FindGauge("cluster.waiting_jobs");

  Json out;
  out.Str("digest", traced_digest);
  out.Int("reproduced", traced_digest == untraced_digest ? 1 : 0);
  out.Int("jobs", static_cast<std::int64_t>(trace.size()));
  out.Num("untraced_wall_s", untraced_wall);
  out.Num("traced_wall_s", traced_wall);
  spans.Calibrate();
  const double covered = spans.self_s_except({layers.loop});
  out.Num("covered_s", covered);
  out.Num("served_s", covered + spans.self_s(layers.loop));
  out.Num("workload.generate_s", generate_s);
  out.Num("service.core.build_s", build_s);
  out.Int("sim.queue.ops", static_cast<std::int64_t>(host.ops()));
  out.Num("sim.queue.self_s", spans.self_s(layers.queue));
  out.Num("sim.loop.self_s", spans.self_s(layers.loop));
  out.Num("sim.sampler.self_s", spans.self_s(layers.sampler));
  const std::pair<const char*, int> entries[] = {
      {"submit", layers.submit},
      {"complete", layers.complete},
      {"wait_timeout", layers.wait_timeout},
      {"deliver_restart", layers.deliver_restart}};
  for (const auto& [name, layer] : entries) {
    const std::string key = std::string("service.core.") + name;
    out.Int(key + ".calls", static_cast<std::int64_t>(spans.calls(layer)));
    out.Num(key + ".self_s", spans.self_s(layer));
  }
  out.Int("sched.pool_order.calls",
          static_cast<std::int64_t>(spans.calls(layers.pool_order)));
  out.Num("sched.pool_order.self_s", spans.self_s(layers.pool_order));
  out.Int("core.policy.calls", static_cast<std::int64_t>(policy.consultations()));
  out.Num("core.policy.self_s", spans.self_s(layers.policy));
  out.Num("core.policy.move_ratio",
          policy.consultations() == 0
              ? 0.0
              : static_cast<double>(policy.moves()) /
                    static_cast<double>(policy.consultations()));
  out.Int("cluster.preemptions", static_cast<std::int64_t>(core.preemption_count()));
  out.Int("cluster.reschedules", static_cast<std::int64_t>(core.reschedule_count()));
  out.Int("cluster.enqueued", counter("jobs.enqueued"));
  out.Int("cluster.waiting_max", waiting == nullptr ? 0 : waiting->max());
  out.Num("metrics.observer.self_s", spans.self_s(layers.observer));
  out.Print();
  return 0;
}

int RunDigest(double scale, std::uint64_t seed) {
  const runner::Scenario scenario = YearScenario(scale, seed);
  const workload::Trace trace = workload::GenerateTrace(scenario.workload);
  Stack stack = MakeStack(seed);
  cluster::NetBatchSimulation sim(scenario.cluster, trace, *stack.scheduler,
                                  *stack.policy);
  sim.Run();
  std::printf("%s\n", DigestOf(sim.core(), trace.size()).Render().c_str());
  return 0;
}

int RunShards(double scale, std::uint64_t seed) {
  runner::Scenario scenario = YearScenario(scale, seed);
  scenario.workload.duration = kShardDays * kTicksPerDay;
  const workload::Trace trace = workload::GenerateTrace(scenario.workload);
  Json out;
  out.Int("jobs", static_cast<std::int64_t>(trace.size()));
  for (int shards = 0; shards <= 4; ++shards) {
    const runner::ExperimentSpec spec = runner::SpecBuilder()
                                            .Scenario("year", scenario)
                                            .Seed(seed)
                                            .Policy(core::PolicyKind::kResSusUtil)
                                            .Shards(shards)
                                            .Build();
    const runner::ExperimentResult result = runner::RunSpec(spec, trace);
    out.Num(shards == 0 ? std::string("classic")
                        : "shards" + std::to_string(shards),
            static_cast<double>(trace.size()) / result.wall_seconds);
  }
  out.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const std::string mode = argc > 1 ? argv[1] : "";
  const double scale = flags.GetDouble("scale", 0.08);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  if (mode == "run") {
    return RunTimed(scale, seed, flags.GetDouble("seconds", 10));
  }
  if (mode == "trace") return RunTraced(scale, TraceSeed(seed, 0));
  if (mode == "digest") return RunDigest(scale, seed);
  if (mode == "shards") return RunShards(scale, TraceSeed(seed, 0));
  std::fprintf(stderr,
               "usage: pb_sim run|digest|shards|trace --scale=S --seed=N\n");
  return 2;
}
