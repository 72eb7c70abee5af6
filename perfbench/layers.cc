// pb_layers — traced in-process replays of the serve workloads' request
// streams, through the same public functions netbatchd calls.
//
//   pb_layers storm   --scale=S --seed=N --jobs=J
//   pb_layers durable --scale=S --seed=N --speed=X --seconds=T --dir=D
//
// One SchedulerCore stands behind the real NBP1 codec. A request the
// two-shard daemon would forward to the other shard takes a net::Mailbox
// hop (and its response hops back); responses leave through a net::Session
// into a socketpair whose far end the replay reads. `durable` adds the
// write-ahead log (an append per logged decision, a flush per request
// round, an fdatasync every 250 ms of replayed wall time), then measures a
// recovery scan, a snapshot write and a snapshot load. `storm` adds the
// backfill probe: SchedulerCore::Complete timed at 20k, 100k and 400k
// waiting jobs.
//
// Each replay runs twice, untraced then traced; the wall-time ratio is the
// tracing overhead. Every call into the stand-in server runs in a harness
// span, whose self time is the served work no named layer explains. Prints
// one JSON object of per-layer counts and self times.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/flags.h"
#include "net/mailbox.h"
#include "net/socket.h"
#include "net/session.h"
#include "netbatch.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "storm.h"

using namespace netbatch;
using perfbench::Json;
using perfbench::NowNs;
using perfbench::Request;
using perfbench::SecondsSince;
using perfbench::Span;
using perfbench::Spans;

namespace {

constexpr std::uint32_t kShards = 2;  // as netbatchd --threads=2

struct Layers {
  explicit Layers(Spans& s)
      : encode(s.Layer("service.protocol.encode")),
        decode(s.Layer("service.protocol.decode")),
        hop(s.Layer("net.mailbox.hop")),
        write(s.Layer("net.session.write")),
        read(s.Layer("net.client.read")),
        submit(s.Layer("service.core.submit")),
        complete(s.Layer("service.core.complete")),
        query(s.Layer("service.core.query")),
        reclaim(s.Layer("service.core.reclaim")),
        append(s.Layer("persist.wal.append")),
        flush(s.Layer("persist.wal.flush")),
        sync(s.Layer("persist.wal.sync")),
        stream(s.Layer("client.stream")),
        harness(s.Layer("server.harness")) {}
  int encode, decode, hop, write, read, submit, complete, query, reclaim,
      append, flush, sync, stream, harness;
};

// Completions armed by the core (auto-complete) and fired by the replay.
class TimerHost final : public sched::CoreHost {
 public:
  explicit TimerHost(bool auto_complete) : auto_complete_(auto_complete) {}

  struct Timer {
    Ticks due;
    std::uint64_t seq;
    JobId job;
    std::uint64_t stamp;
    bool operator>(const Timer& o) const {
      return due != o.due ? due > o.due : seq > o.seq;
    }
  };

  void set_now(Ticks now) { now_ = now; }
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>>& timers() {
    return timers_;
  }
  std::vector<JobId>& terminal() { return terminal_; }

 private:
  void ArmCompletion(cluster::Job job, Ticks duration) override {
    if (!auto_complete_) return;
    timers_.push({now_ + duration, seq_++, job.id(), job.generation()});
  }
  void CancelCompletion(cluster::Job) override {}
  void ArmWaitTimeout(cluster::Job, Ticks) override {}
  void ScheduleRestartDelivery(cluster::Job, PoolId, Ticks) override {}
  void OnJobTerminal(const cluster::Job& job) override {
    terminal_.push_back(job.id());
  }

  bool auto_complete_;
  Ticks now_ = 0;
  std::uint64_t seq_ = 0;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  std::vector<JobId> terminal_;
};

// The in-process stand-in for netbatchd's serving path.
class Server {
 public:
  Server(const cluster::ClusterConfig& config, Spans& spans,
         const Layers& layers, bool auto_complete, persist::WalWriter* wal)
      : spans_(spans),
        layers_(layers),
        host_(auto_complete),
        stack_scheduler_(std::make_unique<sched::RoundRobinScheduler>()),
        stack_policy_(core::MakePolicy(core::PolicyKind::kResSusUtil)),
        core_(config, *stack_scheduler_, *stack_policy_, host_),
        wal_(wal) {
    core_.jobs().EnableReclamation();
    int fds[2];
    NETBATCH_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
                   "socketpair failed");
    session_ = std::make_unique<net::Session>(fds[0]);
    net::SetNonBlocking(fds[0]);
    peer_fd_ = fds[1];
  }
  ~Server() { ::close(peer_fd_); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Serves one round of requests (request i arrives on connection i % 2,
  // whose session lives on shard i % 2) and stores the response payloads in
  // `responses`, which the caller sized to match.
  void Exchange(const std::vector<Request>& reqs, Ticks now,
                std::vector<std::vector<std::uint8_t>>& responses) {
    Span harness(spans_, layers_.harness);
    host_.set_now(now);
    constexpr std::size_t kRound = 64;
    for (std::size_t base = 0; base < reqs.size(); base += kRound) {
      const std::size_t end = std::min(reqs.size(), base + kRound);
      wire_.clear();
      {
        Span span(spans_, layers_.encode);
        for (std::size_t i = base; i < end; ++i) {
          service::EncodeFrame(static_cast<std::uint16_t>(reqs[i].opcode),
                               next_rid_ + i, reqs[i].payload, wire_);
        }
      }
      {
        Span span(spans_, layers_.decode);
        frames_.clear();
        NETBATCH_CHECK(decoder_.Feed(wire_.data(), wire_.size(), frames_),
                       "request stream failed to decode");
        decode_frames_ += frames_.size();
      }
      for (service::Frame& frame : frames_) {
        Serve(frame, static_cast<std::uint32_t>(
                         (frame.header.request_id - next_rid_) % kShards));
      }
      if (wal_ != nullptr) {
        Span span(spans_, layers_.flush);
        wal_->Flush();
      }
      {
        Span span(spans_, layers_.write);
        NETBATCH_CHECK(session_->FlushPending() == net::Session::IoStatus::kOk,
                       "session write failed");
        ++write_calls_;
      }
      ReadResponses(end - base, responses);
      Reclaim();
      {
        // Once per poll round, as the shard loop does.
        Span span(spans_, layers_.hop);
        frame_box_.ClearWake();
        bytes_box_.ClearWake();
      }
    }
    next_rid_ += reqs.size();
  }

  // Fires every completion timer due by `now` (auto-complete).
  void FireTimers(Ticks now) {
    Span harness(spans_, layers_.harness);
    auto& timers = host_.timers();
    while (!timers.empty() && timers.top().due <= now) {
      const TimerHost::Timer t = timers.top();
      timers.pop();
      host_.set_now(t.due);
      bool fired = false;
      {
        Span span(spans_, layers_.complete);
        fired = core_.jobs().Contains(t.job) &&
                core_.Complete(t.job, t.stamp, t.due);
      }
      if (fired) LogRecord(2, t.due, t.job.value());
    }
    Reclaim();
  }

  // The daemon's periodic fdatasync.
  void SyncWal() {
    Span harness(spans_, layers_.harness);
    Span span(spans_, layers_.sync);
    wal_->Sync();
  }

  sched::SchedulerCore& core() { return core_; }
  std::uint64_t decode_frames() const { return decode_frames_; }
  std::uint64_t hops() const { return hops_; }
  std::uint64_t write_calls() const { return write_calls_; }
  std::uint64_t write_bytes() const { return write_bytes_; }

 private:
  void LogRecord(std::uint16_t type, Ticks now, std::uint64_t id) {
    if (wal_ == nullptr) return;
    Span span(spans_, layers_.append);
    record_.clear();
    service::WireWriter w(record_);
    w.I64(now);
    w.U64(id);
    wal_->Append(type, record_);
  }

  // Frames payload_ as the response to `request` into bytes_.
  void EncodeReply(const service::FrameHeader& request) {
    bytes_.clear();
    service::EncodeFrame(request.opcode | service::kResponseBit,
                         request.request_id, payload_, bytes_);
  }

  void Hop(service::Frame& frame) {
    Span span(spans_, layers_.hop);
    frame_box_.Post(std::move(frame));
    hopped_.clear();
    frame_box_.Drain(hopped_);
    frame = std::move(hopped_.front());
    ++hops_;
  }

  void Serve(service::Frame& frame, std::uint32_t origin) {
    const auto opcode = static_cast<service::Opcode>(frame.header.opcode);
    std::uint32_t owner = origin;
    workload::JobSpec spec;
    JobId id;
    {
      Span span(spans_, layers_.decode);
      if (opcode == service::Opcode::kSubmit) {
        NETBATCH_CHECK(service::DecodeJobSpec(frame.payload, spec),
                       "bad submit payload");
        if (!spec.candidate_pools.empty()) {
          owner = spec.candidate_pools.front().value() % kShards;
        }
      } else if (opcode != service::Opcode::kSnapshot) {
        service::WireReader r(frame.payload);
        id = JobId(static_cast<JobId::ValueType>(r.U64()));
        if (core_.jobs().Contains(id)) {
          owner = core_.jobs().at(id).pool().value() % kShards;
        }
      }
    }
    if (owner != origin) Hop(frame);

    payload_.clear();
    switch (opcode) {
      case service::Opcode::kSubmit: {
        service::SubmitResponse response;
        response.job_id = spec.id.value();
        const Ticks now = spec.submit_time;
        if (wal_ != nullptr) {
          Span span(spans_, layers_.append);
          record_.clear();
          service::WireWriter(record_).I64(now);
          service::EncodeJobSpec(spec, record_);
          wal_->Append(1, record_);
        }
        {
          Span span(spans_, layers_.submit);
          const JobId job = spec.id;
          core_.AdmitJob(std::move(spec));
          core_.Submit(job, std::max(now, core_.Now()));
          const cluster::Job j = core_.jobs().at(job);
          response.status =
              j.state() == cluster::JobState::kRunning ? service::Status::kOk
              : j.state() == cluster::JobState::kRejected
                  ? service::Status::kRejected
                  : service::Status::kQueued;
          response.pool = j.pool().value();
          response.machine = j.machine().value();
        }
        Span span(spans_, layers_.encode);
        service::EncodeSubmitResponse(response, payload_);
        EncodeReply(frame.header);
        break;
      }
      case service::Opcode::kQueryJob:
      case service::Opcode::kComplete: {
        service::Status status = service::Status::kOk;
        std::uint32_t state = 0, pool = 0, machine = 0;
        if (opcode == service::Opcode::kComplete) {
          Span span(spans_, layers_.complete);
          if (!core_.jobs().Contains(id)) {
            status = service::Status::kUnknownJob;
          } else {
            const cluster::Job job = core_.jobs().at(id);
            if (job.state() != cluster::JobState::kRunning ||
                !core_.Complete(id, job.generation(), core_.Now())) {
              status = service::Status::kBadState;
            }
          }
        } else {
          Span span(spans_, layers_.query);
          if (!core_.jobs().Contains(id)) {
            status = service::Status::kUnknownJob;
          } else {
            const cluster::Job job = core_.jobs().at(id);
            state = static_cast<std::uint32_t>(job.state());
            pool = job.pool().value();
            machine = job.machine().value();
          }
        }
        Span span(spans_, layers_.encode);
        service::WireWriter w(payload_);
        w.U32(static_cast<std::uint32_t>(status));
        if (opcode == service::Opcode::kQueryJob) {
          w.U32(state);
          w.U32(pool);
          w.U32(machine);
        }
        EncodeReply(frame.header);
        break;
      }
      case service::Opcode::kSnapshot: {
        sched::SchedulerCore::Snapshot snap;
        {
          Span span(spans_, layers_.query);
          snap = core_.GetSnapshot();
        }
        Span span(spans_, layers_.encode);
        service::WireWriter w(payload_);
        w.I64(snap.now);
        w.U64(snap.started);
        w.U64(snap.completed);
        w.U64(snap.rejected);
        w.U64(snap.preemptions);
        w.U64(snap.reschedules);
        w.U32(static_cast<std::uint32_t>(snap.pools.size()));
        for (const auto& pool : snap.pools) {
          w.U32(pool.id.value());
          w.I64(pool.total_cores);
          w.I64(pool.busy_cores);
          w.U64(pool.queued);
          w.U64(pool.suspended);
        }
        EncodeReply(frame.header);
        break;
      }
      default:
        NETBATCH_CHECK(false, "opcode outside the replayed streams");
    }
    if (owner != origin) {
      Span span(spans_, layers_.hop);
      bytes_box_.Post(std::move(bytes_));
      hopped_bytes_.clear();
      bytes_box_.Drain(hopped_bytes_);
      bytes_ = std::move(hopped_bytes_.front());
      ++hops_;
    }
    Span span(spans_, layers_.write);
    NETBATCH_CHECK(session_->QueueWrite(bytes_.data(), bytes_.size()) ==
                       net::Session::IoStatus::kOk,
                   "session write failed");
    write_bytes_ += bytes_.size();
  }

  void ReadResponses(std::size_t expected,
                     std::vector<std::vector<std::uint8_t>>& responses) {
    std::size_t got = 0;
    while (got < expected) {
      ssize_t n = 0;
      {
        Span span(spans_, layers_.read);
        n = ::recv(peer_fd_, buf_, sizeof(buf_), 0);
      }
      NETBATCH_CHECK(n > 0, "response stream ended early");
      Span span(spans_, layers_.decode);
      replies_.clear();
      NETBATCH_CHECK(client_decoder_.Feed(buf_, static_cast<std::size_t>(n),
                                          replies_),
                     "response stream failed to decode");
      for (service::Frame& reply : replies_) {
        responses[reply.header.request_id - next_rid_] =
            std::move(reply.payload);
        ++got;
      }
    }
  }

  void Reclaim() {
    Span span(spans_, layers_.reclaim);
    for (JobId id : host_.terminal()) {
      if (core_.jobs().Contains(id)) core_.jobs().Erase(id);
    }
    host_.terminal().clear();
  }

  Spans& spans_;
  const Layers& layers_;
  TimerHost host_;
  std::unique_ptr<cluster::InitialScheduler> stack_scheduler_;
  std::unique_ptr<cluster::ReschedulingPolicy> stack_policy_;
  sched::SchedulerCore core_;
  persist::WalWriter* wal_;
  std::unique_ptr<net::Session> session_;
  int peer_fd_ = -1;
  net::Mailbox<service::Frame> frame_box_;
  net::Mailbox<std::vector<std::uint8_t>> bytes_box_;
  std::vector<service::Frame> hopped_;
  std::vector<std::vector<std::uint8_t>> hopped_bytes_;
  service::FrameDecoder decoder_;
  service::FrameDecoder client_decoder_;
  std::vector<std::uint8_t> wire_, payload_, bytes_, record_;
  std::vector<service::Frame> frames_, replies_;
  std::uint64_t next_rid_ = 1;
  std::uint64_t decode_frames_ = 0, hops_ = 0, write_calls_ = 0,
                write_bytes_ = 0;
  std::uint8_t buf_[1 << 16];
};

void PrintServeLayers(Json& out, Spans& spans, const Layers& l,
                      const Server& server) {
  spans.Calibrate();
  out.Int("service.protocol.decode.frames",
          static_cast<std::int64_t>(server.decode_frames()));
  out.Num("service.protocol.decode.self_s", spans.self_s(l.decode));
  out.Num("service.protocol.encode.self_s", spans.self_s(l.encode));
  out.Int("net.mailbox.hop.msgs", static_cast<std::int64_t>(server.hops()));
  out.Num("net.mailbox.hop.self_s", spans.self_s(l.hop));
  out.Int("net.session.write.calls",
          static_cast<std::int64_t>(server.write_calls()));
  out.Int("net.session.write.bytes",
          static_cast<std::int64_t>(server.write_bytes()));
  out.Num("net.session.write.self_s", spans.self_s(l.write));
  out.Num("net.client.read.self_s", spans.self_s(l.read));
  out.Int("service.core.submit.calls",
          static_cast<std::int64_t>(spans.calls(l.submit)));
  out.Num("service.core.submit.self_s", spans.self_s(l.submit));
  out.Int("service.core.complete.calls",
          static_cast<std::int64_t>(spans.calls(l.complete)));
  out.Num("service.core.complete.self_s", spans.self_s(l.complete));
  out.Int("service.core.query.calls",
          static_cast<std::int64_t>(spans.calls(l.query)));
  out.Num("service.core.query.self_s", spans.self_s(l.query));
  out.Num("service.core.reclaim.self_s", spans.self_s(l.reclaim));
  out.Num("client.stream.self_s", spans.self_s(l.stream));
  const double covered = spans.self_s_except({l.stream, l.harness});
  out.Num("covered_s", covered);
  out.Num("served_s", covered + spans.self_s(l.harness));
}

// --- serve-storm ----------------------------------------------------------------

double StormReplay(const runner::Scenario& scenario,
                   const std::vector<workload::JobSpec>& jobs, bool traced,
                   Json* out) {
  Spans spans(traced);
  const Layers layers(spans);
  Server server(scenario.cluster, spans, layers, /*auto_complete=*/false,
                nullptr);
  const std::int64_t start = NowNs();
  perfbench::StormResult result;
  {
    Span span(spans, layers.stream);
    result = perfbench::DriveStorm(jobs, [&](const std::vector<Request>& reqs) {
      std::vector<std::vector<std::uint8_t>> responses(reqs.size());
      server.Exchange(reqs, 0, responses);
      return responses;
    });
  }
  const double wall = SecondsSince(start);
  NETBATCH_CHECK(result.completes_accepted == result.completes &&
                     result.refused == 0,
                 "in-process storm replay refused a request");
  if (out != nullptr) {
    out->Num("traced_wall_s", wall);
    out->Int("requests", static_cast<std::int64_t>(result.requests()));
    PrintServeLayers(*out, spans, layers, server);
  }
  return wall;
}

// Mean SchedulerCore::Complete time, in µs, with ~`depth` jobs waiting:
// each completion backfills from queues that deep.
void BackfillProbe(const runner::Scenario& scenario, double scale,
                   std::uint64_t seed, Json& out) {
  const std::size_t depths[] = {20000, 100000, 400000};
  const std::vector<workload::JobSpec> jobs =
      perfbench::StormJobs(scale, seed, 430000, 0);
  TimerHost host(/*auto_complete=*/false);
  sched::RoundRobinScheduler scheduler;
  const auto policy = core::MakePolicy(core::PolicyKind::kResSusUtil);
  sched::SchedulerCore core(scenario.cluster, scheduler, *policy, host);
  core.ReserveJobs(jobs.size());
  std::size_t next = 0;
  for (const std::size_t depth : depths) {
    std::size_t waiting = 0;
    while (next < jobs.size()) {
      const JobId id = jobs[next].id;
      core.AdmitJob(jobs[next]);
      core.Submit(id, 0);
      ++next;
      if (core.jobs().at(id).state() == cluster::JobState::kWaiting &&
          ++waiting % 1024 == 0) {
        std::size_t total = 0;
        for (std::size_t p = 0; p < core.PoolCount(); ++p) {
          total += core.PoolQueueLength(PoolId(static_cast<PoolId::ValueType>(p)));
        }
        if (total >= depth) break;
      }
    }
    std::vector<JobId> running;
    for (const cluster::Job job : core.jobs()) {
      if (job.state() == cluster::JobState::kRunning) running.push_back(job.id());
      if (running.size() == 200) break;
    }
    const std::int64_t start = NowNs();
    for (JobId id : running) {
      core.Complete(id, core.jobs().at(id).generation(), 0);
    }
    const double us = running.empty()
                          ? 0.0
                          : static_cast<double>(NowNs() - start) / 1e3 /
                                static_cast<double>(running.size());
    out.Num("service.core.complete.self_us_at_" +
                std::to_string(depth / 1000) + "k",
            us);
  }
}

int RunStorm(const Flags& flags) {
  const double scale = flags.GetDouble("scale", 0.05);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  const runner::Scenario scenario = runner::YearLongScenario(scale, seed);
  const std::vector<workload::JobSpec> jobs = perfbench::StormJobs(
      scale, seed, static_cast<std::size_t>(flags.GetInt("jobs", 50000)), 0);
  Json out;
  out.Num("untraced_wall_s", StormReplay(scenario, jobs, false, nullptr));
  StormReplay(scenario, jobs, true, &out);
  BackfillProbe(scenario, scale, seed, out);
  out.Print();
  return 0;
}

// --- serve-durable -------------------------------------------------------------

double DurableReplay(const runner::Scenario& scenario,
                     const std::vector<workload::JobSpec>& jobs, double speed,
                     const std::string& dir, bool traced, Json* out) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Spans spans(traced);
  const Layers layers(spans);
  persist::WalOptions options;
  options.fsync_every = 0;
  options.fsync_interval_ms = 0;  // the replay syncs on its own clock
  std::string error;
  std::unique_ptr<persist::WalWriter> wal =
      persist::WalWriter::Open(dir, options, &error);
  NETBATCH_CHECK(wal != nullptr, "cannot open WAL: " + error);
  Server server(scenario.cluster, spans, layers, /*auto_complete=*/true,
                wal.get());
  // The daemon's 250 ms fsync interval, in replayed trace ticks.
  const auto sync_every = static_cast<Ticks>(0.25 * speed);
  Ticks last_sync = 0;
  const std::int64_t start = NowNs();
  {
    Span span(spans, layers.stream);
    std::vector<Request> one(1);
    std::vector<std::vector<std::uint8_t>> response(1);
    for (const workload::JobSpec& spec : jobs) {
      server.FireTimers(spec.submit_time);
      one[0].opcode = service::Opcode::kSubmit;
      one[0].payload.clear();
      service::EncodeJobSpec(spec, one[0].payload);
      server.Exchange(one, spec.submit_time, response);
      if (spec.submit_time - last_sync >= sync_every) {
        server.SyncWal();
        last_sync = spec.submit_time;
      }
    }
  }
  const double wall = SecondsSince(start);
  if (out == nullptr) return wall;

  out->Num("traced_wall_s", wall);
  out->Int("requests", static_cast<std::int64_t>(jobs.size()));
  PrintServeLayers(*out, spans, layers, server);
  out->Int("persist.wal.append.calls",
           static_cast<std::int64_t>(spans.calls(layers.append)));
  out->Num("persist.wal.append.self_s", spans.self_s(layers.append));
  out->Int("persist.wal.flush.calls",
           static_cast<std::int64_t>(spans.calls(layers.flush)));
  out->Num("persist.wal.flush.self_s", spans.self_s(layers.flush));
  out->Int("persist.wal.sync.calls",
           static_cast<std::int64_t>(spans.calls(layers.sync)));
  out->Num("persist.wal.sync.self_s", spans.self_s(layers.sync));
  out->Int("persist.wal.bytes", static_cast<std::int64_t>(wal->bytes_appended()));
  wal->Sync();

  // Recovery scan of the whole log, then a snapshot round trip.
  std::int64_t t0 = NowNs();
  const persist::RecoveryPlan plan = persist::BuildRecoveryPlan(dir);
  out->Num("persist.recovery.self_s", SecondsSince(t0));
  out->Int("persist.recovery.records", static_cast<std::int64_t>(plan.tail.size()));
  persist::SnapshotData snap;
  snap.lsn = wal->last_lsn();
  server.core().ExportState(snap.payload);
  t0 = NowNs();
  NETBATCH_CHECK(persist::WriteSnapshot(dir, snap, &error),
                 "snapshot write failed: " + error);
  out->Num("persist.snapshot.write_s", SecondsSince(t0));
  out->Int("persist.snapshot.bytes", static_cast<std::int64_t>(snap.payload.size()));
  t0 = NowNs();
  const std::optional<persist::SnapshotData> loaded =
      persist::LoadNewestSnapshot(dir);
  out->Num("persist.snapshot.load_s", SecondsSince(t0));
  NETBATCH_CHECK(loaded.has_value() && loaded->payload == snap.payload,
                 "snapshot did not load back");
  return wall;
}

int RunDurable(const Flags& flags) {
  const double scale = flags.GetDouble("scale", 1.0);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  const double speed = flags.GetDouble("speed", 20000);
  const std::string dir = flags.GetString("dir", "");
  NETBATCH_CHECK(!dir.empty(), "--dir is required");
  const runner::Scenario scenario = runner::NormalLoadScenario(scale, seed);
  const std::vector<workload::JobSpec> jobs = perfbench::DurableJobs(
      scale, seed, static_cast<Ticks>(flags.GetDouble("seconds", 30) * speed));
  Json out;
  out.Num("untraced_wall_s",
          DurableReplay(scenario, jobs, speed, dir, false, nullptr));
  DurableReplay(scenario, jobs, speed, dir, true, &out);
  std::filesystem::remove_all(dir);
  out.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "storm") return RunStorm(flags);
  if (mode == "durable") return RunDurable(flags);
  std::fprintf(stderr, "usage: pb_layers storm|durable --scale=S --seed=N ...\n");
  return 2;
}
