#include "service/shard_loop.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <utility>

#include "common/check.h"
#include "common/crc32c.h"
#include "common/log.h"

namespace netbatch::service {

namespace {

// The poll timeout when nothing is pending: long enough to idle cheaply,
// short enough to notice the stop flag promptly.
constexpr int kIdlePollMs = 100;

// Epoll token for the mailbox eventfd; never collides with a session token
// (fd part would be 0xffffffff).
constexpr std::uint64_t kWakeToken = ~0ull;

bool IsTerminal(cluster::JobState state) {
  return state == cluster::JobState::kCompleted ||
         state == cluster::JobState::kRejected ||
         state == cluster::JobState::kKilled;
}

// Ids per kReclaim record; a pathological round reclaiming more than this
// simply logs several records back to back (erase order is preserved).
constexpr std::size_t kReclaimIdsPerRecord = 8192;

// Version tag of the shard wrapper around the core's serialized state
// inside a snapshot payload.
constexpr std::uint32_t kSnapshotWrapperVersion = 1;

constexpr std::uint32_t kShardMetaMagic = 0x4d53424eu;  // "NBSM"

std::function<void(std::uint32_t)>& RecoveryHook() {
  static std::function<void(std::uint32_t)> hook;
  return hook;
}

std::string RenderLatencyLine(const LatencyHistogram& lat) {
  return "placement_latency_ns{count=" + std::to_string(lat.count()) +
         ",p50=" + std::to_string(lat.Quantile(0.5)) +
         ",p99=" + std::to_string(lat.Quantile(0.99)) +
         ",p999=" + std::to_string(lat.Quantile(0.999)) +
         ",max=" + std::to_string(lat.max()) + "}\n";
}

void EncodeSnapshotPayload(Ticks now,
                           const sched::SchedulerCore::Snapshot& snap,
                           std::vector<std::uint8_t>& payload) {
  WireWriter w(payload);
  w.I64(now);
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
}

}  // namespace

void SetRecoveryHookForTesting(std::function<void(std::uint32_t)> hook) {
  RecoveryHook() = std::move(hook);
}

std::uint64_t WallNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ShardLoop::ShardLoop(const cluster::ClusterConfig& config,
                     cluster::InitialScheduler& scheduler,
                     cluster::ReschedulingPolicy& policy, ShardOptions options,
                     sched::CoreOptions core_options, JobDirectory& directory,
                     std::atomic<bool>& draining)
    : options_(options),
      core_(config, scheduler, policy, /*host=*/*this,
            std::move(core_options)),
      directory_(&directory),
      draining_(&draining) {
  NETBATCH_CHECK(options_.time_scale > 0, "time_scale must be positive");
  NETBATCH_CHECK(options_.shard_index < options_.shard_count,
                 "shard index out of range");
  core_.AddObserver(this);
  // A serving core reclaims terminal jobs; the simulator never does, which
  // is what keeps sweep artifacts byte-identical.
  core_.jobs().EnableReclamation();
  latency_map_gauge_ = &core_.counters().GetGauge("daemon.latency_map_entries");
  if (!options_.data_dir.empty()) {
    // Registered in the ctor (not lazily in the durability paths) so the
    // registry order is identical before a checkpoint and after a restore.
    wal_bytes_gauge_ = &core_.counters().GetGauge("daemon.wal_bytes");
    wal_records_gauge_ = &core_.counters().GetGauge("daemon.wal_records");
    recovery_ms_gauge_ = &core_.counters().GetGauge("daemon.recovery_ms");
  }
}

// --- time & timers ----------------------------------------------------------

Ticks ShardLoop::NowTicks() const {
  const std::uint64_t elapsed_ns = WallNanos() - clock_origin_ns_;
  // ticks = seconds * time_scale, computed in ns to avoid drift. The offset
  // is zero except after recovery, which resumes the pre-crash tick clock
  // (per shard — cross-shard tick comparability is approximate after a
  // restart, and nothing compares ticks across cores).
  return tick_offset_ +
         static_cast<Ticks>(
             static_cast<std::uint64_t>(options_.time_scale) * elapsed_ns /
             1'000'000'000ull);
}

void ShardLoop::PushTimer(TimerKind kind, const cluster::Job& job, Ticks delay,
                          PoolId pool) {
  Timer timer;
  timer.due = NowTicks() + delay;
  timer.seq = next_timer_seq_++;
  timer.kind = kind;
  timer.job = job.id();
  timer.stamp = job.generation();
  timer.pool = pool;
  timers_.push_back(timer);
  std::push_heap(timers_.begin(), timers_.end(), TimerLater{});
}

void ShardLoop::ArmCompletion(cluster::Job job, Ticks duration) {
  if (!options_.auto_complete) return;  // the client owns completion
  PushTimer(TimerKind::kCompletion, job, duration);
}

void ShardLoop::ArmWaitTimeout(cluster::Job job, Ticks threshold) {
  PushTimer(TimerKind::kWaitTimeout, job, threshold);
}

void ShardLoop::ScheduleRestartDelivery(cluster::Job job, PoolId target,
                                        Ticks overhead) {
  PushTimer(TimerKind::kDelivery, job, overhead, target);
}

void ShardLoop::OnJobTerminal(const cluster::Job& job) {
  // A job that went terminal before ever starting (killed while queued,
  // rejected at admission) would leak its arrival entry forever — this
  // erase IS the latency-map drain.
  if (submit_arrival_ns_.erase(job.id()) > 0) {
    latency_map_gauge_->Set(
        static_cast<std::int64_t>(submit_arrival_ns_.size()));
  }
  reclaim_queue_.push_back(job.id());
}

void ShardLoop::OnJobStarted(const cluster::Job& job) {
  const auto it = submit_arrival_ns_.find(job.id());
  if (it == submit_arrival_ns_.end()) return;  // restart/backfill, not admission
  placement_latency_.Record(WallNanos() - it->second);
  submit_arrival_ns_.erase(it);
  latency_map_gauge_->Set(static_cast<std::int64_t>(submit_arrival_ns_.size()));
}

void ShardLoop::DrainDueTimers() {
  while (!timers_.empty()) {
    const Ticks now = NowTicks();
    if (timers_.front().due > now) break;
    const Timer timer = timers_.front();
    std::pop_heap(timers_.begin(), timers_.end(), TimerLater{});
    timers_.pop_back();
    ShardMutation m{.kind = MutationKind::kTimer,
                    .now = now,
                    .timer = timer.kind,
                    .job = timer.job,
                    .stamp = timer.stamp,
                    .pool = timer.pool};
    Commit(m);
  }
}

int ShardLoop::NextTimerDelayMs() const {
  if (timers_.empty()) return -1;
  const Ticks now = NowTicks();
  const Ticks due = timers_.front().due;
  if (due <= now) return 0;
  // ticks -> ms at time_scale ticks per second, rounded up so we never wake
  // a hair early and busy-spin.
  const std::int64_t ms =
      ((due - now) * 1000 + options_.time_scale - 1) / options_.time_scale;
  return static_cast<int>(std::min<std::int64_t>(ms, kIdlePollMs));
}

// --- lifecycle --------------------------------------------------------------

void ShardLoop::Start(std::latch& recovered) {
  thread_ = std::thread([this, &recovered] { Run(recovered); });
}

void ShardLoop::RequestStop() {
  stop_.store(true, std::memory_order_relaxed);
  ShardMessage nudge;  // fd < 0: wakes the loop, handled as a no-op
  mailbox_.Post(std::move(nudge));
}

void ShardLoop::Join() {
  if (thread_.joinable()) thread_.join();
}

void ShardLoop::Run(std::latch& recovered) {
  if (!options_.data_dir.empty()) {
    if (RecoveryHook()) RecoveryHook()(options_.shard_index);
    RecoverFromDisk();
  }
  // Recovery is a phase: a durable daemon accepts no connection until every
  // shard has re-registered its jobs in the directory, so no request can
  // miss a recovered job or claim its id a second time.
  recovered.count_down();
  poller_.Add(mailbox_.wake_fd(), net::kPollIn, kWakeToken);
  while (!stop_.load(std::memory_order_relaxed)) {
    int timeout_ms = NextTimerDelayMs();
    if (timeout_ms < 0) timeout_ms = kIdlePollMs;
    poller_.Wait(timeout_ms, ready_);
    // Clear-before-drain keeps the wake-up race-free (see net/mailbox.h).
    mailbox_.ClearWake();
    DrainMailbox();
    DrainDueTimers();
    DrainReclaim();
    if (wal_ != nullptr && options_.checkpoint_every_ticks > 0 &&
        NowTicks() >= next_checkpoint_due_) {
      DoLocalCheckpoint();
      next_checkpoint_due_ = NowTicks() + options_.checkpoint_every_ticks;
    }
    for (const net::PollResult& event : ready_) {
      if (event.token == kWakeToken) continue;  // handled above
      // A stale token is an event for a connection dropped earlier in the
      // batch whose fd number was already recycled. Delivering it to the new
      // session would corrupt an unrelated client's stream.
      SessionState* const found = FindSession(event.token);
      if (found == nullptr) continue;
      SessionState& state = *found;
      bool alive = true;
      if (event.events & net::kPollOut) {
        alive = state.session.FlushPending() == net::Session::IoStatus::kOk;
      }
      if (alive && (event.events & net::kPollIn)) {
        alive = HandleReadable(state, event.token);
      }
      if (alive && (event.events & net::kPollHup) &&
          !(event.events & net::kPollIn)) {
        alive = false;
      }
      if (!alive) {
        DropSession(state.session.fd());
        continue;
      }
      // Sessions with queued output get rearmed by FlushRound below,
      // usually straight back to read-only interest.
      if (!state.session.wants_write()) RearmSession(state);
    }
    // One WAL flush covers the whole round's records (also the time-based
    // fsync trigger's heartbeat), then the queued acks leave.
    FlushRound();
  }
  poller_.Remove(mailbox_.wake_fd());
  sessions_.clear();
  // Connections the acceptor posted after the stop flag flipped would leak
  // their fds inside dead mailbox nodes otherwise.
  inbox_.clear();
  mailbox_.Drain(inbox_);
  for (ShardMessage& msg : inbox_) {
    if (msg.kind == ShardMessage::Kind::kNewSession && msg.fd >= 0) {
      ::close(msg.fd);
    }
  }
  inbox_.clear();
}

void ShardLoop::DrainMailbox() {
  inbox_.clear();
  mailbox_.Drain(inbox_);
  for (ShardMessage& msg : inbox_) HandleMessage(msg);
  inbox_.clear();
}

void ShardLoop::DrainReclaim() {
  if (reclaim_queue_.empty()) return;
  // Erasing frees slots for reuse, which moves the generation sequence
  // later Creates observe — so it is a logged mutation like any other
  // (see MutationKind::kReclaim).
  ShardMutation m{.kind = MutationKind::kReclaim, .now = NowTicks()};
  m.reclaimed.swap(reclaim_queue_);
  Commit(m);
  m.reclaimed.clear();
  reclaim_queue_.swap(m.reclaimed);  // keep the buffer for the next round
}

void ShardLoop::HandleMessage(ShardMessage& msg) {
  switch (msg.kind) {
    case ShardMessage::Kind::kNewSession:
      if (msg.fd >= 0) AddSession(msg.fd);
      break;
    case ShardMessage::Kind::kFrame:
      ProcessFrame(msg.sender, msg.token, msg.frame, msg.arrival_ns,
                   /*out=*/nullptr);
      break;
    case ShardMessage::Kind::kResponse:
      WriteToSession(msg.token, msg.bytes.data(), msg.bytes.size());
      break;
    case ShardMessage::Kind::kQuery:
      peers_[msg.sender]->Post(Contribute(msg.opcode, msg.gather));
      break;
    case ShardMessage::Kind::kReply:
      AddToGather(msg, /*out=*/nullptr);
      break;
  }
}

// --- sessions ---------------------------------------------------------------

void ShardLoop::AddSession(int fd) {
  const std::uint32_t gen = next_session_gen_++;
  auto [it, inserted] =
      sessions_.emplace(fd, SessionState(fd, options_.max_payload, gen));
  NETBATCH_CHECK(inserted, "fd already has a session");
  it->second.session.set_max_pending(options_.max_session_pending);
  poller_.Add(fd, net::kPollIn, MakeToken(fd, gen));
}

void ShardLoop::DropSession(int fd) {
  poller_.Remove(fd);
  sessions_.erase(fd);
}

void ShardLoop::RearmSession(SessionState& state) {
  poller_.Modify(state.session.fd(),
                 state.session.wants_write() ? (net::kPollIn | net::kPollOut)
                                             : net::kPollIn,
                 MakeToken(state.session.fd(), state.gen));
}

bool ShardLoop::HandleReadable(SessionState& state, std::uint64_t token) {
  read_buf_.clear();
  const net::Session::IoStatus status = state.session.Read(read_buf_);
  if (status == net::Session::IoStatus::kError) return false;
  frames_.clear();
  if (!state.decoder.Feed(read_buf_.data(), read_buf_.size(), frames_)) {
    NETBATCH_LOG(kWarn) << "dropping session: " << state.decoder.error();
    return false;
  }
  const std::uint64_t arrival_ns = WallNanos();
  write_buf_.clear();
  for (const Frame& frame : frames_) {
    ProcessFrame(options_.shard_index, token, frame, arrival_ns, &write_buf_);
  }
  if (!write_buf_.empty()) {
    // Queue only — the bytes leave in FlushRound(), after this round's WAL
    // records have reached the kernel.
    if (state.session.QueueWrite(write_buf_.data(), write_buf_.size()) !=
        net::Session::IoStatus::kOk) {
      NETBATCH_LOG(kWarn) << "dropping session: pending output over "
                          << options_.max_session_pending
                          << " bytes (slow reader)";
      return false;
    }
    round_dirty_.push_back(token);
  }
  if (status == net::Session::IoStatus::kClosed) {
    // Orderly EOF. A partial frame left in the decoder means the peer
    // truncated mid-send; either way the session is done.
    return false;
  }
  return true;
}

ShardLoop::SessionState* ShardLoop::FindSession(std::uint64_t token) {
  const auto it = sessions_.find(static_cast<int>(token & 0xffffffffu));
  if (it == sessions_.end() ||
      it->second.gen != static_cast<std::uint32_t>(token >> 32)) {
    return nullptr;
  }
  return &it->second;
}

void ShardLoop::WriteToSession(std::uint64_t token, const std::uint8_t* bytes,
                               std::size_t size) {
  SessionState* const state = FindSession(token);
  if (state == nullptr) return;  // session gone
  if (state->session.QueueWrite(bytes, size) !=
      net::Session::IoStatus::kOk) {
    NETBATCH_LOG(kWarn) << "dropping session: pending output over "
                        << options_.max_session_pending
                        << " bytes (slow reader)";
    DropSession(state->session.fd());
    return;
  }
  round_dirty_.push_back(token);
}

void ShardLoop::FlushRound() {
  FlushWal();
  for (const std::uint64_t token : round_dirty_) {
    SessionState* const state = FindSession(token);
    if (state == nullptr) continue;
    if (state->session.FlushPending() != net::Session::IoStatus::kOk) {
      DropSession(state->session.fd());
      continue;
    }
    RearmSession(*state);
  }
  round_dirty_.clear();
}

// --- frame dispatch ---------------------------------------------------------

void ShardLoop::Respond(std::uint32_t origin, std::uint64_t token,
                        const FrameHeader& request,
                        const std::vector<std::uint8_t>& payload,
                        std::vector<std::uint8_t>* out) {
  const std::uint16_t opcode = request.opcode | kResponseBit;
  if (origin == options_.shard_index && out != nullptr) {
    EncodeFrame(opcode, request.request_id, payload, *out);
    return;
  }
  std::vector<std::uint8_t> bytes;
  EncodeFrame(opcode, request.request_id, payload, bytes);
  if (origin == options_.shard_index) {
    WriteToSession(token, bytes.data(), bytes.size());
    return;
  }
  // A forwarded mutation was applied (and logged) HERE, but its ack leaves
  // through the origin shard's socket — flush this shard's WAL before the
  // response crosses the mailbox, or the origin could ack an unflushed
  // record.
  FlushWal();
  ShardMessage msg;
  msg.kind = ShardMessage::Kind::kResponse;
  msg.sender = options_.shard_index;
  msg.token = token;
  msg.bytes = std::move(bytes);
  peers_[origin]->Post(std::move(msg));
}

void ShardLoop::RespondStatus(std::uint32_t origin, std::uint64_t token,
                              const FrameHeader& header, Status status,
                              std::vector<std::uint8_t>* out) {
  std::vector<std::uint8_t> payload;
  WireWriter(payload).U32(static_cast<std::uint32_t>(status));
  Respond(origin, token, header, payload, out);
}

void ShardLoop::ForwardFrame(std::uint32_t target, std::uint32_t origin,
                             std::uint64_t token, const Frame& frame,
                             std::uint64_t arrival_ns) {
  ShardMessage msg;
  msg.kind = ShardMessage::Kind::kFrame;
  msg.sender = origin;
  msg.token = token;
  msg.frame = frame;
  msg.arrival_ns = arrival_ns;
  peers_[target]->Post(std::move(msg));
}

void ShardLoop::ProcessFrame(std::uint32_t origin, std::uint64_t token,
                             const Frame& frame, std::uint64_t arrival_ns,
                             std::vector<std::uint8_t>* out) {
  switch (static_cast<Opcode>(frame.header.opcode)) {
    case Opcode::kSubmit:
      HandleSubmit(origin, token, frame, arrival_ns, out);
      break;
    case Opcode::kComplete:
    case Opcode::kSuspend:
    case Opcode::kResume:
    case Opcode::kQueryJob:
    case Opcode::kKill:
      HandleJobOp(origin, token, frame, out);
      break;
    case Opcode::kFailMachine:
    case Opcode::kRepairMachine:
      HandleMachineOp(origin, token, frame, out);
      break;
    case Opcode::kDrain: {
      ShardMutation m{.kind = MutationKind::kDrain, .now = NowTicks()};
      Commit(m);
      if (wal_ == nullptr) {
        RespondStatus(origin, token, frame.header, Status::kOk, out);
        break;
      }
      // A drain is the orderly shutdown path: make everything acked so far
      // durable — the drain record forced out, then a final checkpoint on
      // every shard — before confirming it.
      wal_->Sync();
      StartGather(token, frame.header, out);
      break;
    }
    case Opcode::kCheckpoint:
      if (wal_ == nullptr) {
        // No --data-dir: there is nowhere to checkpoint to.
        RespondStatus(origin, token, frame.header, Status::kBadState, out);
        break;
      }
      StartGather(token, frame.header, out);
      break;
    case Opcode::kSnapshot:
    case Opcode::kStats:
      // Gathers start on the session's shard; these are never forwarded.
      StartGather(token, frame.header, out);
      break;
    default:
      RespondStatus(origin, token, frame.header, Status::kBadRequest, out);
  }
}

void ShardLoop::HandleSubmit(std::uint32_t origin, std::uint64_t token,
                             const Frame& frame, std::uint64_t arrival_ns,
                             std::vector<std::uint8_t>* out) {
  SubmitResponse response;  // kBadRequest unless admitted or draining
  workload::JobSpec spec;
  const bool decoded = DecodeJobSpec(frame.payload, spec);
  if (decoded) response.job_id = spec.id.value();
  bool valid =
      decoded && spec.cores > 0 && spec.memory_mb >= 0 && spec.runtime >= 0;
  for (PoolId pool : spec.candidate_pools) {
    if (pool.value() >= options_.global_pool_count) valid = false;
  }
  if (valid && draining_->load(std::memory_order_acquire)) {
    response.status = Status::kDraining;
    valid = false;
  }
  if (valid && !spec.candidate_pools.empty()) {
    // Keep the candidates this shard owns (an empty candidate list means
    // "any pool" and is always shard-local). When none are ours, forward to
    // the shard of the first candidate — the common case, where a client's
    // submits target pools on its session's shard, never crosses threads.
    std::vector<PoolId> local;
    for (PoolId pool : spec.candidate_pools) {
      if (ShardOfPool(pool.value()) == options_.shard_index) {
        local.push_back(ToLocalPool(pool.value()));
      }
    }
    if (local.empty()) {
      ForwardFrame(ShardOfPool(spec.candidate_pools.front().value()), origin,
                   token, frame, arrival_ns);
      return;
    }
    spec.candidate_pools = std::move(local);
  }
  // Local duplicates first (covers ids the duplication extension spawned
  // on this shard), then the cluster-wide claim.
  const JobId id = spec.id;
  if (valid && !core_.jobs().Contains(id) &&
      directory_->TryInsert(id, options_.shard_index)) {
    // The spec is logged as admitted — candidate pools already rewritten to
    // this shard's local ids — so replay skips the routing step. Even a
    // rejected submit mutated state (the scheduler cursor, the reject
    // counters, possibly the duplicate id sequence), so it is logged too.
    ShardMutation m{.kind = MutationKind::kSubmit,
                    .now = NowTicks(),
                    .job = id,
                    .spec = std::move(spec)};
    Commit(m, arrival_ns);
    const cluster::Job& job = core_.jobs().at(id);
    switch (job.state()) {
      case cluster::JobState::kRunning:
        response.status = Status::kOk;
        response.pool = ToGlobalPool(job.pool()).value();
        response.machine = job.machine().value();
        break;
      case cluster::JobState::kWaiting:
      case cluster::JobState::kInTransit:
        response.status = Status::kQueued;
        response.pool = ToGlobalPool(job.pool()).value();
        break;
      default:
        // Rejected: OnJobTerminal already drained the arrival entry and
        // queued the slot for reclamation.
        response.status = Status::kRejected;
        break;
    }
  }
  std::vector<std::uint8_t> payload;
  EncodeSubmitResponse(response, payload);
  Respond(origin, token, frame.header, payload, out);
}

void ShardLoop::HandleJobOp(std::uint32_t origin, std::uint64_t token,
                            const Frame& frame,
                            std::vector<std::uint8_t>* out) {
  const auto opcode = static_cast<Opcode>(frame.header.opcode);
  WireReader r(frame.payload);
  const JobId id(static_cast<JobId::ValueType>(r.U64()));
  Status status = Status::kOk;
  std::uint32_t state = 0;
  std::uint32_t pool = 0;
  std::uint32_t machine = 0;
  if (!r.exhausted()) {
    status = Status::kBadRequest;
  } else {
    // Route to the owning shard. A directory miss falls through to the
    // local table: it may be an internal duplicate id (shard-local, never
    // registered) — or truly unknown.
    const std::optional<std::uint32_t> owner = directory_->Lookup(id);
    if (owner.has_value() && *owner != options_.shard_index) {
      ForwardFrame(*owner, origin, token, frame, 0);
      return;
    }
    if (opcode != Opcode::kQueryJob) {
      ShardMutation m{.kind = MutationKind::kJobOp,
                      .now = NowTicks(),
                      .opcode = frame.header.opcode,
                      .job = id};
      status = Commit(m);
    } else if (!core_.jobs().Contains(id)) {
      status = Status::kUnknownJob;
    }
    if (opcode == Opcode::kQueryJob && status == Status::kOk) {
      const cluster::Job job = core_.jobs().at(id);
      state = static_cast<std::uint32_t>(job.state());
      pool = ToGlobalPool(job.pool()).value();
      machine = job.machine().value();
    }
  }
  std::vector<std::uint8_t> payload;
  WireWriter w(payload);
  w.U32(static_cast<std::uint32_t>(status));
  if (opcode == Opcode::kQueryJob) {
    w.U32(state);
    w.U32(pool);
    w.U32(machine);
  }
  Respond(origin, token, frame.header, payload, out);
}

void ShardLoop::HandleMachineOp(std::uint32_t origin, std::uint64_t token,
                                const Frame& frame,
                                std::vector<std::uint8_t>* out) {
  std::uint32_t pool = 0;
  std::uint32_t machine = 0;
  if (!DecodeMachineOpPayload(frame.payload, pool, machine) ||
      pool >= options_.global_pool_count) {
    RespondStatus(origin, token, frame.header, Status::kBadRequest, out);
    return;
  }
  const std::uint32_t owner = ShardOfPool(pool);
  if (owner != options_.shard_index) {
    ForwardFrame(owner, origin, token, frame, 0);
    return;
  }
  const PoolId local = ToLocalPool(pool);
  if (machine >= core_.pool(local).machines().size()) {
    RespondStatus(origin, token, frame.header, Status::kBadRequest, out);
    return;
  }
  ShardMutation m{.kind = MutationKind::kMachineOp,
                  .now = NowTicks(),
                  .opcode = frame.header.opcode,
                  .pool = local,
                  .machine = MachineId(machine)};
  RespondStatus(origin, token, frame.header, Commit(m), out);
}

// --- scatter-gather ---------------------------------------------------------

void ShardLoop::StartGather(std::uint64_t token, const FrameHeader& header,
                            std::vector<std::uint8_t>* out) {
  const std::uint64_t id = next_gather_id_++;
  Gather& g = gathers_[id];
  g.token = token;
  g.request = header;
  g.remaining = options_.shard_count;
  for (std::uint32_t s = 0; s < options_.shard_count; ++s) {
    if (s == options_.shard_index) continue;
    ShardMessage query;
    query.kind = ShardMessage::Kind::kQuery;
    query.sender = options_.shard_index;
    query.gather = id;
    query.opcode = header.opcode;
    peers_[s]->Post(std::move(query));
  }
  AddToGather(Contribute(header.opcode, id), out);
}

ShardMessage ShardLoop::Contribute(std::uint16_t opcode,
                                   std::uint64_t gather_id) {
  ShardMessage part;
  part.kind = ShardMessage::Kind::kReply;
  part.sender = options_.shard_index;
  part.gather = gather_id;
  part.opcode = opcode;
  switch (static_cast<Opcode>(opcode)) {
    case Opcode::kStats:
      core_.RefreshGauges(NowTicks());
      part.counters = core_.counters().TakeSnapshot();
      part.latency = placement_latency_;
      break;
    case Opcode::kSnapshot:
      part.snapshot = LocalSnapshot();
      break;
    default:  // kCheckpoint, kDrain: this shard's state is durable first
      if (wal_ != nullptr) DoLocalCheckpoint();
      break;
  }
  return part;
}

void ShardLoop::AddToGather(const ShardMessage& part,
                            std::vector<std::uint8_t>* out) {
  const auto it = gathers_.find(part.gather);
  if (it == gathers_.end()) return;
  // Counters add, gauge values merge per policy and gauge maxes by max
  // (MergeCounterSnapshots): a many-shard daemon reports the cluster-wide
  // watermark, not the sum of per-shard watermarks.
  Gather& g = it->second;
  MergeCounterSnapshots(g.counters, part.counters);
  g.latency.Merge(part.latency);
  g.snapshot.started += part.snapshot.started;
  g.snapshot.completed += part.snapshot.completed;
  g.snapshot.rejected += part.snapshot.rejected;
  g.snapshot.preemptions += part.snapshot.preemptions;
  g.snapshot.reschedules += part.snapshot.reschedules;
  g.snapshot.pools.insert(g.snapshot.pools.end(), part.snapshot.pools.begin(),
                          part.snapshot.pools.end());
  if (--g.remaining > 0) return;
  FinishGather(g, out);
  gathers_.erase(it);
}

void ShardLoop::FinishGather(Gather& g, std::vector<std::uint8_t>* out) {
  std::vector<std::uint8_t> payload;
  switch (static_cast<Opcode>(g.request.opcode)) {
    case Opcode::kStats: {
      const std::string text =
          RenderCounterSnapshot(g.counters) + RenderLatencyLine(g.latency);
      payload.assign(text.begin(), text.end());
      break;
    }
    case Opcode::kSnapshot:
      std::sort(g.snapshot.pools.begin(), g.snapshot.pools.end(),
                [](const auto& a, const auto& b) {
                  return a.id.value() < b.id.value();
                });
      EncodeSnapshotPayload(NowTicks(), g.snapshot, payload);
      break;
    default:  // kCheckpoint, kDrain: every shard's snapshot is durable
      WireWriter(payload).U32(static_cast<std::uint32_t>(Status::kOk));
      break;
  }
  Respond(options_.shard_index, g.token, g.request, payload, out);
}

sched::SchedulerCore::Snapshot ShardLoop::LocalSnapshot() {
  sched::SchedulerCore::Snapshot snap = core_.GetSnapshot();
  for (auto& pool : snap.pools) pool.id = ToGlobalPool(pool.id);
  return snap;
}

// --- durability -------------------------------------------------------------

void ShardLoop::FlushWal() {
  if (wal_ == nullptr) return;
  const bool had_buffered = wal_->has_buffered();
  // Always let Flush run: with an empty buffer it still evaluates the
  // time-based fsync trigger for records flushed-but-unsynced earlier.
  wal_->Flush();
  if (!had_buffered) return;
  // Gauge updates ride the flush, not the per-record append — one batch's
  // worth of records shows up at once, which is also exactly when they
  // became crash-durable.
  wal_bytes_gauge_->Set(static_cast<std::int64_t>(wal_->bytes_appended()));
  wal_records_gauge_->Set(
      static_cast<std::int64_t>(wal_->records_appended()));
}

void ShardLoop::ValidateShardMeta() {
  const std::string path = options_.data_dir + "/shard.meta";
  std::vector<std::uint8_t> meta;
  {
    WireWriter w(meta);
    w.U32(kShardMetaMagic);
    w.U32(options_.shard_index);
    w.U32(options_.shard_count);
    w.U32(options_.global_pool_count);
    w.U32(ExtendCrc32c(0, meta.data(), meta.size()));
  }
  std::ifstream in(path, std::ios::binary);
  if (in) {
    std::vector<std::uint8_t> existing(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    if (existing == meta) return;
    // Separate an intact-but-different file from a torn write: the trailing
    // CRC vouches for intactness. Intact + different topology would
    // silently misroute every recovered job — refuse loudly. A torn file
    // (crash mid-write) says nothing about the topology; rewriting it below
    // keeps an otherwise healthy data dir bootable.
    const bool intact =
        existing.size() == meta.size() &&
        [&] {
          WireReader r(existing);
          const std::uint32_t magic = r.U32();
          r.U32();  // shard index
          r.U32();  // shard count
          r.U32();  // pool count
          const std::uint32_t crc = r.U32();
          return r.exhausted() && magic == kShardMetaMagic &&
                 crc == ExtendCrc32c(0, existing.data(), existing.size() - 4);
        }();
    NETBATCH_CHECK(!intact,
                   "shard.meta mismatch: " + path +
                       " was written by a daemon with different "
                       "--threads/pool topology");
    NETBATCH_LOG(kWarn) << "shard " << options_.shard_index
                        << ": torn/corrupt shard.meta, rewriting";
  }
  in.close();
  // tmp + fsync + rename, like snapshots: a crash mid-write must never
  // leave a partial file that bricks every subsequent start.
  const std::string tmp_path = path + ".tmp";
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  NETBATCH_CHECK(fd >= 0, "cannot create " + tmp_path);
  std::size_t off = 0;
  while (off < meta.size()) {
    const ssize_t n = ::write(fd, meta.data() + off, meta.size() - off);
    if (n < 0 && errno == EINTR) continue;
    NETBATCH_CHECK(n > 0, "cannot write " + tmp_path);
    off += static_cast<std::size_t>(n);
  }
  NETBATCH_CHECK(::fsync(fd) == 0, "cannot fsync " + tmp_path);
  ::close(fd);
  NETBATCH_CHECK(::rename(tmp_path.c_str(), path.c_str()) == 0,
                 "cannot rename " + tmp_path);
}

// --- the one apply path -----------------------------------------------------

Status ShardLoop::Apply(ShardMutation& m, std::uint64_t arrival_ns) {
  switch (m.kind) {
    case MutationKind::kSubmit:
      // Live, an id is only re-admitted after its terminal predecessor was
      // reclaimed, and that reclaim rides the log as a kReclaim record
      // ahead of this one. A terminal occupant still here means the reclaim
      // record was lost (or the log predates kReclaim): erase it rather
      // than drop an acked submit. A live occupant is a duplicate.
      if (core_.jobs().Contains(m.job) && !Reclaim(m.job)) {
        return Status::kBadRequest;
      }
      core_.AdmitJob(std::move(m.spec));
      if (arrival_ns != 0) {
        submit_arrival_ns_.emplace(m.job, arrival_ns);
        latency_map_gauge_->Set(
            static_cast<std::int64_t>(submit_arrival_ns_.size()));
      }
      core_.Submit(m.job, m.now);
      return Status::kOk;
    case MutationKind::kJobOp: {
      if (!core_.jobs().Contains(m.job)) return Status::kUnknownJob;
      const cluster::Job job = core_.jobs().at(m.job);
      switch (static_cast<Opcode>(m.opcode)) {
        case Opcode::kComplete:
          if (job.state() != cluster::JobState::kRunning) {
            return Status::kBadState;
          }
          core_.Complete(m.job, job.generation(), m.now);
          return Status::kOk;
        case Opcode::kSuspend:
          return core_.Suspend(m.job, m.now) ? Status::kOk : Status::kBadState;
        case Opcode::kResume:
          if (job.state() != cluster::JobState::kSuspended) {
            return Status::kBadState;
          }
          // Still suspended: its machine is full or offline right now.
          return core_.Resume(m.job, m.now) ? Status::kOk : Status::kQueued;
        case Opcode::kKill:
          return core_.Kill(m.job, m.now) ? Status::kOk : Status::kBadState;
        default:
          return Status::kBadRequest;
      }
    }
    case MutationKind::kMachineOp: {
      const bool fail = static_cast<Opcode>(m.opcode) == Opcode::kFailMachine;
      // Failing a down machine or repairing a live one changes nothing (and
      // the pool would abort on it): refuse the request instead.
      if (core_.pool(m.pool).MachineById(m.machine).online() != fail) {
        return Status::kBadState;
      }
      if (fail) {
        core_.FailMachine(m.pool, m.machine, m.now);
      } else {
        core_.RepairMachine(m.pool, m.machine, m.now);
      }
      return Status::kOk;
    }
    case MutationKind::kTimer:
      // A reclaimed slot means the job this timer was armed for is gone
      // (and its id may even be reused — the generation floor on reuse
      // would catch that too, but an unknown id must not reach jobs_.at()).
      if (!core_.jobs().Contains(m.job)) return Status::kUnknownJob;
      switch (m.timer) {
        case TimerKind::kCompletion:
          core_.Complete(m.job, m.stamp, m.now);
          break;
        case TimerKind::kWaitTimeout:
          core_.OnWaitTimeout(m.job, m.stamp, m.now);
          break;
        case TimerKind::kDelivery:
          core_.DeliverRestart(m.job, m.stamp, m.pool, m.now);
          break;
      }
      return Status::kOk;
    case MutationKind::kDrain:
      draining_->store(true, std::memory_order_release);
      return Status::kOk;
    case MutationKind::kReclaim: {
      // Erase in order, so slot reuse (and the generation floors it seeds)
      // advances exactly as it did live; keep only what was erased.
      std::size_t kept = 0;
      for (const JobId id : m.reclaimed) {
        if (Reclaim(id)) m.reclaimed[kept++] = id;
      }
      m.reclaimed.resize(kept);
      return kept > 0 ? Status::kOk : Status::kUnknownJob;
    }
  }
  return Status::kBadRequest;
}

Status ShardLoop::Commit(ShardMutation& m, std::uint64_t arrival_ns) {
  const Status status = Apply(m, arrival_ns);
  // Only what changed the core is logged: replay mirrors the applied
  // sequence, not the request stream.
  if (wal_ != nullptr && status == Status::kOk) Log(m);
  return status;
}

void ShardLoop::Log(const ShardMutation& m) {
  if (m.kind == MutationKind::kReclaim &&
      m.reclaimed.size() > kReclaimIdsPerRecord) {
    ShardMutation part;
    part.kind = MutationKind::kReclaim;
    part.now = m.now;
    for (std::size_t base = 0; base < m.reclaimed.size();
         base += kReclaimIdsPerRecord) {
      const std::size_t end =
          std::min(base + kReclaimIdsPerRecord, m.reclaimed.size());
      part.reclaimed.assign(m.reclaimed.begin() + base,
                            m.reclaimed.begin() + end);
      Log(part);
    }
    return;
  }
  wal_payload_.clear();
  WireWriter w(wal_payload_);
  w.I64(m.now);
  switch (m.kind) {
    case MutationKind::kSubmit:
      // Apply moved the spec into the core; log it from there, as admitted.
      EncodeJobSpec(core_.jobs().at(m.job).spec(), wal_payload_);
      break;
    case MutationKind::kJobOp:
      w.U16(m.opcode);
      w.U64(m.job.value());
      break;
    case MutationKind::kMachineOp:
      w.U16(m.opcode);
      w.U32(m.pool.value());
      w.U32(m.machine.value());
      break;
    case MutationKind::kTimer:
      w.U16(static_cast<std::uint16_t>(m.timer));
      w.U64(m.job.value());
      w.U64(m.stamp);
      w.U32(m.pool.value());
      break;
    case MutationKind::kDrain:
      break;
    case MutationKind::kReclaim:
      w.U32(static_cast<std::uint32_t>(m.reclaimed.size()));
      for (const JobId id : m.reclaimed) w.U64(id.value());
      break;
  }
  wal_->Append(static_cast<std::uint16_t>(m.kind), wal_payload_);
}

bool ShardLoop::DecodeMutation(const persist::WalRecord& record,
                               ShardMutation& m) {
  WireReader r(record.payload);
  m.kind = static_cast<MutationKind>(record.type);
  m.now = r.I64();
  bool ok = false;
  switch (m.kind) {
    case MutationKind::kSubmit:
      ok = record.payload.size() >= 8 &&
           DecodeJobSpec(std::vector<std::uint8_t>(record.payload.begin() + 8,
                                                   record.payload.end()),
                         m.spec);
      m.job = m.spec.id;
      break;
    case MutationKind::kJobOp:
      m.opcode = r.U16();
      m.job = JobId(static_cast<JobId::ValueType>(r.U64()));
      ok = r.exhausted();
      break;
    case MutationKind::kMachineOp:
      m.opcode = r.U16();
      m.pool = PoolId(r.U32());
      m.machine = MachineId(r.U32());
      ok = r.exhausted();
      break;
    case MutationKind::kTimer:
      m.timer = static_cast<TimerKind>(r.U16());
      m.job = JobId(static_cast<JobId::ValueType>(r.U64()));
      m.stamp = r.U64();
      m.pool = PoolId(r.U32());
      ok = r.exhausted();
      break;
    case MutationKind::kDrain:
      ok = r.ok();
      break;
    case MutationKind::kReclaim: {
      const std::uint32_t count = r.U32();
      for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
        m.reclaimed.emplace_back(static_cast<JobId::ValueType>(r.U64()));
      }
      ok = r.exhausted();
      break;
    }
    default:
      NETBATCH_LOG(kWarn) << "WAL " << record.lsn << ": unknown record type "
                          << record.type;
      return false;
  }
  if (!ok) {
    NETBATCH_LOG(kWarn) << "WAL " << record.lsn << ": malformed record type "
                        << record.type;
  }
  return ok;
}

bool ShardLoop::Reclaim(JobId id) {
  if (!core_.jobs().Contains(id) || !IsTerminal(core_.jobs().at(id).state())) {
    return false;
  }
  directory_->EraseIfOwner(id, options_.shard_index);
  core_.jobs().Erase(id);
  return true;
}

// --- recovery & checkpoints -------------------------------------------------

void ShardLoop::RecoverFromDisk() {
  const std::uint64_t start_ns = WallNanos();
  ValidateShardMeta();
  persist::RecoveryPlan plan = persist::BuildRecoveryPlan(options_.data_dir);
  if (plan.truncated) {
    NETBATCH_LOG(kWarn) << "shard " << options_.shard_index
                        << ": WAL truncated during recovery: " << plan.reason;
  }

  // Fast-forward the tick clock past every persisted stamp before touching
  // the core: elapsed-time settlements inside it require time to only move
  // forward, and replay feeds it pre-crash stamps.
  std::vector<Timer> rearm;  // `due` relative to the checkpoint until import
  std::vector<std::uint8_t> core_payload;
  bool restore_draining = false;
  if (plan.snapshot.has_value()) {
    WireReader r(plan.snapshot->payload);
    NETBATCH_CHECK(r.U32() == kSnapshotWrapperVersion,
                   "snapshot wrapper version mismatch");
    NETBATCH_CHECK(r.U32() == options_.shard_index &&
                       r.U32() == options_.shard_count,
                   "snapshot belongs to a different shard topology");
    restore_draining = r.U32() != 0;
    tick_offset_ = std::max(tick_offset_, r.I64());
    const std::uint32_t timer_count = r.U32();
    NETBATCH_CHECK(r.ok(), "snapshot wrapper truncated");
    rearm.reserve(timer_count);
    for (std::uint32_t i = 0; i < timer_count; ++i) {
      Timer t;
      t.kind = static_cast<TimerKind>(r.U16());
      t.job = JobId(static_cast<JobId::ValueType>(r.U64()));
      t.stamp = r.U64();
      t.pool = PoolId(r.U32());
      t.due = r.I64();
      rearm.push_back(t);
    }
    const std::uint32_t core_len = r.U32();
    NETBATCH_CHECK(r.ok(), "snapshot wrapper truncated");
    r.Bytes(core_len, core_payload);
    NETBATCH_CHECK(r.exhausted(), "snapshot wrapper has trailing bytes");
  }
  // Each record's stamp is taken just before it is appended, from a clock
  // that recovery always resumes past the newest persisted stamp, so the
  // log's stamps never decrease and its last record carries the newest.
  if (!plan.tail.empty()) {
    ShardMutation last;
    if (DecodeMutation(plan.tail.back(), last)) {
      tick_offset_ = std::max(tick_offset_, last.now);
    }
  }

  if (plan.snapshot.has_value()) {
    // The snapshot passed its CRC, so a failed import is a codec bug, not
    // disk damage — crash rather than serve an empty cluster.
    NETBATCH_CHECK(core_.ImportState(core_payload),
                   "snapshot payload failed to import");
    if (restore_draining) {
      draining_->store(true, std::memory_order_release);
    }
    const Ticks now = NowTicks();
    for (Timer& t : rearm) {
      if (!core_.jobs().Contains(t.job)) continue;
      t.due += now;
      t.seq = next_timer_seq_++;
      timers_.push_back(t);
      std::push_heap(timers_.begin(), timers_.end(), TimerLater{});
    }
  }

  for (const persist::WalRecord& record : plan.tail) {
    ShardMutation m;
    if (!DecodeMutation(record, m)) continue;
    // A no-op on any log this daemon writes (see above); it only keeps the
    // core's clock monotonic should a log ever break that order.
    tick_offset_ = std::max(tick_offset_, m.now);
    // Only mutations that applied were logged, so anything else means the
    // replayed state has drifted from the live run's.
    const Status status = Apply(m);
    if (status != Status::kOk) {
      NETBATCH_LOG(kWarn) << "WAL " << record.lsn << ": record type "
                          << record.type << " did not apply (status "
                          << static_cast<std::uint32_t>(status) << ")";
    }
  }
  // Live, a waiting job has one wait-timeout pending: the timer that fired
  // is popped before OnWaitTimeout re-arms it with the same stamp. Replay
  // re-arms one for every logged firing without popping the one before, so
  // keep one per (job, stamp) — or each restart multiplies them.
  std::set<std::pair<JobId::ValueType, std::uint64_t>> waiting;
  std::erase_if(timers_, [&waiting](const Timer& t) {
    return t.kind == TimerKind::kWaitTimeout &&
           !waiting.emplace(t.job.value(), t.stamp).second;
  });
  std::make_heap(timers_.begin(), timers_.end(), TimerLater{});

  // Re-register the surviving jobs in the shared directory (each shard
  // recovers its own; the directory stripes its locks, so concurrent
  // recovery is safe). Internal duplicates were never registered; terminal
  // jobs are queued for the normal reclaim path instead.
  std::size_t restored = 0;
  for (const cluster::Job job : core_.jobs()) {
    const JobId id = job.id();
    if (!core_.jobs().Contains(id) || core_.jobs().at(id).slot() != job.slot()) {
      continue;
    }
    ++restored;
    if (IsTerminal(job.state())) {
      reclaim_queue_.push_back(id);
      continue;
    }
    if (!job.is_duplicate()) directory_->TryInsert(id, options_.shard_index);
  }

  persist::WalOptions wal_options;
  wal_options.next_lsn = plan.next_lsn;
  wal_options.fsync_every = options_.fsync_every;
  wal_options.fsync_interval_ms = options_.fsync_interval_ms;
  std::string error;
  wal_ = persist::WalWriter::Open(options_.data_dir, wal_options, &error);
  NETBATCH_CHECK(wal_ != nullptr, "failed to open WAL: " + error);

  if (options_.checkpoint_every_ticks > 0) {
    next_checkpoint_due_ = NowTicks() + options_.checkpoint_every_ticks;
  }
  wal_bytes_gauge_->Set(0);
  wal_records_gauge_->Set(0);
  recovery_ms_gauge_->Set(
      static_cast<std::int64_t>((WallNanos() - start_ns) / 1'000'000ull));
  if (plan.snapshot.has_value() || !plan.tail.empty()) {
    NETBATCH_LOG(kInfo) << "shard " << options_.shard_index << ": recovered "
                        << restored << " jobs (snapshot lsn "
                        << (plan.snapshot ? plan.snapshot->lsn : 0)
                        << ", replayed " << plan.tail.size()
                        << " records, next lsn " << plan.next_lsn << ")";
  }
}

void ShardLoop::DoLocalCheckpoint() {
  // Nothing in the current WAL batch may outrun the snapshot that claims
  // to cover it.
  wal_->Sync();
  const std::uint64_t lsn = wal_->last_lsn();
  const Ticks now = NowTicks();

  persist::SnapshotData snap;
  snap.lsn = lsn;
  WireWriter w(snap.payload);
  w.U32(kSnapshotWrapperVersion);
  w.U32(options_.shard_index);
  w.U32(options_.shard_count);
  w.U32(draining_->load(std::memory_order_acquire) ? 1 : 0);
  w.I64(now);

  // Pending host timers, minus the lazily-cancelled ones (dead job or
  // stale generation), as relative deadlines sorted canonically.
  std::vector<Timer> live;
  for (const Timer& t : timers_) {
    if (!core_.jobs().Contains(t.job)) continue;
    if (!core_.jobs().at(t.job).GenerationIs(t.stamp)) continue;
    live.push_back(t);
  }
  std::sort(live.begin(), live.end(), [](const Timer& a, const Timer& b) {
    return a.due != b.due ? a.due < b.due : a.seq < b.seq;
  });
  w.U32(static_cast<std::uint32_t>(live.size()));
  for (const Timer& t : live) {
    WireWriter tw(snap.payload);
    tw.U16(static_cast<std::uint16_t>(t.kind));
    tw.U64(t.job.value());
    tw.U64(t.stamp);
    tw.U32(t.pool.value());
    tw.I64(std::max<Ticks>(0, t.due - now));
  }

  std::vector<std::uint8_t> core_payload;
  core_.ExportState(core_payload);
  WireWriter(snap.payload).U32(static_cast<std::uint32_t>(core_payload.size()));
  snap.payload.insert(snap.payload.end(), core_payload.begin(),
                      core_payload.end());

  std::string error;
  NETBATCH_CHECK(persist::WriteSnapshot(options_.data_dir, snap, &error),
                 "checkpoint write failed: " + error);
  wal_->StartSegmentAndTruncate(lsn);
  persist::DeleteSnapshotsBelow(options_.data_dir, lsn);
  wal_bytes_gauge_->Set(static_cast<std::int64_t>(wal_->bytes_appended()));
  wal_records_gauge_->Set(
      static_cast<std::int64_t>(wal_->records_appended()));
}

}  // namespace netbatch::service
