// netbatchd: the placement engine served over unix-domain and TCP sockets.
//
// The daemon is an acceptor in front of N event-loop shards
// (service/shard_loop.h). Each shard owns one thread, one epoll instance,
// its own timers and sessions, and a sched::SchedulerCore over an
// interleaved slice of the pools (global pool g -> shard g % N); accepted
// connections are dealt round-robin, and requests whose target pool or job
// lives elsewhere hop shards over lock-free mailboxes. With --threads=1 the
// whole arrangement degenerates to the original single-threaded daemon —
// no forwarding, gathers with no peers, identical decisions.
//
// Time: one simulated tick is one trace second. `time_scale` maps ticks to
// wall time as ticks-per-wall-second, so 1000 replays a trace at 1000x real
// time. All shards share one clock origin, so ticks are comparable across
// shards. Timers are generation-stamped like simulator events: a job that
// transitioned before its timer fires invalidates it (the stamp no longer
// matches), so cancellation is lazy and O(1).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/config.h"
#include "cluster/interfaces.h"
#include "common/histogram.h"
#include "service/job_directory.h"
#include "service/shard_loop.h"

namespace netbatch::service {

struct DaemonOptions {
  // Unix listener path; empty disables the unix listener.
  std::string socket_path;
  // TCP listener; port 0 binds an ephemeral port (see tcp_port()).
  bool tcp = false;
  std::uint16_t tcp_port = 0;
  // Event-loop shards. Effective shard count is min(threads, pool count)
  // so every shard owns at least one pool.
  std::uint32_t threads = 1;
  // Simulated ticks per wall-clock second; higher = faster replay.
  std::int64_t time_scale = 1000;
  // When set the daemon completes running jobs itself after their spec
  // runtime (scaled); otherwise clients drive completion via kComplete.
  bool auto_complete = true;
  std::uint32_t max_payload = kMaxPayloadBytes;
  // Per-session unsent-output cap; a reader that falls further behind than
  // this is dropped instead of growing the heap. 0 = unlimited.
  std::size_t max_session_pending = 4u << 20;
  // Durability root. When set, shard s logs and checkpoints under
  // <data_dir>/shard-<s> (created on construction) and recovers from it on
  // start. Empty = in-memory only, exactly the pre-durability daemon.
  std::string data_dir;
  // Group-commit fdatasync triggers (persist/wal.h): record-count trigger
  // (1 = sync every ack batch, 0 = off) and time trigger in ms (0 = off).
  // The defaults cost ~4 fdatasyncs/s/shard and bound the power-loss
  // window to ~250ms; SIGKILL durability never depends on either.
  std::uint32_t fsync_every = 0;
  std::uint32_t fsync_interval_ms = 250;
  // Ticks between automatic per-shard checkpoints; 0 = only on
  // kCheckpoint / kDrain requests.
  std::int64_t checkpoint_every_ticks = 0;
};

// One shard's private scheduler/policy instances. Policies carry RNG state,
// so shards cannot share them; the factory builds one stack per shard
// (typically with per-shard seeds).
struct ShardStack {
  std::unique_ptr<cluster::InitialScheduler> scheduler;
  std::unique_ptr<cluster::ReschedulingPolicy> policy;
};
using ShardStackFactory = std::function<ShardStack(std::uint32_t shard)>;

class Daemon {
 public:
  // Binds the listeners immediately (so tcp_port() is valid before Run —
  // tests bind port 0 and read the kernel's choice) and builds the shards.
  Daemon(const cluster::ClusterConfig& config, ShardStackFactory factory,
         DaemonOptions options, sched::CoreOptions core_options = {});
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Serves until `*stop` turns true (typically flipped by a SIGTERM
  // handler). With a data dir, accepts nothing until every shard has
  // recovered. Closes every session and unlinks the socket on exit. A kDrain
  // request closes the listeners early; existing sessions keep being served
  // until stop.
  void Run(const std::atomic<bool>& stop);

  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  // The TCP listener's bound port (the kernel's choice when tcp_port was 0).
  std::uint16_t tcp_port() const { return tcp_port_; }

  // Shard access for tests and post-run reporting. Only safe while the
  // shards are quiescent (before Run or after it returns).
  ShardLoop& shard(std::uint32_t index) { return *shards_[index]; }

  // Server-side admission-to-placement latency (nanoseconds, wall clock):
  // from the submit frame's arrival to the job's start transition —
  // including pool-queue wait for jobs that could not start immediately.
  // Merged across shards; valid after Run returns.
  const LatencyHistogram& placement_latency() const {
    return placement_latency_;
  }

 private:
  DaemonOptions options_;
  JobDirectory directory_;
  std::atomic<bool> draining_{false};
  std::vector<ShardStack> stacks_;
  std::vector<std::unique_ptr<ShardLoop>> shards_;

  int unix_listener_ = -1;
  int tcp_listener_ = -1;
  std::uint16_t tcp_port_ = 0;

  LatencyHistogram placement_latency_;
};

}  // namespace netbatch::service
