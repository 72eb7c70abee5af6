// Durability benchmarks: WAL append throughput under the three fsync
// regimes (never / batched / every-record), snapshot write + load,
// SchedulerCore state export/import at 100k live jobs, and the
// recovery-plan scan rate over a long WAL.
//
// The end-to-end numbers (daemon throughput with --data-dir on vs off, and
// wall-clock recovery of a SIGKILLed daemon) come from perfbench's
// serve-durable workload (python3 perfbench/run.py --workload serve-durable) —
// this binary measures the layers in isolation so regressions can be
// attributed.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "cluster/config.h"
#include "common/check.h"
#include "common/time.h"
#include "core/policies.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "sched/round_robin.h"
#include "service/scheduler_core.h"

using namespace netbatch;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The daemon arms real timers through its host; for a pure state benchmark
// deferred work can be dropped — nothing here advances time.
struct NullHost : sched::CoreHost {
  void ArmCompletion(cluster::Job, Ticks) override {}
  void CancelCompletion(cluster::Job) override {}
  void ArmWaitTimeout(cluster::Job, Ticks) override {}
  void ScheduleRestartDelivery(cluster::Job, PoolId, Ticks) override {}
  void OnJobTerminal(const cluster::Job&) override {}
};

cluster::ClusterConfig BenchCluster(std::uint32_t pools,
                                    std::int32_t machines_per_pool,
                                    std::int32_t cores_per_machine) {
  cluster::ClusterConfig config;
  for (std::uint32_t p = 0; p < pools; ++p) {
    cluster::MachineGroupConfig group;
    group.count = machines_per_pool;
    group.cores = cores_per_machine;
    group.memory_mb = 1 << 20;
    cluster::PoolConfig pool;
    pool.machine_groups.push_back(group);
    config.pools.push_back(pool);
  }
  return config;
}

class BenchDir {
 public:
  explicit BenchDir(const std::string& name)
      : path_("/tmp/nb_bench_persist_" + name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~BenchDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Models the serving loop: Append per record, Flush per ack batch. The
// fsync triggers fire (or not) at those flush boundaries exactly as they
// would in the daemon.
void BenchWalAppend(const char* label, std::uint32_t fsync_every,
                    std::uint32_t fsync_interval_ms, std::size_t records,
                    std::size_t batch, std::size_t payload_bytes) {
  BenchDir dir(std::string("wal_") + label);
  persist::WalOptions options;
  options.fsync_every = fsync_every;
  options.fsync_interval_ms = fsync_interval_ms;
  std::string error;
  auto wal = persist::WalWriter::Open(dir.path(), options, &error);
  NETBATCH_CHECK(wal != nullptr, error);

  const std::vector<std::uint8_t> payload(payload_bytes, 0x5a);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < records; ++i) {
    wal->Append(1, payload);
    if ((i + 1) % batch == 0) wal->Flush();
  }
  wal->Sync();
  const double seconds = SecondsSince(start);
  std::printf(
      "wal_append %s (fsync_every=%u interval_ms=%u batch=%zu): "
      "%zu records x %zuB in %.3fs -> %.0f records/s, %.1f MB/s\n",
      label, fsync_every, fsync_interval_ms, batch, records, payload_bytes,
      seconds, static_cast<double>(records) / seconds,
      static_cast<double>(wal->bytes_appended()) / seconds / 1e6);
}

}  // namespace

int main() {
  // --- WAL append throughput ----------------------------------------------
  // 96B payloads match the daemon's submit records (I64 now + JobSpec);
  // batch=256 records per Flush approximates one poll round of acks.
  BenchWalAppend("never", 0, 0, 200'000, 256, 96);
  BenchWalAppend("default_250ms", 0, 250, 200'000, 256, 96);
  BenchWalAppend("every_batch", 1, 0, 20'000, 256, 96);
  BenchWalAppend("strict_per_record", 1, 0, 2'000, 1, 96);

  // --- core export/import at 100k live jobs -------------------------------
  constexpr std::size_t kJobs = 100'000;
  const cluster::ClusterConfig config = BenchCluster(20, 1000, 8);
  sched::RoundRobinScheduler scheduler_a;
  core::PolicyOptions policy_options;
  auto policy_a = core::MakePolicy(core::PolicyKind::kNoRes, policy_options);
  NullHost host;
  sched::SchedulerCore core_a(config, scheduler_a, *policy_a, host);
  core_a.ReserveJobs(kJobs);
  {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t j = 0; j < kJobs; ++j) {
      workload::JobSpec spec;
      spec.id = JobId(static_cast<JobId::ValueType>(j + 1));
      spec.cores = 1;
      spec.memory_mb = 512;
      spec.runtime = MinutesToTicks(600);
      core_a.AdmitJob(std::move(spec));
      core_a.Submit(JobId(static_cast<JobId::ValueType>(j + 1)), 0);
    }
    std::printf("core_fill: %zu submits in %.3fs\n", kJobs,
                SecondsSince(start));
  }

  std::vector<std::uint8_t> payload;
  {
    const auto start = std::chrono::steady_clock::now();
    core_a.ExportState(payload);
    std::printf("core_export: %zu jobs -> %.1f MB in %.3fs\n", kJobs,
                static_cast<double>(payload.size()) / 1e6,
                SecondsSince(start));
  }

  BenchDir snap_dir("snapshot");
  {
    persist::SnapshotData snap;
    snap.lsn = kJobs;
    snap.payload = payload;
    std::string error;
    const auto start = std::chrono::steady_clock::now();
    NETBATCH_CHECK(persist::WriteSnapshot(snap_dir.path(), snap, &error),
                   error);
    std::printf("snapshot_write: %.1f MB in %.3fs (fsync'd, atomic rename)\n",
                static_cast<double>(payload.size()) / 1e6,
                SecondsSince(start));
  }
  {
    const auto start = std::chrono::steady_clock::now();
    const auto loaded = persist::LoadNewestSnapshot(snap_dir.path());
    NETBATCH_CHECK(loaded.has_value(), "snapshot load failed");
    std::printf("snapshot_load: %.1f MB in %.3fs (CRC-verified)\n",
                static_cast<double>(loaded->payload.size()) / 1e6,
                SecondsSince(start));
  }

  {
    sched::RoundRobinScheduler scheduler_b;
    auto policy_b = core::MakePolicy(core::PolicyKind::kNoRes, policy_options);
    sched::SchedulerCore core_b(config, scheduler_b, *policy_b, host);
    const auto start = std::chrono::steady_clock::now();
    NETBATCH_CHECK(core_b.ImportState(payload), "import failed");
    const double seconds = SecondsSince(start);
    std::vector<std::uint8_t> reexported;
    core_b.ExportState(reexported);
    NETBATCH_CHECK(reexported == payload, "roundtrip not byte-identical");
    std::printf("core_import: %zu jobs in %.3fs (re-export byte-identical)\n",
                kJobs, seconds);
  }

  // --- recovery-plan scan over a long WAL ---------------------------------
  {
    BenchDir dir("recovery_scan");
    persist::WalOptions options;
    options.fsync_every = 0;
    std::string error;
    auto wal = persist::WalWriter::Open(dir.path(), options, &error);
    NETBATCH_CHECK(wal != nullptr, error);
    const std::vector<std::uint8_t> record(96, 0x5a);
    constexpr std::size_t kRecords = 200'000;
    for (std::size_t i = 0; i < kRecords; ++i) wal->Append(1, record);
    wal->Sync();
    wal.reset();
    const auto start = std::chrono::steady_clock::now();
    const persist::RecoveryPlan plan = persist::BuildRecoveryPlan(dir.path());
    const double seconds = SecondsSince(start);
    NETBATCH_CHECK(plan.tail.size() == kRecords, "scan lost records");
    std::printf(
        "recovery_plan_scan: %zu records CRC-validated in %.3fs -> "
        "%.0f records/s\n",
        kRecords, seconds, static_cast<double>(kRecords) / seconds);
  }

  return 0;
}
