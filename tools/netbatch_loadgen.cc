// netbatch_loadgen — replay a workload against a running netbatchd.
//
// Opens N concurrent sessions (unix-domain or TCP), shards the trace across
// them, and submits each job over the binary protocol — either paced
// against the trace's submit times (--speed=100 replays at 100x real time)
// or as fast as the daemon will take them (--speed=0, pipelining up to
// --window requests per session). Responses are matched to requests by
// request_id — a sharded daemon reorders responses when a submit hops to
// another event-loop shard. Reports client-observed submit round-trip
// latency (p50 / p99 / p999 via the log-bucketed LatencyHistogram,
// losslessly merged across sessions) plus the daemon's own
// admission-to-placement histogram from its stats endpoint.
//
// --drill runs a live outage during the replay: a side session fails a
// machine (kFailMachine), holds the outage, then repairs it
// (kRepairMachine) — the serving twin of the simulator's failure injection.
//
// Examples:
//   # Replay the normal workload at 1000x from 4 sessions:
//   netbatch_loadgen --socket=/tmp/nb.sock --scenario=normal --speed=1000
//       --sessions=4
//
//   # Throughput firehose against a 4-shard daemon:
//   netbatch_loadgen --tcp=127.0.0.1:7077 --scenario=bigpool --speed=0
//       --sessions=8 --window=64 --json-out=bench.json
//
//   # Replay with a 2-second outage of machine 3 in pool 1:
//   netbatch_loadgen --socket=/tmp/nb.sock --drill=1:3:2000
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "net/socket.h"
#include "netbatch.h"

using namespace netbatch;

namespace {

constexpr const char* kUsage = R"(netbatch_loadgen — netbatchd load generator

  --socket=<path>              daemon unix socket (this or --tcp required)
  --tcp=<host:port>            connect over TCP instead of the unix socket
  --drill=<pool>:<machine>:<hold_ms>
                               run a live outage drill during the replay:
                               fail the machine, hold, then repair it
  --scenario=<name|preset.ini> workload to replay: scenario preset name or
                               a calibrated workload preset file
                               (default normal); must match the cluster
                               netbatchd was started with
  --trace-in=<file.csv>        replay a saved trace instead of generating
  --scale=<0..1>               workload scale (default 0.25)
  --seed=<n>                   workload seed (default 42)
  --jobs=<n>                   cap the number of jobs submitted (default
                               all)
  --sessions=<n>               concurrent client sessions (default 4)
  --speed=<n>                  replay speed vs. the trace's submit times:
                               1 = real time, 1000 = 1000x; 0 = submit as
                               fast as possible (default 1000)
  --window=<n>                 max in-flight requests per session when
                               --speed=0 (default 64)
  --json-out=<file>            write a machine-readable result summary
  --acked-out=<file>           crash-drill mode: append every acked submit's
                               request_id (one per line, flushed per ack)
                               and tolerate the daemon dying mid-run — the
                               file is the acked prefix a restarted daemon
                               must still know
  --verify-acked=<file>        query-only mode: read request_ids from the
                               file, kQueryJob each against the daemon, and
                               exit nonzero if any is unknown or listed
                               twice (no jobs are submitted)
)";

std::uint64_t WallNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Returns false when the peer is gone (crash-drill sessions tolerate that;
// everything else treats it as fatal).
bool SendAll(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

// Serialized sink for --acked-out: one decimal request_id per line, flushed
// before the ack is counted, so the file never claims an ack that was not
// fully received.
struct AckedLog {
  std::mutex mu;
  std::ofstream out;
};

// Per-session tallies, merged after the workers join.
struct SessionResult {
  LatencyHistogram rtt;  // submit round-trip, nanoseconds
  std::uint64_t ok = 0;
  std::uint64_t queued = 0;
  std::uint64_t rejected = 0;
  std::uint64_t other = 0;
};

struct LoadConfig {
  std::string socket_path;  // empty when connecting over TCP
  std::string tcp_host;
  std::uint16_t tcp_port = 0;
  double speed = 1000;   // 0 = unthrottled
  std::size_t window = 64;
  // Crash-drill hooks (--acked-out): record acks, survive the daemon dying.
  AckedLog* acked_log = nullptr;
  bool tolerate_close = false;
};

int Connect(const LoadConfig& config) {
  if (!config.tcp_host.empty()) {
    return net::ConnectTcp(config.tcp_host, config.tcp_port);
  }
  return net::ConnectUnix(config.socket_path);
}

void CountStatus(service::Status status, SessionResult& result) {
  switch (status) {
    case service::Status::kOk:
      ++result.ok;
      break;
    case service::Status::kQueued:
      ++result.queued;
      break;
    case service::Status::kRejected:
      ++result.rejected;
      break;
    default:
      ++result.other;
      break;
  }
}

// One session: submit every job in `shard` in order, tracking round-trip
// latency per request. Responses are matched by request_id — a sharded
// daemon answers cross-shard submits out of order relative to shard-local
// ones, so arrival order carries no meaning.
void RunSession(const LoadConfig& config,
                const std::vector<const workload::JobSpec*>& shard,
                std::uint64_t origin_ns, SessionResult& result) {
  const int fd = Connect(config);
  NETBATCH_CHECK(fd >= 0, "cannot connect to netbatchd");

  service::FrameDecoder decoder;
  std::vector<service::Frame> frames;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> frame_buf;
  std::uint8_t read_buf[1 << 16];
  // request_id -> send time for every in-flight submit.
  std::unordered_map<std::uint64_t, std::uint64_t> in_flight;
  const std::size_t window = config.speed > 0 ? 1 : config.window;

  std::size_t next = 0;
  std::size_t received = 0;
  while (received < shard.size()) {
    // Fill the window, pacing against the trace clock when throttled.
    while (next < shard.size() && in_flight.size() < window) {
      const workload::JobSpec& spec = *shard[next];
      if (config.speed > 0) {
        const auto due_ns = static_cast<std::uint64_t>(
            static_cast<double>(spec.submit_time) * 1e9 / config.speed);
        while (WallNanos() - origin_ns < due_ns) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
      payload.clear();
      service::EncodeJobSpec(spec, payload);
      frame_buf.clear();
      service::EncodeFrame(
          static_cast<std::uint16_t>(service::Opcode::kSubmit),
          /*request_id=*/spec.id.value(), payload, frame_buf);
      in_flight.emplace(spec.id.value(), WallNanos());
      if (!SendAll(fd, frame_buf.data(), frame_buf.size())) {
        NETBATCH_CHECK(config.tolerate_close,
                       "send to netbatchd failed mid-run");
        ::close(fd);
        return;  // crash drill: the acked prefix is already on disk
      }
      ++next;
    }

    // Drain at least one response.
    const ssize_t n = ::recv(fd, read_buf, sizeof(read_buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      NETBATCH_CHECK(config.tolerate_close,
                     "netbatchd closed the session mid-run");
      ::close(fd);
      return;
    }
    NETBATCH_CHECK(
        decoder.Feed(read_buf, static_cast<std::size_t>(n), frames),
        "protocol error from netbatchd: " + decoder.error());
    const std::uint64_t now_ns = WallNanos();
    for (const service::Frame& frame : frames) {
      const auto it = in_flight.find(frame.header.request_id);
      NETBATCH_CHECK(it != in_flight.end(),
                     "response for a request that is not in flight");
      result.rtt.Record(now_ns - it->second);
      in_flight.erase(it);
      ++received;
      service::SubmitResponse response;
      NETBATCH_CHECK(service::DecodeSubmitResponse(frame.payload, response),
                     "malformed submit response");
      // Record the ack before counting it: only ids whose job survives on
      // the daemon (placed or queued) are part of the recovery contract.
      if (config.acked_log != nullptr &&
          (response.status == service::Status::kOk ||
           response.status == service::Status::kQueued)) {
        std::lock_guard<std::mutex> lock(config.acked_log->mu);
        config.acked_log->out << frame.header.request_id << '\n';
        config.acked_log->out.flush();
      }
      CountStatus(response.status, result);
    }
    frames.clear();
  }
  ::close(fd);
}

// --verify-acked: replay the acked-id file as kQueryJob probes. Every id
// must be known to the daemon and listed exactly once — the client half of
// the crash-recovery contract.
int VerifyAcked(const LoadConfig& config, const std::string& path) {
  std::ifstream in(path);
  NETBATCH_CHECK(static_cast<bool>(in), "cannot open --verify-acked file");
  std::vector<std::uint64_t> ids;
  std::unordered_set<std::uint64_t> seen;
  std::uint64_t duplicate_lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::uint64_t id = std::stoull(line);
    if (!seen.insert(id).second) {
      ++duplicate_lines;
      continue;
    }
    ids.push_back(id);
  }

  const int fd = Connect(config);
  NETBATCH_CHECK(fd >= 0, "cannot connect to netbatchd");
  service::FrameDecoder decoder;
  std::vector<service::Frame> frames;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> frame_buf;
  std::uint8_t read_buf[1 << 16];
  std::size_t next = 0;
  std::size_t received = 0;
  std::uint64_t unknown = 0;
  while (received < ids.size()) {
    while (next < ids.size() && next - received < config.window) {
      payload.clear();
      service::WireWriter(payload).U64(ids[next]);
      frame_buf.clear();
      service::EncodeFrame(static_cast<std::uint16_t>(service::Opcode::kQueryJob),
                           /*request_id=*/ids[next], payload, frame_buf);
      NETBATCH_CHECK(SendAll(fd, frame_buf.data(), frame_buf.size()),
                     "send to netbatchd failed");
      ++next;
    }
    const ssize_t n = ::recv(fd, read_buf, sizeof(read_buf), 0);
    if (n < 0 && errno == EINTR) continue;
    NETBATCH_CHECK(n > 0, "netbatchd closed the verify session");
    NETBATCH_CHECK(decoder.Feed(read_buf, static_cast<std::size_t>(n), frames),
                   "protocol error from netbatchd: " + decoder.error());
    for (const service::Frame& frame : frames) {
      service::WireReader r(frame.payload);
      const auto status = static_cast<service::Status>(r.U32());
      if (status == service::Status::kUnknownJob) {
        std::printf("verify: job %llu unknown after restart\n",
                    static_cast<unsigned long long>(frame.header.request_id));
        ++unknown;
      }
      ++received;
    }
    frames.clear();
  }
  ::close(fd);
  std::printf("verify: %zu acked ids, %llu unknown, %llu duplicate lines\n",
              ids.size(), static_cast<unsigned long long>(unknown),
              static_cast<unsigned long long>(duplicate_lines));
  return (unknown == 0 && duplicate_lines == 0) ? 0 : 1;
}

// Sends one status-style request (kFailMachine / kRepairMachine / kDrain)
// on `fd` and returns the response status.
service::Status RoundTripStatus(int fd, service::Opcode opcode,
                                const std::vector<std::uint8_t>& payload,
                                std::uint64_t request_id) {
  std::vector<std::uint8_t> frame_buf;
  service::EncodeFrame(static_cast<std::uint16_t>(opcode), request_id, payload,
                       frame_buf);
  SendAll(fd, frame_buf.data(), frame_buf.size());
  service::FrameDecoder decoder;
  std::vector<service::Frame> frames;
  std::uint8_t read_buf[4096];
  while (frames.empty()) {
    const ssize_t n = ::recv(fd, read_buf, sizeof(read_buf), 0);
    if (n < 0 && errno == EINTR) continue;
    NETBATCH_CHECK(n > 0, "netbatchd closed the drill session");
    NETBATCH_CHECK(decoder.Feed(read_buf, static_cast<std::size_t>(n), frames),
                   "protocol error from netbatchd: " + decoder.error());
  }
  service::WireReader r(frames.front().payload);
  return static_cast<service::Status>(r.U32());
}

// The outage drill: fail a machine, hold the outage, repair it. Runs
// concurrently with the replay sessions, exercising the daemon's
// kFailMachine eviction/requeue path and the repair-triggered restarts.
void RunDrill(const LoadConfig& config, std::uint32_t pool,
              std::uint32_t machine, std::int64_t hold_ms) {
  const int fd = Connect(config);
  NETBATCH_CHECK(fd >= 0, "drill cannot connect to netbatchd");
  std::vector<std::uint8_t> payload;
  service::EncodeMachineOpPayload(pool, machine, payload);
  const service::Status failed =
      RoundTripStatus(fd, service::Opcode::kFailMachine, payload, 1);
  NETBATCH_CHECK(failed == service::Status::kOk,
                 "kFailMachine refused (bad --drill pool/machine?)");
  std::printf("drill: failed pool %u machine %u for %lldms\n", pool, machine,
              static_cast<long long>(hold_ms));
  std::this_thread::sleep_for(std::chrono::milliseconds(hold_ms));
  const service::Status repaired =
      RoundTripStatus(fd, service::Opcode::kRepairMachine, payload, 2);
  NETBATCH_CHECK(repaired == service::Status::kOk, "kRepairMachine refused");
  std::printf("drill: repaired pool %u machine %u\n", pool, machine);
  ::close(fd);
}

// Fetches the daemon's stats rendering (counters + its server-side
// admission-to-placement histogram) over a fresh session.
std::string FetchServerStats(const LoadConfig& config) {
  const int fd = Connect(config);
  if (fd < 0) return "";
  std::vector<std::uint8_t> frame_buf;
  service::EncodeFrame(static_cast<std::uint16_t>(service::Opcode::kStats),
                       /*request_id=*/0, {}, frame_buf);
  SendAll(fd, frame_buf.data(), frame_buf.size());
  service::FrameDecoder decoder;
  std::vector<service::Frame> frames;
  std::uint8_t read_buf[1 << 16];
  while (frames.empty()) {
    const ssize_t n = ::recv(fd, read_buf, sizeof(read_buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    if (!decoder.Feed(read_buf, static_cast<std::size_t>(n), frames)) break;
  }
  ::close(fd);
  if (frames.empty()) return "";
  return std::string(frames.front().payload.begin(),
                     frames.front().payload.end());
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  if (flags.GetBool("help", false)) {
    std::fputs(kUsage, stdout);
    return 0;
  }

  LoadConfig config;
  config.socket_path = flags.GetString("socket", "");
  const std::string tcp = flags.GetString("tcp", "");
  if (!tcp.empty()) {
    const std::size_t colon = tcp.rfind(':');
    NETBATCH_CHECK(colon != std::string::npos && colon > 0,
                   "--tcp must be host:port");
    config.tcp_host = tcp.substr(0, colon);
    const int port = std::stoi(tcp.substr(colon + 1));
    NETBATCH_CHECK(port > 0 && port < 65536, "--tcp port out of range");
    config.tcp_port = static_cast<std::uint16_t>(port);
    config.socket_path.clear();  // TCP wins when both are given
  }
  NETBATCH_CHECK(!config.socket_path.empty() || !config.tcp_host.empty(),
                 "--socket or --tcp is required");
  config.speed = flags.GetDouble("speed", 1000);
  NETBATCH_CHECK(config.speed >= 0, "--speed must be >= 0");
  config.window =
      static_cast<std::size_t>(flags.GetInt("window", 64));
  NETBATCH_CHECK(config.window > 0, "--window must be > 0");
  const auto sessions = static_cast<std::size_t>(flags.GetInt("sessions", 4));
  NETBATCH_CHECK(sessions > 0, "--sessions must be > 0");

  // Query-only mode: verify a previous run's acked ids and exit.
  const std::string verify_acked = flags.GetString("verify-acked", "");
  if (!verify_acked.empty()) {
    const auto unused_verify = flags.UnusedFlags();
    NETBATCH_CHECK(
        unused_verify.empty(),
        "unknown flag --" +
            (unused_verify.empty() ? "" : unused_verify.front()) +
            " (see --help)");
    return VerifyAcked(config, verify_acked);
  }

  AckedLog acked_log;
  const std::string acked_out = flags.GetString("acked-out", "");
  if (!acked_out.empty()) {
    acked_log.out.open(acked_out, std::ios::trunc);
    NETBATCH_CHECK(static_cast<bool>(acked_log.out),
                   "cannot open --acked-out path");
    config.acked_log = &acked_log;
    config.tolerate_close = true;
  }

  workload::Trace trace;
  if (flags.Has("trace-in")) {
    trace = workload::ReadTraceFile(flags.GetString("trace-in", ""));
  } else {
    const runner::Scenario scenario = runner::ResolveScenario(
        flags.GetString("scenario", "normal"), flags.GetDouble("scale", 0.25),
        static_cast<std::uint64_t>(flags.GetInt("seed", 42)));
    trace = workload::GenerateTrace(scenario.workload);
  }
  std::size_t total = trace.size();
  if (flags.Has("jobs")) {
    total = std::min(total,
                     static_cast<std::size_t>(flags.GetInt("jobs", 0)));
  }
  NETBATCH_CHECK(total > 0, "nothing to submit");

  const std::string json_out = flags.GetString("json-out", "");
  const std::string drill = flags.GetString("drill", "");
  std::uint32_t drill_pool = 0;
  std::uint32_t drill_machine = 0;
  std::int64_t drill_hold_ms = 0;
  if (!drill.empty()) {
    const std::size_t c1 = drill.find(':');
    const std::size_t c2 = c1 == std::string::npos
                               ? std::string::npos
                               : drill.find(':', c1 + 1);
    NETBATCH_CHECK(c1 != std::string::npos && c2 != std::string::npos,
                   "--drill must be pool:machine:hold_ms");
    drill_pool = static_cast<std::uint32_t>(std::stoul(drill.substr(0, c1)));
    drill_machine = static_cast<std::uint32_t>(
        std::stoul(drill.substr(c1 + 1, c2 - c1 - 1)));
    drill_hold_ms = std::stoll(drill.substr(c2 + 1));
    NETBATCH_CHECK(drill_hold_ms >= 0, "--drill hold must be >= 0");
  }
  const auto unused = flags.UnusedFlags();
  NETBATCH_CHECK(unused.empty(),
                 "unknown flag --" + (unused.empty() ? "" : unused.front()) +
                     " (see --help)");

  // Shard round-robin so every session sees the trace's arrival pattern.
  std::vector<std::vector<const workload::JobSpec*>> shards(sessions);
  for (std::size_t i = 0; i < total; ++i) {
    shards[i % sessions].push_back(&trace.jobs()[i]);
  }

  std::printf("loadgen: %zu jobs, %zu sessions, %s\n", total, sessions,
              config.speed > 0
                  ? (std::to_string(config.speed) + "x real time").c_str()
                  : ("unthrottled, window " + std::to_string(config.window))
                        .c_str());

  std::vector<SessionResult> results(sessions);
  const std::uint64_t origin_ns = WallNanos();
  std::vector<std::thread> workers;
  workers.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s) {
    workers.emplace_back(RunSession, std::cref(config), std::cref(shards[s]),
                         origin_ns, std::ref(results[s]));
  }
  std::thread drill_worker;
  if (!drill.empty()) {
    drill_worker = std::thread(RunDrill, std::cref(config), drill_pool,
                               drill_machine, drill_hold_ms);
  }
  for (std::thread& worker : workers) worker.join();
  if (drill_worker.joinable()) drill_worker.join();
  const double wall_seconds =
      static_cast<double>(WallNanos() - origin_ns) / 1e9;

  SessionResult merged;
  for (const SessionResult& result : results) {
    merged.rtt.Merge(result.rtt);
    merged.ok += result.ok;
    merged.queued += result.queued;
    merged.rejected += result.rejected;
    merged.other += result.other;
  }
  const double rate =
      wall_seconds > 0 ? static_cast<double>(merged.rtt.count()) / wall_seconds
                       : 0;

  std::printf(
      "submitted %llu jobs in %.2fs (%.0f decisions/s): %llu started, "
      "%llu queued, %llu rejected, %llu other\n",
      static_cast<unsigned long long>(merged.rtt.count()), wall_seconds, rate,
      static_cast<unsigned long long>(merged.ok),
      static_cast<unsigned long long>(merged.queued),
      static_cast<unsigned long long>(merged.rejected),
      static_cast<unsigned long long>(merged.other));
  std::printf(
      "submit rtt: p50 %.1fus  p99 %.1fus  p999 %.1fus  max %.1fus\n",
      static_cast<double>(merged.rtt.Quantile(0.50)) / 1e3,
      static_cast<double>(merged.rtt.Quantile(0.99)) / 1e3,
      static_cast<double>(merged.rtt.Quantile(0.999)) / 1e3,
      static_cast<double>(merged.rtt.max()) / 1e3);

  const std::string stats = FetchServerStats(config);
  const std::size_t latency_line = stats.find("placement_latency_ns");
  if (latency_line != std::string::npos) {
    const std::size_t end = stats.find('\n', latency_line);
    std::printf("server %s\n",
                stats.substr(latency_line, end - latency_line).c_str());
  }

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    NETBATCH_CHECK(static_cast<bool>(out), "cannot open --json-out path");
    out << "{\n"
        << "  \"jobs\": " << merged.rtt.count() << ",\n"
        << "  \"sessions\": " << sessions << ",\n"
        << "  \"speed\": " << config.speed << ",\n"
        << "  \"window\": " << config.window << ",\n"
        << "  \"wall_seconds\": " << wall_seconds << ",\n"
        << "  \"decisions_per_second\": " << rate << ",\n"
        << "  \"started\": " << merged.ok << ",\n"
        << "  \"queued\": " << merged.queued << ",\n"
        << "  \"rejected\": " << merged.rejected << ",\n"
        << "  \"rtt_ns\": {\"p50\": " << merged.rtt.Quantile(0.50)
        << ", \"p99\": " << merged.rtt.Quantile(0.99)
        << ", \"p999\": " << merged.rtt.Quantile(0.999)
        << ", \"max\": " << merged.rtt.max() << "}\n"
        << "}\n";
    std::printf("wrote %s\n", json_out.c_str());
  }
  return merged.other == 0 ? 0 : 1;
}
