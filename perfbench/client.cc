// pb_client — the benchmark's netbatchd client: one process, at most two
// connections, single-threaded over poll().
//
//   pb_client storm --socket=P --scale=S --seed=N --jobs=J --round=K
//     Closed loop, kWindow requests in flight per connection. Submits run
//     K mod kStormSlices of J consecutive YearLong jobs as a burst (the
//     cluster fills, the rest queue), then drains the backlog in rounds:
//     query the jobs that may have started, complete the ones that are
//     running (each completion backfills from the wait queue). Every
//     request is timed from its send.
//
//   pb_client burst --socket=P --scale=S --seed=N
//     Closed loop, kWindow requests in flight per connection: submits the
//     first kBurstJobs jobs of the `normal` week as fast as netbatchd
//     answers. A fixed count, so every seed logs the same number of submits.
//
//   pb_client open --socket=P --scale=S --seed=N --speed=X
//                  --from-tick=A --to-tick=B
//     Paced replay of the `normal` week's jobs submitted in trace seconds
//     [A, B) at X times real time: each submit is sent at its due time,
//     whatever the daemon is doing, unless its connection already has its
//     one request in flight. The
//     loop busy-polls rather than sleeping. Records each request's latency
//     from its due time (--lat-out) and from its send (--svc-out), how late
//     it was sent (--late-out), and appends the acked job ids to
//     --acked-out.
//
// Each mode also reports gen_s, the time it took to generate its requests
// from the seed (part of the benchmark's set-up).
//
//   pb_client verify --socket=P --acked-in=F
//     Queries every acked job id (kQueryJob) and counts known and unknown.
//
// Latencies and lateness are written as raw uint32 nanoseconds, so the
// benchmark computes every percentile in one place (run.py). The
// summary is one JSON object on stdout. Any protocol violation — a response
// for a request not in flight, a dropped connection — aborts non-zero.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/flags.h"
#include "net/socket.h"
#include "netbatch.h"
#include "storm.h"

using namespace netbatch;
using perfbench::Json;
using perfbench::JobOp;
using perfbench::NowNs;
using perfbench::Request;
using perfbench::StatusOf;

namespace {

constexpr int kMaxConns = 2;
// Requests in flight per connection in the closed loops.
constexpr std::size_t kWindow = 128;
// Submits per burst: most of a scale-1 `normal` week (~190k jobs).
constexpr std::size_t kBurstJobs = 150000;

std::uint32_t ClampNs(std::int64_t ns) {
  if (ns < 0) return 0;
  return ns > 0xffffffffll ? 0xffffffffu : static_cast<std::uint32_t>(ns);
}

void WriteRaw(const std::string& path, const void* data, std::size_t bytes) {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::binary);
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(bytes));
  NETBATCH_CHECK(static_cast<bool>(out), "cannot write " + path);
}

// Up to two nonblocking connections multiplexed by one poll() loop.
// Request ids are unique for the life of the client.
class Wire {
 public:
  Wire(const std::string& socket_path, int conns) {
    NETBATCH_CHECK(conns >= 1 && conns <= kMaxConns, "--conns must be 1 or 2");
    for (int c = 0; c < conns; ++c) {
      Conn conn;
      conn.fd = net::ConnectUnix(socket_path);
      NETBATCH_CHECK(conn.fd >= 0, "cannot connect to " + socket_path);
      net::SetNonBlocking(conn.fd);
      conns_.push_back(std::move(conn));
    }
  }
  ~Wire() {
    for (Conn& conn : conns_) ::close(conn.fd);
  }
  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  std::size_t conns() const { return conns_.size(); }

  // Appends request `rid` to connection `c`'s output.
  void Queue(std::size_t c, std::uint64_t rid, const Request& r) {
    service::EncodeFrame(static_cast<std::uint16_t>(r.opcode), rid, r.payload,
                         conns_[c].out);
  }

  // Writes what the socket takes without blocking.
  void Flush() {
    for (Conn& conn : conns_) {
      while (conn.head < conn.out.size()) {
        const ssize_t n = ::send(conn.fd, conn.out.data() + conn.head,
                                 conn.out.size() - conn.head, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        NETBATCH_CHECK(n > 0, "send to netbatchd failed");
        conn.head += static_cast<std::size_t>(n);
      }
      if (conn.head == conn.out.size()) {
        conn.out.clear();
        conn.head = 0;
      }
    }
  }

  // Waits up to `timeout_ns` (< 0: no limit) for responses and appends
  // every decoded frame to `frames`.
  void Poll(std::int64_t timeout_ns, std::vector<service::Frame>& frames) {
    pollfd fds[kMaxConns];
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      fds[c].fd = conns_[c].fd;
      fds[c].events = static_cast<short>(
          POLLIN | (conns_[c].head < conns_[c].out.size() ? POLLOUT : 0));
      fds[c].revents = 0;
    }
    timespec ts{};
    if (timeout_ns >= 0) {
      ts.tv_sec = timeout_ns / 1'000'000'000;
      ts.tv_nsec = timeout_ns % 1'000'000'000;
    }
    const int n = ::ppoll(fds, conns_.size(), timeout_ns >= 0 ? &ts : nullptr,
                          nullptr);
    if (n < 0 && errno == EINTR) return;
    NETBATCH_CHECK(n >= 0, "poll failed");
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      if (fds[c].revents & POLLOUT) Flush();
      if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      while (true) {
        const ssize_t got = ::recv(conns_[c].fd, buf_, sizeof(buf_), 0);
        if (got < 0 && errno == EINTR) continue;
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        NETBATCH_CHECK(got > 0, "netbatchd closed the connection");
        NETBATCH_CHECK(conns_[c].decoder.Feed(
                           buf_, static_cast<std::size_t>(got), frames),
                       "protocol error: " + conns_[c].decoder.error());
      }
    }
  }

 private:
  struct Conn {
    int fd = -1;
    service::FrameDecoder decoder;
    std::vector<std::uint8_t> out;
    std::size_t head = 0;
  };
  std::vector<Conn> conns_;
  std::uint8_t buf_[1 << 16];
};

// Closed-loop exchange: request i goes to connection i % conns, each
// connection keeps at most `window` requests in flight. Returns every
// response payload in request order; latencies are appended per answer.
class ClosedLoop {
 public:
  ClosedLoop(Wire& wire, std::size_t window) : wire_(wire), window_(window) {}

  std::vector<std::vector<std::uint8_t>> Exchange(
      const std::vector<Request>& reqs) {
    const std::size_t n = reqs.size();
    const std::size_t conns = wire_.conns();
    std::vector<std::vector<std::uint8_t>> responses(n);
    std::vector<std::int64_t> sent_ns(n, 0);
    std::vector<char> answered(n, 0);
    std::vector<std::size_t> next(conns), in_flight(conns, 0);
    for (std::size_t c = 0; c < conns; ++c) next[c] = c;
    const std::uint64_t base = next_rid_;
    next_rid_ += n;
    std::size_t done = 0;
    std::vector<service::Frame> frames;
    while (done < n) {
      for (std::size_t c = 0; c < conns; ++c) {
        while (in_flight[c] < window_ && next[c] < n) {
          wire_.Queue(c, base + next[c], reqs[next[c]]);
          sent_ns[next[c]] = NowNs();
          ++in_flight[c];
          next[c] += conns;
        }
      }
      wire_.Flush();
      frames.clear();
      wire_.Poll(-1, frames);
      const std::int64_t now = NowNs();
      for (service::Frame& frame : frames) {
        const std::uint64_t rid = frame.header.request_id;
        NETBATCH_CHECK(rid >= base && rid < base + n && !answered[rid - base],
                       "response for a request that is not in flight");
        const std::size_t i = rid - base;
        answered[i] = 1;
        ++done;
        --in_flight[i % conns];
        latency_ns_.push_back(ClampNs(now - sent_ns[i]));
        responses[i] = std::move(frame.payload);
      }
    }
    return responses;
  }

  const std::vector<std::uint32_t>& latency_ns() const { return latency_ns_; }

 private:
  Wire& wire_;
  std::size_t window_;
  std::uint64_t next_rid_ = 1;
  std::vector<std::uint32_t> latency_ns_;
};

int RunStorm(const Flags& flags) {
  const std::int64_t gen_start = NowNs();
  const std::vector<workload::JobSpec> jobs = perfbench::StormJobs(
      flags.GetDouble("scale", 0.05),
      static_cast<std::uint64_t>(flags.GetInt("seed", 1)),
      static_cast<std::size_t>(flags.GetInt("jobs", 50000)),
      static_cast<std::size_t>(flags.GetInt("round", 0)) %
          perfbench::kStormSlices);
  const double gen_s = perfbench::SecondsSince(gen_start);
  Wire wire(flags.GetString("socket", ""), kMaxConns);
  ClosedLoop loop(wire, kWindow);
  const std::int64_t start = NowNs();
  const perfbench::StormResult r = perfbench::DriveStorm(
      jobs, [&](const std::vector<Request>& reqs) { return loop.Exchange(reqs); });
  const double wall_s = static_cast<double>(NowNs() - start) / 1e9;

  const std::vector<std::uint32_t>& lat = loop.latency_ns();
  WriteRaw(flags.GetString("lat-out", ""), lat.data(),
           lat.size() * sizeof(std::uint32_t));
  Json out;
  out.Int("requests", static_cast<std::int64_t>(r.requests()));
  out.Int("answered", static_cast<std::int64_t>(lat.size()));
  out.Num("wall_s", wall_s);
  out.Num("gen_s", gen_s);
  out.Int("submitted", static_cast<std::int64_t>(r.submitted));
  out.Int("started", static_cast<std::int64_t>(r.started));
  out.Int("queued", static_cast<std::int64_t>(r.queued));
  out.Int("rejected", static_cast<std::int64_t>(r.rejected));
  out.Int("refused", static_cast<std::int64_t>(r.refused));
  out.Int("queries", static_cast<std::int64_t>(r.queries));
  out.Int("completes", static_cast<std::int64_t>(r.completes));
  out.Int("completes_accepted", static_cast<std::int64_t>(r.completes_accepted));
  out.Int("rounds", static_cast<std::int64_t>(r.rounds));
  out.Print();
  return 0;
}

int RunBurst(const Flags& flags) {
  const std::int64_t gen_start = NowNs();
  std::vector<workload::JobSpec> jobs = perfbench::DurableJobs(
      flags.GetDouble("scale", 1.0),
      static_cast<std::uint64_t>(flags.GetInt("seed", 1)), kTicksPerWeek);
  NETBATCH_CHECK(jobs.size() >= kBurstJobs, "the week holds too few jobs");
  jobs.resize(kBurstJobs);
  std::vector<Request> reqs(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    reqs[i].opcode = service::Opcode::kSubmit;
    service::EncodeJobSpec(jobs[i], reqs[i].payload);
  }
  const double gen_s = perfbench::SecondsSince(gen_start);
  Wire wire(flags.GetString("socket", ""), kMaxConns);
  ClosedLoop loop(wire, kWindow);
  const std::int64_t start = NowNs();
  const std::vector<std::vector<std::uint8_t>> responses = loop.Exchange(reqs);
  const double wall_s = perfbench::SecondsSince(start);
  std::uint64_t acked = 0, rejected = 0, refused = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    service::SubmitResponse r;
    if (!service::DecodeSubmitResponse(responses[i], r) ||
        r.job_id != jobs[i].id.value()) {
      ++refused;
    } else if (r.status == service::Status::kOk ||
               r.status == service::Status::kQueued) {
      ++acked;
    } else if (r.status == service::Status::kRejected) {
      ++rejected;
    } else {
      ++refused;
    }
  }
  Json out;
  out.Int("requests", static_cast<std::int64_t>(jobs.size()));
  out.Int("answered", static_cast<std::int64_t>(loop.latency_ns().size()));
  out.Num("wall_s", wall_s);
  out.Num("gen_s", gen_s);
  out.Int("acked", static_cast<std::int64_t>(acked));
  out.Int("rejected", static_cast<std::int64_t>(rejected));
  out.Int("refused", static_cast<std::int64_t>(refused));
  out.Print();
  return 0;
}

int RunOpen(const Flags& flags) {
  const double speed = flags.GetDouble("speed", 20000);
  const Ticks from = flags.GetInt("from-tick", 0);
  const std::int64_t gen_start = NowNs();
  std::vector<workload::JobSpec> jobs = perfbench::DurableJobs(
      flags.GetDouble("scale", 1.0),
      static_cast<std::uint64_t>(flags.GetInt("seed", 1)),
      flags.GetInt("to-tick", kTicksPerWeek));
  std::erase_if(jobs, [&](const workload::JobSpec& spec) {
    return spec.submit_time < from;
  });
  const double gen_s = perfbench::SecondsSince(gen_start);
  Wire wire(flags.GetString("socket", ""), kMaxConns);
  const std::size_t n = jobs.size();

  // Trace submit times have one-tick (one-second) resolution; the jobs of
  // one tick are spread evenly across it instead of all falling due at
  // the same instant.
  std::vector<std::int64_t> due(n);
  const std::int64_t origin = NowNs() + 20'000'000;  // 20 ms lead-in
  for (std::size_t first = 0, last = 0; first < n; first = last) {
    while (last < n && jobs[last].submit_time == jobs[first].submit_time) ++last;
    for (std::size_t i = first; i < last; ++i) {
      const double tick = static_cast<double>(jobs[i].submit_time - from) +
                          static_cast<double>(i - first) /
                              static_cast<double>(last - first);
      due[i] = origin + static_cast<std::int64_t>(tick * 1e9 / speed);
    }
  }
  // Request i goes to connection i % conns, which holds at most one
  // request in flight.
  const std::size_t conns = wire.conns();
  std::vector<std::size_t> next(conns), in_flight(conns, 0);
  for (std::size_t c = 0; c < conns; ++c) next[c] = c;
  std::vector<std::uint32_t> latency(n, 0xffffffffu), service(n, 0xffffffffu),
      late(n, 0);
  std::vector<std::int64_t> sent(n, 0);
  std::vector<char> answered(n, 0);
  std::vector<std::uint64_t> acked;
  std::uint64_t rejected = 0, refused = 0;
  std::size_t done = 0;
  std::vector<service::Frame> frames;
  while (done < n) {
    std::int64_t now = NowNs();
    for (std::size_t c = 0; c < conns; ++c) {
      while (next[c] < n && due[next[c]] <= now && in_flight[c] == 0) {
        const std::size_t i = next[c];
        Request r{service::Opcode::kSubmit, {}};
        service::EncodeJobSpec(jobs[i], r.payload);
        wire.Queue(c, i + 1, r);
        sent[i] = now;
        late[i] = ClampNs(now - due[i]);
        ++in_flight[c];
        next[c] += conns;
        now = NowNs();
      }
    }
    wire.Flush();
    frames.clear();
    // Busy-poll: a sleeping generator wakes late (on a virtual machine an
    // idle vCPU can take milliseconds to resume), and that lateness would
    // be charged to netbatchd.
    wire.Poll(0, frames);
    now = NowNs();
    for (const service::Frame& frame : frames) {
      const std::uint64_t rid = frame.header.request_id;
      NETBATCH_CHECK(rid >= 1 && rid <= n && sent[rid - 1] != 0 &&
                         !answered[rid - 1],
                     "response for a request that is not in flight");
      const std::size_t i = rid - 1;
      answered[i] = 1;
      ++done;
      --in_flight[i % conns];
      service::SubmitResponse r;
      const bool ok = service::DecodeSubmitResponse(frame.payload, r) &&
                      r.job_id == jobs[i].id.value();
      if (ok && (r.status == service::Status::kOk ||
                 r.status == service::Status::kQueued ||
                 r.status == service::Status::kRejected)) {
        latency[i] = ClampNs(now - due[i]);
        service[i] = ClampNs(now - sent[i]);
        if (r.status == service::Status::kRejected) {
          ++rejected;
        } else {
          acked.push_back(r.job_id);
        }
      } else {
        ++refused;  // stays at the clamp: misses every latency limit
      }
    }
  }
  const double wall_s = static_cast<double>(NowNs() - origin) / 1e9;
  WriteRaw(flags.GetString("lat-out", ""), latency.data(), n * 4);
  WriteRaw(flags.GetString("svc-out", ""), service.data(), n * 4);
  WriteRaw(flags.GetString("late-out", ""), late.data(), n * 4);
  const std::string acked_path = flags.GetString("acked-out", "");
  if (!acked_path.empty()) {
    std::ofstream out(acked_path, std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char*>(acked.data()),
              static_cast<std::streamsize>(acked.size() * 8));
    NETBATCH_CHECK(static_cast<bool>(out), "cannot write " + acked_path);
  }
  Json out;
  out.Int("requests", static_cast<std::int64_t>(n));
  out.Int("answered", static_cast<std::int64_t>(done));
  out.Num("wall_s", wall_s);
  out.Num("gen_s", gen_s);
  out.Int("acked", static_cast<std::int64_t>(acked.size()));
  out.Int("rejected", static_cast<std::int64_t>(rejected));
  out.Int("refused", static_cast<std::int64_t>(refused));
  out.Print();
  return 0;
}

int RunVerify(const Flags& flags) {
  std::ifstream in(flags.GetString("acked-in", ""), std::ios::binary);
  NETBATCH_CHECK(static_cast<bool>(in), "cannot open --acked-in");
  std::vector<std::uint64_t> ids;
  std::uint64_t id = 0;
  while (in.read(reinterpret_cast<char*>(&id), sizeof(id))) ids.push_back(id);
  Wire wire(flags.GetString("socket", ""), 1);
  ClosedLoop loop(wire, 64);
  std::vector<Request> reqs;
  reqs.reserve(ids.size());
  for (std::uint64_t job : ids) {
    reqs.push_back(JobOp(service::Opcode::kQueryJob,
                         JobId(static_cast<JobId::ValueType>(job))));
  }
  const std::vector<std::vector<std::uint8_t>> responses = loop.Exchange(reqs);
  std::uint64_t known = 0, unknown = 0, bad = 0;
  for (const std::vector<std::uint8_t>& payload : responses) {
    switch (StatusOf(payload)) {
      case service::Status::kOk:
        ++known;
        break;
      case service::Status::kUnknownJob:
        ++unknown;
        break;
      default:
        ++bad;
        break;
    }
  }
  Json out;
  out.Int("acked", static_cast<std::int64_t>(ids.size()));
  out.Int("known", static_cast<std::int64_t>(known));
  out.Int("unknown", static_cast<std::int64_t>(unknown));
  out.Int("bad", static_cast<std::int64_t>(bad));
  out.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "storm") return RunStorm(flags);
  if (mode == "burst") return RunBurst(flags);
  if (mode == "open") return RunOpen(flags);
  if (mode == "verify") return RunVerify(flags);
  std::fprintf(stderr,
               "usage: pb_client storm|burst|open|verify --socket=P ...\n");
  return 2;
}
