// The serve-storm request stream, shared by the socket client (pb_client)
// and the in-process traced replay (pb_layers): a burst of submits, then
// rounds that find every running job and complete it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "netbatch.h"

namespace perfbench {

struct Request {
  netbatch::service::Opcode opcode;
  std::vector<std::uint8_t> payload;
};

Request JobOp(netbatch::service::Opcode opcode, netbatch::JobId id) {
  Request r{opcode, {}};
  netbatch::service::WireWriter(r.payload).U64(id.value());
  return r;
}

netbatch::service::Status StatusOf(const std::vector<std::uint8_t>& payload) {
  netbatch::service::WireReader r(payload);
  const std::uint32_t status = r.U32();
  return r.ok() ? static_cast<netbatch::service::Status>(status)
                : netbatch::service::Status::kBadRequest;
}

struct StormResult {
  std::uint64_t submitted = 0, started = 0, queued = 0, rejected = 0,
                refused = 0, queries = 0, completes = 0,
                completes_accepted = 0, rounds = 0;
  // Every request the stream sent (submits, queries, snapshots, completes).
  std::uint64_t requests() const {
    return submitted + queries + completes + rounds;
  }
};

// `exchange(requests)` sends a batch and returns the response payloads in
// request order.
template <typename Exchange>
StormResult DriveStorm(const std::vector<netbatch::workload::JobSpec>& jobs,
                       Exchange&& exchange) {
  using namespace netbatch;
  StormResult out;
  out.submitted = jobs.size();
  // Burst: submit everything.
  std::vector<Request> reqs;
  reqs.reserve(jobs.size());
  for (const workload::JobSpec& spec : jobs) {
    Request r{service::Opcode::kSubmit, {}};
    service::EncodeJobSpec(spec, r.payload);
    reqs.push_back(std::move(r));
  }
  std::vector<std::vector<std::uint8_t>> responses = exchange(reqs);
  std::vector<cluster::JobState> state(jobs.size(), cluster::JobState::kWaiting);
  std::vector<std::uint32_t> pool(jobs.size(), 0);
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    service::SubmitResponse r;
    if (!service::DecodeSubmitResponse(responses[i], r) ||
        r.job_id != jobs[i].id.value()) {
      ++out.refused;
      continue;
    }
    pool[i] = r.pool;
    switch (r.status) {
      case service::Status::kOk:
        ++out.started;
        state[i] = cluster::JobState::kRunning;
        pending.push_back(i);
        break;
      case service::Status::kQueued:
        ++out.queued;
        pending.push_back(i);
        break;
      case service::Status::kRejected:
        ++out.rejected;
        break;
      default:
        ++out.refused;
        break;
    }
  }
  // Each pool's wait queue runs in (priority desc, FIFO) order.
  std::stable_sort(pending.begin(), pending.end(),
                   [&](std::size_t a, std::size_t b) {
                     return jobs[a].priority > jobs[b].priority;
                   });

  // Drain: rounds of {find every running job, complete them all}; each
  // completion backfills from its pool's wait queue. Nothing preempts in
  // this phase, so a job seen running stays running until completed. A
  // kSnapshot gives each pool's busy cores; the cores not explained by
  // known running jobs belong to jobs backfill started, which are found by
  // querying that pool's waiting jobs in queue order, chunk by chunk.
  const auto query = [&](const std::vector<std::size_t>& which) {
    reqs.clear();
    for (std::size_t i : which) {
      reqs.push_back(JobOp(service::Opcode::kQueryJob, jobs[i].id));
    }
    responses = exchange(reqs);
    out.queries += reqs.size();
    for (std::size_t k = 0; k < which.size(); ++k) {
      service::WireReader r(responses[k]);
      const auto status = static_cast<service::Status>(r.U32());
      const std::uint32_t job_state = r.U32();
      const std::uint32_t job_pool = r.U32();
      NETBATCH_CHECK(r.ok() && status == service::Status::kOk,
                     "a pending job vanished from netbatchd");
      state[which[k]] = static_cast<cluster::JobState>(job_state);
      pool[which[k]] = job_pool;
    }
  };
  while (!pending.empty()) {
    ++out.rounds;
    std::vector<std::size_t> which;
    for (std::size_t i : pending) {
      if (state[i] != cluster::JobState::kWaiting) which.push_back(i);
    }
    query(which);

    responses = exchange({Request{service::Opcode::kSnapshot, {}}});
    service::WireReader r(responses[0]);
    for (int skip = 0; skip < 6; ++skip) r.U64();
    const std::uint32_t pool_count = r.U32();
    std::vector<std::int64_t> missing(pool_count, 0);
    for (std::uint32_t p = 0; p < pool_count; ++p) {
      const std::uint32_t id = r.U32();
      r.I64();
      const std::int64_t busy = r.I64();
      r.U64();
      r.U64();
      NETBATCH_CHECK(r.ok() && id < pool_count, "malformed snapshot");
      missing[id] = busy;
    }
    std::vector<std::vector<std::size_t>> waiting(pool_count);
    for (std::size_t i : pending) {
      NETBATCH_CHECK(pool[i] < pool_count, "job reported in an unknown pool");
      if (state[i] == cluster::JobState::kRunning) {
        missing[pool[i]] -= jobs[i].cores;
      } else if (state[i] == cluster::JobState::kWaiting) {
        waiting[pool[i]].push_back(i);
      }
    }
    std::vector<std::size_t> cursor(pool_count, 0);
    while (true) {
      which.clear();
      for (std::uint32_t p = 0; p < pool_count; ++p) {
        if (missing[p] <= 0) continue;
        // A job wider than the unexplained cores cannot be one of them.
        const std::size_t chunk = std::max<std::int64_t>(16, 2 * missing[p]);
        for (std::size_t k = 0; k < chunk && cursor[p] < waiting[p].size();
             ++cursor[p]) {
          const std::size_t i = waiting[p][cursor[p]];
          if (jobs[i].cores > missing[p]) continue;
          which.push_back(i);
          ++k;
        }
      }
      if (which.empty()) break;
      query(which);
      for (std::size_t i : which) {
        if (state[i] == cluster::JobState::kRunning) {
          missing[pool[i]] -= jobs[i].cores;
        }
      }
    }

    std::vector<std::size_t> running;
    for (std::size_t i : pending) {
      if (state[i] == cluster::JobState::kRunning) running.push_back(i);
    }
    NETBATCH_CHECK(!running.empty(), "backlog stalled: nothing is running");
    reqs.clear();
    for (std::size_t i : running) {
      reqs.push_back(JobOp(service::Opcode::kComplete, jobs[i].id));
    }
    responses = exchange(reqs);
    out.completes += reqs.size();
    for (std::size_t k = 0; k < running.size(); ++k) {
      if (StatusOf(responses[k]) != service::Status::kOk) continue;
      ++out.completes_accepted;
      state[running[k]] = cluster::JobState::kCompleted;
    }
    std::erase_if(pending, [&](std::size_t i) {
      return state[i] == cluster::JobState::kCompleted;
    });
  }
  return out;
}

}  // namespace perfbench
