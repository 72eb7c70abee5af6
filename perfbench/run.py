#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload sim-year --seed 1 --seconds 30 --trace 0

Run it from the repository root. It builds the library, netbatchd,
and the probes from source into .bench_build/ (CARGO_TARGET_DIR
if set), runs the workload for --seconds of measured work, checks the
outputs, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see README.md). A failed correctness check still prints the result, with
"correct": false, and exits 1.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import struct
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import pbstats  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# --- workload parameters ---------------------------------------------------
SIM_SCALE = 0.08           # YearLong at the default year scale: ~800k jobs
SIM_TRACES = 3             # years per sim-year run (pb_sim's kTraces)
STORM_SCALE = 0.05         # cluster of 1344 cores
STORM_JOBS = 50000         # burst size: ~49k jobs queue
DURABLE_SCALE = 1.0        # normal week, ~190k jobs on 23k cores
DURABLE_SPEED = 20000      # replay and daemon time scale (trace s per wall s)
DURABLE_PACED = 0.7        # share of --seconds paced; the bursts take the rest
DURABLE_SEGMENTS = 6       # crash-and-recover points spread over the replay
DURABLE_BURSTS = 4         # unpaced bursts of the week (the first warms up)
BURST_RELAUNCHES = 3       # recoveries timed after each burst's crash
LATENCY_WINDOW = 5000      # paced requests per latency window (~0.8 s)
THREADS = 2                # netbatchd --threads

END_TO_END = {
    "jobs_per_s": "jobs/s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "recovery_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Every per-layer metric, with its unit. A traced run reports all of them;
# a layer the workload bypasses did no work there and reads 0.
PER_LAYER = {
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "workload.generate_s": "s",
    "service.core.build_s": "s",
    "sim.queue.ops": "count",
    "sim.queue.self_s": "s",
    "sim.loop.self_s": "s",
    "sim.sampler.self_s": "s",
    "service.core.submit.calls": "count",
    "service.core.submit.self_s": "s",
    "service.core.complete.calls": "count",
    "service.core.complete.self_s": "s",
    "service.core.wait_timeout.calls": "count",
    "service.core.wait_timeout.self_s": "s",
    "service.core.deliver_restart.calls": "count",
    "service.core.deliver_restart.self_s": "s",
    "service.core.query.calls": "count",
    "service.core.query.self_s": "s",
    "service.core.reclaim.self_s": "s",
    "sched.pool_order.calls": "count",
    "sched.pool_order.self_s": "s",
    "core.policy.calls": "count",
    "core.policy.self_s": "s",
    "core.policy.move_ratio": "ratio",
    "cluster.preemptions": "count",
    "cluster.reschedules": "count",
    "cluster.enqueued": "count",
    "cluster.waiting_max": "count",
    "metrics.observer.self_s": "s",
    "service.protocol.decode.frames": "count",
    "service.protocol.decode.self_s": "s",
    "service.protocol.encode.self_s": "s",
    "net.mailbox.hop.msgs": "count",
    "net.mailbox.hop.self_s": "s",
    "net.session.write.calls": "count",
    "net.session.write.bytes": "B",
    "net.session.write.self_s": "s",
    "net.client.read.self_s": "s",
    "client.stream.self_s": "s",
    "service.core.complete.self_us_at_20k": "us",
    "service.core.complete.self_us_at_100k": "us",
    "service.core.complete.self_us_at_400k": "us",
    "persist.wal.append.calls": "count",
    "persist.wal.append.self_s": "s",
    "persist.wal.flush.calls": "count",
    "persist.wal.flush.self_s": "s",
    "persist.wal.sync.calls": "count",
    "persist.wal.sync.self_s": "s",
    "persist.wal.bytes": "B",
    "persist.snapshot.bytes": "B",
    "persist.snapshot.write_s": "s",
    "persist.snapshot.load_s": "s",
    "persist.recovery.records": "count",
    "persist.recovery.self_s": "s",
    "daemon.admission_p50_us": "us",
    "daemon.admission_p99_us": "us",
    "daemon.wal_records": "count",
    "daemon.recovery_ms": "ms",
    "client.late_p99_us": "us",
    "client.due_p99_us": "us",
    "multicore.sim.classic.jobs_per_s": "jobs/s",
    "multicore.sim.shards1.jobs_per_s": "jobs/s",
    "multicore.sim.shards2.jobs_per_s": "jobs/s",
    "multicore.sim.shards3.jobs_per_s": "jobs/s",
    "multicore.sim.shards4.jobs_per_s": "jobs/s",
    "multicore.serve.threads1.jobs_per_s": "jobs/s",
    "multicore.serve.threads2.jobs_per_s": "jobs/s",
    "multicore.serve.threads3.jobs_per_s": "jobs/s",
}

COVERAGE_BAR = 0.10  # named layers must explain the traced work within 10%


class BenchError(Exception):
    """A failure that leaves no result to report (build, launch, crash)."""


class Run:
    """Outcome of one invocation: metrics plus the correctness ledger."""

    def __init__(self):
        self.metrics = {}
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)

    def result(self, names):
        return {
            "correct": not self.problems,
            "attempted": max(1, int(self.attempted)),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": self.metrics.get(name, 0), "unit": unit}
                for name, unit in names.items()
            },
        }


# --- build -------------------------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "netbatch.h")):
        raise BenchError("no library sources next to perfbench/ to build")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = open(os.path.join(os.path.dirname(out), "perfbench-build.log"), "a")
    try:
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=log, stderr=log, check=True)
        subprocess.run(["cmake", "--build", out, "-j", "4"],
                       stdout=log, stderr=log, check=True)
    except (subprocess.CalledProcessError, OSError) as e:
        raise BenchError("build failed (see %s): %s" % (log.name, e))
    finally:
        log.close()
    return out


# --- netbatchd plumbing ------------------------------------------------------

NBP1 = struct.Struct("<IHHQI")
MAGIC, VERSION, OP_STATS = 0x3150424E, 1, 7


def request(path, opcode, payload=b"", timeout=10.0):
    """One NBP1 round trip over a fresh unix-socket connection."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(path)
        s.sendall(NBP1.pack(MAGIC, VERSION, opcode, 1, len(payload)) + payload)
        buf = b""
        while True:
            chunk = s.recv(1 << 16)
            if not chunk:
                raise BenchError("netbatchd closed the connection")
            buf += chunk
            if len(buf) >= NBP1.size:
                length = NBP1.unpack_from(buf)[4]
                if len(buf) >= NBP1.size + length:
                    return buf[NBP1.size:NBP1.size + length]


def stats(path):
    return pbstats.parse_stats(request(path, OP_STATS).decode())


class Daemon:
    """netbatchd on a unix socket in the working directory."""

    def __init__(self, bins, args, tracker, sock="d.sock"):
        self.bins, self.args, self.tracker = bins, args, tracker
        self.sock = sock
        self.proc = None

    def launch(self):
        """Starts netbatchd; returns seconds from launch to first reply."""
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [os.path.join(self.bins, "netbatchd"), "--socket=" + self.sock] +
            self.args, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.tracker.append(self.proc)
        deadline = start + 60
        while True:
            try:
                request(self.sock, OP_STATS)
                return time.perf_counter() - start
            except (OSError, BenchError):
                if self.proc.poll() is not None:
                    raise BenchError("netbatchd exited during start-up")
                if time.perf_counter() > deadline:
                    raise BenchError("netbatchd never answered")
                time.sleep(0.0001)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for netbatchd")

    def stop(self, sig=signal.SIGTERM):
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(sig)
        if self.proc is not None:
            self.proc.wait(timeout=60)
        self.proc = None


class KeepCpusAwake:
    """One SCHED_IDLE busy loop per CPU while serve requests are in flight.

    Whenever netbatchd's threads wait for a request they sleep. On a virtual
    machine the idle vCPU then halts, and waking it can take a millisecond
    of host scheduling, which would dominate the latency tail. A SCHED_IDLE
    loop keeps every vCPU running yet yields at once to any runnable
    thread, so it takes no CPU time from the daemon or the client.
    """

    def __init__(self, tracker):
        self.tracker = tracker
        self.procs = []

    def __enter__(self):
        def idle():
            os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
        for _ in range(os.cpu_count() or 1):
            proc = subprocess.Popen([sys.executable, "-c", "while True: pass"],
                                    preexec_fn=idle)
            self.tracker.append(proc)
            self.procs.append(proc)
        return self

    def __exit__(self, *exc):
        for proc in self.procs:
            proc.kill()
            proc.wait()
        return False


def take_layers(run, res):
    """Copies a traced probe's per-layer figures into `run`. Coverage is
    the named layers' self time over the traced work they had to explain
    (their self time plus the probe harness's)."""
    for name in PER_LAYER:
        if name in res:
            run.metrics[name] = res[name]
    run.metrics["trace.coverage"] = res["covered_s"] / res["served_s"]
    run.metrics["trace.overhead"] = res["traced_wall_s"] / res["untraced_wall_s"]


def probe(bins, name, args, timeout=170):
    """Runs a probe; returns its last stdout line parsed as JSON."""
    proc = subprocess.run([os.path.join(bins, name)] + args,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("%s %s failed: %s" % (name, args[0],
                                                proc.stderr.strip()[-500:]))
    return pbstats.last_json_line(proc.stdout)


def probe_rss(bins, name, args, timeout=170):
    """Like probe(), plus the probe's own peak resident memory in MiB."""
    with open("probe.out", "w+") as out, open("probe.err", "w+") as err:
        proc = subprocess.Popen([os.path.join(bins, name)] + args,
                                stdout=out, stderr=err)
        deadline = time.perf_counter() + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise BenchError("%s %s timed out" % (name, args[0]))
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        if proc.returncode != 0:
            raise BenchError("%s %s failed: %s" % (name, args[0],
                                                    err.read()[-500:]))
        return pbstats.last_json_line(out.read()), usage.ru_maxrss / 1024.0


# --- sim-year ----------------------------------------------------------------

def expected_digest(seed):
    with open(os.path.join(BENCH_DIR, "expected_digests.json")) as f:
        table = json.load(f)
    if table["scale"] != SIM_SCALE:
        return None
    return table["digests"].get(str(seed))


def sim_year(run, bins, seed, seconds, tracker):
    res, rss = probe_rss(bins, "pb_sim", [
        "run", "--scale=%g" % SIM_SCALE, "--seed=%d" % seed,
        "--seconds=%g" % seconds])
    run.attempted += res["jobs"]
    run.failed += res["rejected"]
    run.check(res["digests_agree"] == 1, "replays of one trace disagreed")
    run.check(res["rejected"] == 0, "jobs were rejected")
    run.check(res["restored"] == 1, "checkpoint restore failed")
    digests = res["digests"].split(";")
    run.check(len(digests) == SIM_TRACES, "pb_sim replayed %d traces, not %d"
              % (len(digests), SIM_TRACES))
    for k, digest in enumerate(digests):
        want = expected_digest(seed * SIM_TRACES + k)
        run.check(want is None or want == digest,
                  "trace %d decision digest %s != recorded %s" %
                  (k, digest, want))
    # Co-tenants on a shared host slow this memory-bound replay by up to a
    # third for seconds at a time, so each figure comes from the faster
    # half of each trace's reps (replays, restores, set-ups), the part
    # least disturbed; a slower program still slows every rep. Each trace
    # weighs the same: the three years differ in size, and restore time
    # jumps where a core's job count crosses a table-growth threshold.
    trace = res["trace"]
    fast = pbstats.faster_half_by_group(res["run_s"], trace)
    starts = [sum(res["batches"][:i]) for i in range(len(trace))]
    batch_us = [b for i in fast for b in
                res["batch_us"][int(starts[i]):int(starts[i] + res["batches"][i])]]
    setups = [g + b for g, b in zip(res["gen_s"], res["build_s"])]

    def typical(values):
        return pbstats.mean_of_groups(
            values, trace, pbstats.faster_half_by_group(values, trace))

    run.metrics.update({
        "jobs_per_s": pbstats.mean_of_groups(res["jobs_per_s"], trace, fast),
        "latency_p50_us": pbstats.percentile(batch_us, 0.50),
        "latency_p99_us": pbstats.percentile(batch_us, 0.99),
        "recovery_s": typical(res["restore_s"]),
        "setup_s": typical(setups),
        "peak_rss_mb": rss,
    })


def sim_year_traced(run, bins, seed, seconds, tracker):
    res = probe(bins, "pb_sim", ["trace", "--scale=%g" % SIM_SCALE,
                                 "--seed=%d" % seed])
    run.attempted += res["jobs"]
    run.check(res["reproduced"] == 1,
              "traced replay did not reproduce the untraced decisions")
    want = expected_digest(seed * SIM_TRACES)  # the run's trace 0
    run.check(want is None or want == res["digest"],
              "decision digest %s != recorded %s" % (res["digest"], want))
    take_layers(run, res)
    args = ["shards", "--scale=%g" % SIM_SCALE, "--seed=%d" % seed]
    shards = probe(bins, "pb_sim", args)
    for key in ("classic", "shards1", "shards2", "shards3", "shards4"):
        run.metrics["multicore.sim.%s.jobs_per_s" % key] = shards[key]
    return {"command": "pb_sim " + " ".join(args), "jobs": shards["jobs"],
            "jobs_per_s": {k: v for k, v in shards.items() if k != "jobs"}}


# --- serve-storm ---------------------------------------------------------------

def storm_args(threads):
    return ["--scenario=year", "--scale=%g" % STORM_SCALE, "--threads=%d" % threads,
            "--auto-complete=false"]


def storm_round(run, bins, seed, round_index):
    """One burst-and-drain against the daemon on d.sock; returns
    (requests answered per second, p50 us, p99 us, request generation s)."""
    res = probe(bins, "pb_client", [
        "storm", "--socket=d.sock", "--scale=%g" % STORM_SCALE,
        "--seed=%d" % seed, "--jobs=%d" % STORM_JOBS,
        "--round=%d" % round_index, "--lat-out=lat.bin"])
    after = stats("d.sock")["counters"]
    lat = pbstats.read_u32("lat.bin")
    run.attempted += res["requests"]
    failed = res["refused"] + (res["completes"] - res["completes_accepted"])
    run.failed += failed + (res["requests"] - res["answered"])
    run.check(res["answered"] == res["requests"] == len(lat),
              "a request was not answered exactly once")
    run.check(res["started"] + res["queued"] + res["rejected"] ==
              res["submitted"], "started + queued + rejected != submitted")
    run.check(res["completes_accepted"] == res["completes"],
              "a completion was refused")
    run.check(after.get("jobs.completed") == res["completes_accepted"] and
              after.get("jobs.submitted") == res["submitted"],
              "netbatchd's counters disagree with the client")
    p50, p99 = pbstats.latency_us(lat, failed)
    return res["answered"] / res["wall_s"], p50, p99, res["gen_s"]


def serve_storm(run, bins, seed, seconds, tracker):
    """Rounds until `seconds` have passed (at least three); the client
    cycles them over four runs of the year so one run samples several
    bursts. Each round runs against a freshly launched daemon and its client
    generates its requests from the seed: together a setup_s sample. Each
    round ends with a SIGKILL and relaunch, a recovery_s sample; an
    in-memory daemon has no state to recover, so this is its restart time."""
    daemon = Daemon(bins, storm_args(THREADS), tracker)
    rates, p50s, p99s, rss, setups, recoveries = [], [], [], [], [], []
    deadline = time.perf_counter() + seconds
    with KeepCpusAwake(tracker):
        while len(rates) < 3 or time.perf_counter() < deadline:
            launch = daemon.launch()
            rate, p50, p99, gen = storm_round(run, bins, seed, len(rates))
            setups.append(gen + launch)
            rates.append(rate)
            p50s.append(p50)
            p99s.append(p99)
            rss.append(daemon.peak_rss_mb())
            daemon.stop(signal.SIGKILL)
            recoveries.append(daemon.launch())  # comes back empty
            daemon.stop()
    run.metrics.update({
        "jobs_per_s": pbstats.median(rates),
        "latency_p50_us": pbstats.median(p50s),
        "latency_p99_us": pbstats.median(p99s),
        "recovery_s": pbstats.median(recoveries),
        "setup_s": pbstats.median(setups),
        "peak_rss_mb": pbstats.median(rss),
    })


def serve_storm_traced(run, bins, seed, seconds, tracker):
    res = probe(bins, "pb_layers", [
        "storm", "--scale=%g" % STORM_SCALE, "--seed=%d" % seed,
        "--jobs=%d" % STORM_JOBS])
    run.attempted += res["requests"]
    take_layers(run, res)

    entries = {}
    for threads in (1, 2, 3):
        daemon = Daemon(bins, storm_args(threads), tracker)
        daemon.launch()
        with KeepCpusAwake(tracker):
            rate, _, _, _ = storm_round(run, bins, seed, 0)
        if threads == THREADS:
            lat = stats("d.sock")["placement_latency_ns"]
            run.metrics["daemon.admission_p50_us"] = lat["p50"] / 1e3
            run.metrics["daemon.admission_p99_us"] = lat["p99"] / 1e3
        daemon.stop()
        run.metrics["multicore.serve.threads%d.jobs_per_s" % threads] = rate
        entries["threads%d" % threads] = rate
    return {"command": "netbatchd --socket=d.sock " +
                       " ".join(storm_args(0)).replace("--threads=0", "--threads=N") +
                       " + pb_client storm --jobs=%d" % STORM_JOBS,
            "jobs_per_s": entries}


# --- serve-durable ---------------------------------------------------------------

def durable_args(data_dir="dd", time_scale=DURABLE_SPEED):
    return ["--scenario=normal", "--scale=%g" % DURABLE_SCALE,
            "--threads=%d" % THREADS, "--data-dir=" + data_dir,
            "--time-scale=%d" % time_scale]


def durable_paced(run, bins, seed, seconds, tracker):
    """Replays `seconds` of wall time's worth of the week in
    DURABLE_SEGMENTS paced segments against one data dir: each submit is
    sent at its due time, or as soon as its connection's one request in
    flight is answered. Latency counts from the send, summarised per
    LATENCY_WINDOW requests; lateness and latency from the due time are
    kept too. After each segment the daemon is SIGKILLed and relaunched
    over the data dir, and the next segment goes to the recovered daemon;
    a daemon over an empty data dir is launched beside it, and with the
    segment client's request generation that is a setup_s sample. Finally
    every acked submit is audited. Every check lands in `run`; returns the
    figures."""
    daemon = Daemon(bins, durable_args(), tracker)
    spare = Daemon(bins, durable_args(data_dir="dd-setup"), tracker,
                   sock="s.sock")
    span = int(seconds * DURABLE_SPEED)
    svc, due, late, rss, setups = [], [], [], [], []
    acked = 0
    shutil.rmtree("dd", ignore_errors=True)
    with KeepCpusAwake(tracker):
        daemon.launch()
        for k in range(DURABLE_SEGMENTS):
            res = probe(bins, "pb_client", [
                "open", "--socket=d.sock", "--scale=%g" % DURABLE_SCALE,
                "--seed=%d" % seed, "--speed=%d" % DURABLE_SPEED,
                "--from-tick=%d" % (span * k // DURABLE_SEGMENTS),
                "--to-tick=%d" % (span * (k + 1) // DURABLE_SEGMENTS),
                "--svc-out=svc.bin", "--lat-out=lat.bin",
                "--late-out=late.bin", "--acked-out=acked.bin"],
                timeout=seconds + 120)
            before = stats("d.sock")
            rss.append(daemon.peak_rss_mb())
            segment = pbstats.read_u32("svc.bin")
            run.attempted += res["requests"]
            run.failed += res["refused"] + (res["requests"] - res["answered"])
            run.check(res["answered"] == res["requests"] == len(segment),
                      "a request was not answered exactly once")
            run.check(res["refused"] == 0, "a submit was refused")
            acked += res["acked"]
            svc.extend(segment)
            due.extend(pbstats.read_u32("lat.bin"))
            late.extend(pbstats.read_u32("late.bin"))
            daemon.stop(signal.SIGKILL)
            daemon.launch()
            recovered = stats("d.sock")
            shutil.rmtree("dd-setup", ignore_errors=True)
            setups.append(res["gen_s"] + spare.launch())
            spare.stop()
    daemon.stop(signal.SIGKILL)
    # Audit with the clock frozen so no completion lands mid-audit.
    daemon.args = durable_args(time_scale=1)
    daemon.launch()
    audit = probe(bins, "pb_client", ["verify", "--socket=d.sock",
                                      "--acked-in=acked.bin"])
    after = stats("d.sock")["counters"]
    daemon.stop()

    run.attempted += audit["acked"]
    run.failed += audit["bad"]
    run.check(audit["bad"] == 0 and
              audit["known"] + audit["unknown"] == audit["acked"] == acked,
              "acked submits did not all answer kQueryJob after the crashes")
    # An acked job the daemon no longer knows must have completed (and been
    # reclaimed); anything else was lost in a crash.
    run.check(audit["unknown"] == after.get("jobs.completed"),
              "%d acked jobs unknown after recovery, %s completed" %
              (audit["unknown"], after.get("jobs.completed")))
    p50, p99 = pbstats.windowed_latency_us(svc, LATENCY_WINDOW)
    return {
        "p50": p50, "p99": p99,
        "due_p99": pbstats.latency_us(due)[1],
        "late_p99": pbstats.percentile(late, 0.99) / 1e3,
        "setups": setups, "rss": pbstats.median(rss),
        "before": before, "recovered": recovered,
    }


def durable_bursts(run, bins, seed, tracker):
    """DURABLE_BURSTS times: the week's first jobs submitted unpaced into a
    daemon over a fresh data dir, its clock frozen (--time-scale=1) so the work is
    fixed by the input. Each burst but the first, which runs cold, is a
    jobs_per_s sample; then the daemon is SIGKILLed and relaunched
    BURST_RELAUNCHES times over the same log, each a recovery_s sample, and
    must still know every acked submit. Returns (rates, recoveries)."""
    daemon = Daemon(bins, durable_args(data_dir="dd-burst", time_scale=1),
                    tracker, sock="b.sock")
    rates, recoveries = [], []
    with KeepCpusAwake(tracker):
        for burst in range(DURABLE_BURSTS):
            shutil.rmtree("dd-burst", ignore_errors=True)
            daemon.launch()
            res = probe(bins, "pb_client", [
                "burst", "--socket=b.sock", "--scale=%g" % DURABLE_SCALE,
                "--seed=%d" % seed])
            run.attempted += res["requests"]
            run.failed += res["refused"] + (res["requests"] - res["answered"])
            run.check(res["answered"] == res["requests"],
                      "a burst request was not answered exactly once")
            run.check(res["refused"] == 0, "a burst submit was refused")
            if burst > 0:
                rates.append(res["answered"] / res["wall_s"])
            for _ in range(BURST_RELAUNCHES):
                daemon.stop(signal.SIGKILL)
                recoveries.append(daemon.launch())
                known = stats("b.sock")["counters"].get("jobs.submitted")
                run.check(known == res["acked"],
                          "recovered %s of %d acked burst submits" %
                          (known, res["acked"]))
            daemon.stop(signal.SIGKILL)
    return rates, recoveries


def serve_durable(run, bins, seed, seconds, tracker):
    c = durable_paced(run, bins, seed, seconds * DURABLE_PACED, tracker)
    rates, recoveries = durable_bursts(run, bins, seed, tracker)
    run.metrics.update({
        "jobs_per_s": pbstats.median(rates),
        "latency_p50_us": c["p50"],
        "latency_p99_us": c["p99"],
        "recovery_s": pbstats.median(recoveries),
        "setup_s": pbstats.median(c["setups"]),
        "peak_rss_mb": c["rss"],
    })


def serve_durable_traced(run, bins, seed, seconds, tracker):
    res = probe(bins, "pb_layers", [
        "durable", "--scale=%g" % DURABLE_SCALE, "--seed=%d" % seed,
        "--speed=%d" % DURABLE_SPEED, "--seconds=%g" % seconds,
        "--dir=layers-dd"])
    run.attempted += res["requests"]
    take_layers(run, res)
    c = durable_paced(run, bins, seed, seconds, tracker)
    lat = c["before"]["placement_latency_ns"]
    run.metrics.update({
        "daemon.admission_p50_us": lat["p50"] / 1e3,
        "daemon.admission_p99_us": lat["p99"] / 1e3,
        "daemon.wal_records": c["before"]["gauges"]["daemon.wal_records"][1],
        "daemon.recovery_ms": c["recovered"]["gauges"]["daemon.recovery_ms"][0],
        "client.late_p99_us": c["late_p99"],
        "client.due_p99_us": c["due_p99"],
    })
    return None


# --- entry point ---------------------------------------------------------------

WORKLOADS = {
    "sim-year": (sim_year, sim_year_traced),
    "serve-storm": (serve_storm, serve_storm_traced),
    "serve-durable": (serve_durable, serve_durable_traced),
}


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        return out.stdout.strip() or None
    except OSError:
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    run = Run()
    tracker = []
    work = None
    try:
        bins = build()
        work = os.path.join(build_dir(), "run-%d" % os.getpid())
        os.makedirs(work)
        os.chdir(work)
        timed, traced = WORKLOADS[args.workload]
        if not args.trace:
            timed(run, bins, args.seed, args.seconds, tracker)
        else:
            record = traced(run, bins, args.seed, args.seconds, tracker)
            coverage = run.metrics["trace.coverage"]
            run.check(abs(coverage - 1.0) <= COVERAGE_BAR,
                      "trace coverage %.3f outside 1 +/- %.2f" %
                      (coverage, COVERAGE_BAR))
            if record is not None:
                record.update({"workload": args.workload, "commit": commit(),
                               "source_sha256": source_digest(),
                               "host": platform.node(), "nproc": os.cpu_count(),
                               "seed": args.seed})
                path = os.path.join(build_dir(),
                                    "multicore-%s.json" % args.workload)
                with open(path, "w") as f:
                    json.dump(record, f, indent=1)
                print("multicore record: " + json.dumps(record))
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    finally:
        for proc in tracker:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if work is not None:
            os.chdir(ROOT)
            shutil.rmtree(work, ignore_errors=True)

    result = run.result(PER_LAYER if args.trace else END_TO_END)
    for problem in run.problems:
        print("perfbench: check failed: %s" % problem, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
