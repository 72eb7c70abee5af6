"""Arithmetic and parsers used by the benchmark entry point (run.py).

Kept free of process handling so test_pbstats.py can check them alone.
"""

import array
import json
import math
import re
import statistics


def percentile(values, q):
    """Nearest-rank percentile of `values` (any order) for q in (0, 1]."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < q <= 1:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values):
    return statistics.median(values)


def faster_half_by_group(times, groups):
    """Indices of the faster half of `times` within each group (`groups[i]`
    names the group of times[i]), so every group keeps the same share."""
    keep = []
    for g in sorted(set(groups)):
        members = sorted((i for i in range(len(times)) if groups[i] == g),
                         key=lambda i: times[i])
        keep.extend(members[:(len(members) + 1) // 2])
    return sorted(keep)


def mean_of_groups(values, groups, keep):
    """Mean over groups of the median of each group's values at the `keep`
    indices: one figure per group, so each group weighs the same."""
    per_group = []
    for g in sorted(set(groups)):
        per_group.append(median([values[i] for i in keep if groups[i] == g]))
    return sum(per_group) / len(per_group)


def read_u32(path):
    """Reads a file of raw native-endian uint32 values."""
    values = array.array("I")
    with open(path, "rb") as f:
        values.frombytes(f.read())
    return values


# pb_client writes this for a request that got no usable answer.
MISSING_NS = 0xFFFFFFFF


def latency_us(ns_values, failed=0):
    """(p50, p99) in microseconds over the answered requests' latencies.

    Requests marked MISSING_NS, plus `failed` requests that have no latency
    at all, count as infinitely slow: they miss every latency limit.
    """
    values = [math.inf if v == MISSING_NS else v / 1000.0 for v in ns_values]
    values.extend([math.inf] * failed)
    return percentile(values, 0.50), percentile(values, 0.99)


def windowed_latency_us(ns_values, window):
    """(p50, p99) in microseconds: the median, over consecutive windows of
    `window` requests, of each window's percentile. A host stall that hits
    a few windows moves the result less than it moves one percentile over
    every request; a cost the program pays in every window still shows in
    full. A trailing partial window is dropped; fewer than `window`
    requests make one window of them all."""
    windows = [ns_values[i:i + window]
               for i in range(0, len(ns_values) - window + 1, window)]
    if not windows:
        windows = [ns_values]
    pairs = [latency_us(w) for w in windows]
    return median([p[0] for p in pairs]), median([p[1] for p in pairs])


_GAUGE = re.compile(r"^([\w.]+)=(-?\d+) \(max=(-?\d+)\)$")
_COUNTER = re.compile(r"^([\w.]+)=(\d+)$")
_LATENCY = re.compile(r"^placement_latency_ns\{(.*)\}$")


def parse_stats(text):
    """Parses netbatchd's kStats text.

    Counters read `name=value`, gauges `name=value (max=M)`, and the last
    line `placement_latency_ns{count=..,p50=..,p99=..,p999=..,max=..}`.
    Returns {"counters": {...}, "gauges": {name: (value, max)},
    "placement_latency_ns": {...}}; unknown lines raise ValueError.
    """
    out = {"counters": {}, "gauges": {}, "placement_latency_ns": {}}
    for line in text.splitlines():
        if not line:
            continue
        m = _GAUGE.match(line)
        if m:
            out["gauges"][m.group(1)] = (int(m.group(2)), int(m.group(3)))
            continue
        m = _COUNTER.match(line)
        if m:
            out["counters"][m.group(1)] = int(m.group(2))
            continue
        m = _LATENCY.match(line)
        if m:
            for field in m.group(1).split(","):
                key, value = field.split("=")
                out["placement_latency_ns"][key] = int(value)
            continue
        raise ValueError("unrecognised kStats line: %r" % line)
    return out


def last_json_line(text):
    """The JSON object a probe prints as the last line of its output."""
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError("probe printed nothing")
    value = json.loads(lines[-1])
    if not isinstance(value, dict):
        raise ValueError("probe's last line is not a JSON object")
    return value
