"""Pure helpers of the perfbench harness (imported by run.py and the self-tests).

Nothing here touches the nvmgc build: percentile rules, the rate-grid search,
span self-time arithmetic, and running one repetition as a child process with
failure accounting.
"""

import json
import math
import signal
import statistics
import subprocess
import time

# Percentiles the driver reports for request latencies, ascending.
LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
# A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def rank(p, n):
    """1-based nearest rank of percentile p (0-100] among n samples."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def beyond(p, n):
    """Samples strictly above the nearest-rank percentile p of n samples."""
    return n - rank(p, n)


def tail_percentile(n, ladder=LADDER):
    """Highest ladder percentile with >= MIN_BEYOND samples beyond it.

    Returns (percentile, samples_beyond), or (None, 0) when even the lowest
    rung has too few samples.
    """
    best = (None, 0)
    for p in ladder:
        if beyond(p, n) >= MIN_BEYOND:
            best = (p, beyond(p, n))
    return best


def percentile(values, p):
    """Nearest-rank percentile of a list of numbers."""
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]


def median(values):
    return statistics.median(values)


def max_rate_at_slo(points, p99_limit_ms):
    """Highest grid rate that meets the latency limit without a growing backlog.

    `points` are the grid results in ascending rate order, each a dict with
    kqps, p99_ms and backlog_ms (last completion minus last due time). A rate
    passes when its p99 meets the limit and the backlog left at the end of the
    phase is itself within the limit (a growing queue exceeds it). The search
    stops at the first failing rate: a rate above a failure does not count.
    Returns 0.0 when the lowest rate already fails.
    """
    best = 0.0
    for pt in sorted(points, key=lambda q: q["kqps"]):
        if pt["p99_ms"] > p99_limit_ms or pt["backlog_ms"] > p99_limit_ms:
            break
        best = pt["kqps"]
    return best


def self_times(spans):
    """Per-span self time: duration minus the part its children cover.

    `spans` are dicts with id, parent (-1 for roots), ts and dur (any one
    time unit). Child intervals are clipped to the parent and merged, so
    overlapping children are not subtracted twice.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["ts"], s["ts"] + s["dur"]
        covered, cur_lo, cur_hi = 0.0, None, None
        for c in sorted(children.get(s["id"], []), key=lambda c: c["ts"]):
            c_lo, c_hi = max(lo, c["ts"]), min(hi, c["ts"] + c["dur"])
            if c_hi <= c_lo:
                continue
            if cur_hi is None or c_lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = c_lo, c_hi
            else:
                cur_hi = max(cur_hi, c_hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = s["dur"] - covered
    return out


def layer_self_times(spans):
    """Self time summed per layer (the span name's prefix before the first dot)."""
    selfs = self_times(spans)
    layers = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + selfs[s["id"]]
    return layers


def spans_from_chrome_trace(path):
    """Reads the "X" events the driver wrote back into span dicts (ts/dur in us)."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    return [
        {"id": e["args"]["id"], "parent": e["args"]["parent"], "name": e["name"],
         "ts": e["ts"], "dur": e["dur"]}
        for e in events if e.get("ph") == "X"
    ]


class Rep:
    """Outcome of one repetition: the driver's JSON (if any) and why it failed.

    traced and layer_self (per-layer self time of its spans) are filled in by
    run.py for traced repetitions.
    """

    def __init__(self, data=None, failure=None, wall_s=0.0):
        self.data = data
        self.failure = failure
        self.wall_s = wall_s
        self.traced = False
        self.layer_self = None

    @property
    def ok(self):
        return self.failure is None


def run_child(cmd, timeout_s):
    """Runs one repetition; any abort, timeout, bad output or failed check is a failure.

    The child's stderr is passed through. The last stdout line must be one
    JSON object whose "checks_failed" list is empty.
    """
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return Rep(failure="timed out after %.0f s" % timeout_s,
                   wall_s=time.monotonic() - start)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        if proc.returncode < 0:
            try:
                reason = "killed by %s" % signal.Signals(-proc.returncode).name
            except ValueError:
                reason = "killed by signal %d" % -proc.returncode
        else:
            reason = "exit code %d" % proc.returncode
        return Rep(failure=reason, wall_s=wall)
    lines = proc.stdout.strip().splitlines()
    try:
        data = json.loads(lines[-1])
    except (IndexError, ValueError):
        return Rep(failure="no JSON result", wall_s=wall)
    if data.get("checks_failed"):
        return Rep(data=data, failure="; ".join(data["checks_failed"]), wall_s=wall)
    return Rep(data=data, wall_s=wall)
