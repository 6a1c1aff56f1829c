#!/usr/bin/env python3
"""nvmgc benchmark: one command, four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload churn|serve|tiered|fleet \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Builds the driver (perfbench/driver.cc plus the
library sources under src/) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then runs repetitions of the workload, each in its
own process, for --seconds seconds and reports medians over repetitions.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced repetitions and prints the per-layer metrics, the per-layer self-time
table and the Chrome-trace path. The last stdout line is always one JSON
object: {"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

# Default seed per workload; HELD_OUT_SEED is reserved for confirming claims
# and must not be used while tuning a change.
DEFAULT_SEEDS = {"churn": 101, "serve": 202, "tiered": 303, "fleet": 404}
HELD_OUT_SEED = 9001

# serve's latency limit: max_kqps_at_slo is the highest grid rate whose read
# p99 (and end-of-phase backlog) stays within it.
P99_LIMIT_MS = 15.0
# Pause tails need >= 100 pauses (p90 with 10 beyond); request tails need
# >= 10000 requests (p99.9 with 10 beyond).
MIN_PAUSES = 100
MIN_OPS = 10000
WORKLOADS_WITH_OPS = ("serve", "fleet")

MIN_REPS = 3
MAX_REPS = 40
CHILD_TIMEOUT_S = 120.0
# Whole-run wall budget after the build; repetitions stop before it.
RUN_BUDGET_S = 170.0

# (name, unit) of the end-to-end metrics, printed with --trace 0. "sim" values
# are simulated time; "host" values are wall time of the simulator.
END_TO_END = [
    ("gc_s", "s"),                # sim: total GC pause time
    ("sim_total_s", "s"),         # sim: run time including GC
    ("pause_p50_ms", "ms"),       # sim: median pause
    ("pause_p90_ms", "ms"),       # sim: p90 pause (>= 10 pauses beyond)
    ("host_s", "s"),              # host: timed part at a fixed input size
    ("setup_s", "s"),             # host: Vm + workload state before timing
    ("host_peak_rss_mb", "MB"),   # host: peak resident memory of a repetition
]

# (name, unit) of the per-layer metrics, printed with --trace 1.
PER_LAYER = [
    ("gc.host_s", "s"), ("gc.host_ns_per_copied_kb", "ns/KB"),
    ("gc.read_phase_s", "s"), ("gc.writeback_phase_s", "s"),
    ("gc.pauses", "count"), ("gc.major_pauses", "count"), ("gc.copied_mb", "MB"),
    ("gc.refs_processed", "count"), ("gc.steals", "count"),
    ("core.cache_staged_frac", "ratio"), ("core.async_flush_frac", "ratio"),
    ("core.steal_tainted_frac", "ratio"), ("core.hm_installs", "count"),
    ("core.hm_overflow_frac", "ratio"),
    ("nvm.gc_read_mb", "MB"), ("nvm.gc_write_mb", "MB"), ("nvm.gc_bw_mbps", "MB/s"),
    ("nvm.nt_write_frac", "ratio"), ("nvm.prefetch_hit_frac", "ratio"),
    ("nvm.accesses", "count"), ("nvm.host_ns_per_access", "ns"),
    ("heap.promoted_mb", "MB"), ("heap.survivor_overflow_mb", "MB"),
    ("heap.old_reclaims", "count"),
    ("recovery.persist_s", "s"), ("recovery.flush_lines", "count"),
    ("recovery.fences", "count"), ("recovery.redo_entries", "count"),
    ("recovery.commit_mb", "MB"),
    ("runtime.host_s", "s"), ("runtime.app_sim_s", "s"), ("runtime.alloc_mb", "MB"),
    ("policy.decisions", "count"), ("policy.retreats", "count"),
    ("policy.final_gc_threads", "count"),
    ("fleet.stall_ms.serving", "ms"), ("fleet.stall_ms.batch", "ms"),
    ("fleet.stall_ms.background", "ms"), ("fleet.windows_throttled", "count"),
    ("fleet.pauses_deferred", "count"), ("fleet.device_mb.serving", "MB"),
    ("fleet.device_mb.batch", "MB"), ("fleet.device_mb.background", "MB"),
    ("batch_tasks_per_s", "tasks/s"),
    ("serve.backlog_ms", "ms"), ("max_kqps_at_slo", "kQPS"),
    ("op_p50_ms", "ms"), ("op_p99_ms", "ms"), ("op_p999_ms", "ms"),
    ("op_tail_ms", "ms"), ("op_tail_pct", "%"), ("op_samples", "count"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.self_s.setup", "s"), ("obs.self_s.workloads", "s"), ("obs.self_s.fleet", "s"),
    ("obs.self_s.gc", "s"), ("obs.self_s.verify", "s"),
    ("fail_frac", "ratio"),
]

# Per-layer values that are host time: taken from untraced repetitions only.
HOST_LAYER_KEYS = ("gc.host_ns_per_copied_kb", "nvm.host_ns_per_access")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_root):
    """Configures and builds the driver; returns its path or None on failure."""
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build step failed: %s" % " ".join(cmd))
            return None
    exe = os.path.join(build_dir, "nvmgc_perfbench")
    return exe if os.path.exists(exe) else None


def rep_check(workload, rep):
    """Benchmark-level checks on a repetition's output (sizes the tails need)."""
    if not rep.ok:
        return rep
    n = len(rep.data["pauses_ms"])
    if n < MIN_PAUSES:
        rep.failure = "only %d pauses (need %d for p90)" % (n, MIN_PAUSES)
    elif workload in WORKLOADS_WITH_OPS and rep.data.get("ops_ms", {}).get("count", 0) < MIN_OPS:
        rep.failure = "too few request samples for p99.9"
    return rep


def run_reps(exe, args, trace_dir):
    """Runs repetitions for --seconds; traced ones alternate when --trace 1."""
    start = time.monotonic()
    deadline = start + args.seconds
    reps = []
    while True:
        traced = args.trace == 1 and len(reps) % 2 == 1
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed)]
        spans_path = None
        if traced:
            spans_path = os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))
            run_id = "%s-seed%d-rep%d" % (args.workload, args.seed, len(reps))
            cmd += ["--spans", spans_path, "--run-id", run_id]
        timeout = min(CHILD_TIMEOUT_S, max(1.0, start + RUN_BUDGET_S - time.monotonic()))
        rep = rep_check(args.workload, harness.run_child(cmd, timeout))
        rep.traced = traced
        if rep.ok and traced:
            rep.layer_self = harness.layer_self_times(harness.spans_from_chrome_trace(spans_path))
        if rep.ok:
            log("perfbench: repetition %d%s: host_s %.4f setup_s %.4f"
                % (len(reps), " (traced)" if traced else "", rep.data["host_s"],
                   rep.data["setup_s"]))
        else:
            log("perfbench: repetition %d failed: %s" % (len(reps), rep.failure))
        reps.append(rep)
        now = time.monotonic()
        longest = max(r.wall_s for r in reps)
        if len(reps) >= MAX_REPS or now + longest > start + RUN_BUDGET_S:
            break
        if len(reps) >= MIN_REPS and now + longest > deadline:
            break
    return reps


def op_metrics(ok):
    """Request-latency percentiles (medians over repetitions) for serve and fleet."""
    ops = [r.data["ops_ms"] for r in ok if "ops_ms" in r.data]
    if not ops:
        return {}
    count = min(o["count"] for o in ops)
    tail_p, _ = harness.tail_percentile(int(count))
    return {
        "op_p50_ms": harness.median([o["50"] for o in ops]),
        "op_p99_ms": harness.median([o["99"] for o in ops]),
        "op_p999_ms": harness.median([o["99.9"] for o in ops]),
        # The driver keys its ladder as "%g" prints the percentile.
        "op_tail_ms": harness.median([o["%g" % tail_p] for o in ops]) if tail_p else 0.0,
        "op_tail_pct": tail_p or 0.0,
        "op_samples": count,
    }


def end_to_end(ok):
    med = lambda f: harness.median([f(r.data) for r in ok])  # noqa: E731
    return {
        "gc_s": med(lambda d: d["layers"]["sim.gc_s"]),
        "sim_total_s": med(lambda d: d["layers"]["sim.total_s"]),
        "pause_p50_ms": med(lambda d: harness.percentile(d["pauses_ms"], 50)),
        "pause_p90_ms": med(lambda d: harness.percentile(d["pauses_ms"], 90)),
        "host_s": med(lambda d: d["host_s"]),
        "setup_s": med(lambda d: d["setup_s"]),
        "host_peak_rss_mb": med(lambda d: d["peak_rss_mb"]),
    }


def per_layer(ok, sweep, fail_frac):
    plain = [r for r in ok if not r.traced] or ok
    traced = [r for r in ok if r.traced]
    out = {}
    for name, _ in PER_LAYER:
        src = plain if name in HOST_LAYER_KEYS else ok
        vals = [r.data["layers"][name] for r in src if name in r.data["layers"]]
        out[name] = harness.median(vals) if vals else 0.0
    out["gc.host_s"] = harness.median([r.data["gc_host_s"] for r in plain])
    out["runtime.host_s"] = harness.median([r.data["host_s"] - r.data["gc_host_s"] for r in plain])
    out.update(op_metrics(ok))
    out["max_kqps_at_slo"] = harness.max_rate_at_slo(sweep, P99_LIMIT_MS) if sweep else 0.0
    if traced:
        host_plain = harness.median([r.data["host_s"] for r in plain])
        out["obs.trace_overhead_frac"] = (
            harness.median([r.data["host_s"] for r in traced]) / host_plain - 1.0)
        for layer in ("setup", "workloads", "fleet", "gc", "verify"):
            # Chrome-trace times are microseconds.
            out["obs.self_s." + layer] = harness.median(
                [r.layer_self.get(layer, 0.0) / 1e6 for r in traced])
    out["fail_frac"] = fail_frac
    return out


def print_table(title, values, units):
    print(title)
    for name, unit in units:
        if name in values:
            print("  %-28s %14.6g  %s" % (name, values[name], unit))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default per workload; %d is held out)" % HELD_OUT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = build(build_root)
    if exe is None:
        return 2
    trace_dir = os.path.join(build_root, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    sweep, sweep_failed = None, 0
    if args.trace == 1 and args.workload == "serve":
        rep = harness.run_child([exe, "--workload", "serve", "--seed", str(args.seed), "--sweep"],
                                CHILD_TIMEOUT_S)
        if rep.ok:
            sweep = rep.data["sweep"]
        else:
            sweep_failed = 1
            log("perfbench: rate sweep failed: %s" % rep.failure)

    reps = run_reps(exe, args, trace_dir)
    ok = [r for r in reps if r.ok]
    attempted = len(reps) + (1 if args.trace == 1 and args.workload == "serve" else 0)
    failed = len(reps) - len(ok) + sweep_failed
    if not ok:
        log("perfbench: every repetition failed")
        return 1
    fail_frac = failed / attempted

    e2e = end_to_end(ok)
    print("workload %s  seed %d  repetitions %d (%d failed)  gc workers %d"
          % (args.workload, args.seed, len(reps), len(reps) - len(ok), ok[0].data["gc_workers"]))
    print_table("end-to-end (sim = simulated, host = simulator wall time)", e2e, END_TO_END)
    if args.trace == 0:
        extra = dict(op_metrics(ok), fail_frac=fail_frac)
        print_table("workload-specific (bound-free; per-layer in --trace 1)", extra,
                    [(n, u) for n, u in PER_LAYER if n in extra])
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    else:
        layers = per_layer(ok, sweep, fail_frac)
        self_rows = [(n, u) for n, u in PER_LAYER if n.startswith("obs.self_s.")]
        print_table("per-layer", layers, [m for m in PER_LAYER if m not in self_rows])
        print_table("host self time per layer (traced repetitions)", layers, self_rows)
        print("traced spans: %s (open in https://ui.perfetto.dev)"
              % os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed)))
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
