#!/usr/bin/env python3
"""DALTA end-to-end benchmark (see dalta_bench/README.md).

    python3 dalta_bench/run.py --workload bsb-n12 --seed 1 --seconds 10 --trace 0
    python3 dalta_bench/run.py --self-test [--seed 1]

Run from anywhere inside a checkout of the repository. The first run builds
the libraries under src/ and the harness into .bench_build/ at the checkout
root. A run prints informational JSON lines and, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer ledger with --trace 1.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "dalta_bench")
BINARY = os.path.join(BUILD, "dalta_bench")
WORKLOADS = ("bsb-n12", "pack-n12", "screen-n16")
CHILD_TIMEOUT_S = 160

END_TO_END = {
    "setup_s": "s",
    "decompose_s": "s",
    "cop_solves_per_s": "1/s",
    "med": "MED",
    "verified_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "funcs.table_s": "s",
    "bdd.screen_s": "s",
    "bdd.partitions_ranked": "count",
    "core.cop_build_s": "s",
    "core.cop_builds": "count",
    "core.to_ising_us.p50": "us",
    "core.solve_s": "s",
    "core.solve_calls": "count",
    "core.solve_ms.p50": "ms",
    "core.solve_ms.p90": "ms",
    "ising.iterations": "count",
    "ising.iterations_per_s": "1/s",
    "ising.early_stop_ratio": "ratio",
    "core.commit_s": "s",
    "boolean.error_metrics_s": "s",
    "lut.verify_s": "s",
    "support.fanout_wall_s": "s",
    "support.pool_occupancy": "ratio",
    "support.pool_idle_s": "s",
    "support.threads": "count",
    "ledger.sample_screen.share": "ratio",
    "ledger.cop_build.share": "ratio",
    "ledger.fanout.share": "ratio",
    "ledger.commit.share": "ratio",
    "ledger.verify.share": "ratio",
    "ledger.unattributed.share": "ratio",
    "trace.overhead": "ratio",
}

LEDGER_PHASES = ("sample_screen", "cop_build", "fanout", "commit", "verify")

# The host probe's reading (harness.cpp, host_probe_ms) at a 4 GHz clock.
# The end-to-end times are rescaled to that clock: a shared host's clock
# moved by up to 2x within minutes, which no run length averages out.
REFERENCE_PROBE_MS = 2.0


def fail(msg, code):
    print(f"dalta_bench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources at {os.path.join(ROOT, 'src')}; "
             "run from a full checkout", 2)
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd), 3)


def run_child(args):
    """Runs the harness; returns (exit code or None on timeout, events)."""
    proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE, cwd=ROOT,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        code = None
    events = []
    for line in out.splitlines():
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return code, events


def of(events, kind):
    return [e for e in events if e.get("event") == kind]


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(events, decomps):
    verified = [d for d in decomps if d.get("ok")]
    timed = [d for d in verified if d.get("timed")]
    measured = of(events, "measured")
    setup = of(events, "setup")
    rss = of(events, "rss")
    probe = of(events, "probe")
    first_med = {}
    for d in verified:
        first_med.setdefault((d["fn"], d["slot"]), d["med"])
    wall = {
        "setup_s": statistics.median(setup[0]["seconds"]) if setup else 0.0,
        "decompose_s": (statistics.median(d["seconds"] for d in timed)
                        if timed else 0.0),
        "cop_solves_per_s": (sum(d["cop_solves"] for d in timed) /
                             measured[0]["seconds"]) if measured else 0.0,
    }
    probe_ms = statistics.median(probe[0]["ms"]) if probe else 0.0
    scale = REFERENCE_PROBE_MS / probe_ms if probe_ms else 0.0
    metrics = {
        "setup_s": wall["setup_s"] * scale,
        "decompose_s": wall["decompose_s"] * scale,
        "cop_solves_per_s": wall["cop_solves_per_s"] / scale if scale else 0.0,
        "med": statistics.fmean(first_med.values()) if first_med else 0.0,
        "verified_ratio": len(verified) / max(1, len(decomps)),
        "peak_rss_mb": rss[0]["peak_mb"] if rss else 0.0,
    }
    return metrics, {"decompose_samples": len(timed),
                     "host_probe_ms": probe_ms, "wall": wall}


def per_layer(events, spans, threads):
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)

    def dur(s):
        return s["t1"] - s["t0"]

    def total(name):
        return sum(dur(s) for s in by[name])

    tables = defaultdict(float)
    for s in by["funcs.table"]:
        tables[s["d"]] += dur(s)
    solves = by["core.solve"] + by["core.solve_batch"]
    solve_s = sum(dur(s) for s in solves)
    solve_ms = [1e3 * dur(s) for s in solves] or [0.0]
    iterations = sum(s["a"] for s in solves)
    early = sum(s["b"] for s in solves)
    traced = [d for d in of(events, "decomposition") if d.get("traced")]
    cop_solves = sum(d.get("cop_solves", 0) for d in traced)
    fan_wall = total("phase.fanout")
    fan_busy = sum(s["a"] for s in by["phase.fanout"])
    probes = [us for e in of(events, "to_ising") for us in e["us"]] or [0.0]

    wall = total("core.decompose")
    shares = {p: total("phase." + p) / wall if wall else 0.0
              for p in LEDGER_PHASES}

    # Tracing overhead: each traced replay against the median of the same
    # problem's untraced decompositions in this run.
    untraced = defaultdict(list)
    for d in of(events, "decomposition"):
        if not d.get("traced") and d.get("ok"):
            untraced[(d["fn"], d["slot"])].append(d["seconds"])
    traced_s = sum(d["seconds"] for d in traced if d.get("ok"))
    base = sum(statistics.median(untraced[(d["fn"], d["slot"])])
               for d in traced if d.get("ok") and untraced[(d["fn"], d["slot"])])

    m = {
        "funcs.table_s": statistics.median(tables.values()) if tables else 0.0,
        "bdd.screen_s": total("bdd.screen"),
        "bdd.partitions_ranked": sum(s["a"] for s in by["bdd.screen"]),
        "core.cop_build_s": total("core.cop_build"),
        "core.cop_builds": len(by["core.cop_build"]),
        "core.to_ising_us.p50": statistics.median(probes),
        "core.solve_s": solve_s,
        "core.solve_calls": len(solves),
        "core.solve_ms.p50": nearest_rank(solve_ms, 0.5),
        "core.solve_ms.p90": nearest_rank(solve_ms, 0.9),
        "ising.iterations": iterations,
        "ising.iterations_per_s": iterations / solve_s if solve_s else 0.0,
        "ising.early_stop_ratio": early / cop_solves if cop_solves else 0.0,
        "core.commit_s": total("phase.commit") + total("core.objective"),
        "boolean.error_metrics_s": total("boolean.error_metrics"),
        "lut.verify_s": total("lut.verify"),
        "support.fanout_wall_s": fan_wall,
        "support.pool_occupancy":
            fan_busy / (threads * fan_wall) if fan_wall else 0.0,
        "support.pool_idle_s": max(0.0, threads * fan_wall - fan_busy),
        "support.threads": threads,
        "trace.overhead": traced_s / base - 1.0 if base else 0.0,
    }
    for p in LEDGER_PHASES:
        m[f"ledger.{p}.share"] = shares[p]
    m["ledger.unattributed.share"] = 1.0 - sum(shares.values())
    info = {"solve_calls": len(solves),
            "solve_ms_p90_low_sample": len(solves) < 100}
    return m, info


def bench(args):
    build()
    os.makedirs(os.path.join(ROOT, ".bench_build", "spans"), exist_ok=True)
    spans_path = os.path.join(ROOT, ".bench_build", "spans",
                              f"{args.workload}-{args.seed}.jsonl")
    if os.path.exists(spans_path):
        os.remove(spans_path)
    code, events = run_child(
        ["run", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--spans", spans_path])

    decomps = of(events, "decomposition")
    # A decomposition that began but never reported (the process died or
    # timed out mid-run) counts as failed, not as dropped.
    attempted = len(of(events, "begin"))
    failed = sum(1 for d in decomps if not d.get("ok")) + \
        (attempted - len(decomps))
    hosts = of(events, "host")
    host = hosts[0] if hosts else {}
    info = {"workload": args.workload, "seed": args.seed,
            "exit_code": code, "host": host}
    for d in decomps:
        if not d.get("ok"):
            info.setdefault("failures", []).append(
                {"fn": d["fn"], "slot": d["slot"], "reason": d.get("reason")})

    correct = code == 0 and failed == 0 and attempted > 0
    if args.trace:
        parity = of(events, "parity")
        gaps = [p for p in parity if not p.get("ok")]
        if gaps or not parity:
            # The replay no longer mirrors run_dalta: every per-layer number
            # of this workload is invalid.
            info["per_layer_valid"] = False
            info["divergence"] = gaps[0] if gaps else "no parity record"
            correct = False
        spans = []
        if os.path.exists(spans_path):
            with open(spans_path) as f:
                spans = [json.loads(line) for line in f if line.strip()]
        if spans:
            metrics, extra = per_layer(events, spans, host.get("threads", 1))
            info.update(extra)
        else:
            metrics = {name: 0.0 for name in PER_LAYER}
            correct = False
        units = PER_LAYER
    else:
        metrics, extra = end_to_end(events, decomps)
        info.update(extra)
        units = END_TO_END

    print(json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def self_test(args):
    build()
    code, events = run_child(["selftest", "--seed", str(args.seed),
                              "--seed2", str(args.seed + 1)])
    for e in of(events, "selftest"):
        print(json.dumps(e))
    ok = code == 0 and len(of(events, "selftest")) > 0
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="packed-equals-looped check at a reduced size")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if args.self_test:
        return self_test(args)
    if args.workload is None:
        ap.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
