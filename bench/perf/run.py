#!/usr/bin/env python3
"""Perf benchmark runner: builds etbench, runs one workload, checks it.

    python3 bench/perf/run.py --workload sparse_100k.read_heavy \
        --seed 11 --seconds 30 --trace 0 [--out FILE]

A workload is a mote field and a store load, each run in fresh etbench
processes one after another: the field on the serial kernel, the field on
the parallel:3 kernel, then the store load. The field phases simulate the
fixed spans of their world, whatever the host's speed; the store load
measures for a third of --seconds. With --trace 0 the last stdout line
holds the end-to-end metrics of BENCHMARK.json. With --trace 1 the same
three processes run, then traced ones (wrappers armed, fields at a quarter
of their spans, Chrome traces written under .bench_build/perf/traces/), and
the last line holds the per-layer metrics: speeds from the untraced
processes, everything else from the traced ones.

The run fails (exit 1, "correct": false) when any phase reports a failed
operation, or when the serial and parallel:3 runs of the field disagree on
any per-second state digest or deterministic count. Build and usage errors
exit 2 without a result line.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "perf"

# workload -> (mote field, store load, default seed)
WORKLOADS = {
    "sparse_100k.read_heavy": ("sparse_100k", "read_heavy", 11),
    "dense_6k.write_heavy": ("dense_6k", "write_heavy", 12),
}
# Traced runs simulate this share of the fields' spans.
TRACED_SPAN = 0.25
# A phase that takes longer than this is treated as hung.
PHASE_TIMEOUT_S = 170


class BenchError(Exception):
    """A build, usage or harness failure: no result line is printed."""


def log(message):
    print(f"[perf] {message}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "core" / "system.hpp").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "etbench"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return BUILD / "etbench"


def run_phase(binary, name, argv, seed, traced, span_scale, tag):
    """Runs one etbench process and returns its parsed result."""
    logs = BUILD / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), *argv, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    if traced:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{tag}-{name}.json")]
    if span_scale != 1.0:
        cmd += ["--span-scale", repr(span_scale)]
    log_path = logs / f"{tag}-{name}.log"
    with open(log_path, "w") as err:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err,
                                  text=True, timeout=PHASE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{name}: timed out (log: {log_path})")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{name}: exit {proc.returncode} (log: {log_path})")
    return json.loads(lines[-1])


def compare_kernels(serial, par3, gate):
    """Serial and parallel:3 must agree on every per-second digest and on
    every deterministic count; each simulated second is one op."""
    a, b = serial["digests"], par3["digests"]
    gate["attempted"] += max(len(a), len(b))
    if len(a) != len(b):
        gate["failed"] += 1
        gate["errors"].append(
            f"serial ran {len(a)} timed seconds, parallel:3 ran {len(b)}")
    for i in range(min(len(a), len(b))):
        if a[i] != b[i]:
            gate["failed"] += 1
            gate["errors"].append(f"digest differs after timed second {i + 1}")
    for key, value in serial["counts"].items():
        if par3["counts"].get(key) != value:
            gate["failed"] += 1
            gate["errors"].append(
                f"count {key}: serial {value} != parallel:3 "
                f"{par3['counts'].get(key)}")


def run_workload(binary, workload, seed, seconds, traced, span_scale):
    world, mix, _ = WORKLOADS[workload]
    tag = f"{workload}-seed{seed}"
    gate = {"attempted": 0, "failed": 0, "errors": []}
    phases = {}

    def phase(name, argv, phase_traced, scale):
        result = run_phase(binary, name, argv, seed, phase_traced, scale, tag)
        gate["attempted"] += result["attempted"]
        gate["failed"] += result["failed"]
        gate["errors"] += [f"{name}: {e}" for e in result["errors"]]
        phases[name] = result
        return result

    # The untraced processes run in both modes: their timings are the
    # demoted speed metrics, and the reference for the tracing overhead.
    phase("sim-serial", ["sim", world, "serial"], False, span_scale)
    phase("sim-par3", ["sim", world, "parallel:3"], False, span_scale)
    phase("serve", ["serve", mix, "--seconds", repr(seconds / 3.0)], False,
          span_scale)
    compare_kernels(phases["sim-serial"], phases["sim-par3"], gate)
    if not traced:
        return gate, end_to_end(phases)

    scale = span_scale * TRACED_SPAN
    phase("sim-serial-traced", ["sim", world, "serial"], True, scale)
    phase("sim-par3-traced", ["sim", world, "parallel:3"], True, scale)
    phase("serve-traced", ["serve", mix, "--seconds", repr(seconds / 6.0)],
          True, span_scale)
    compare_kernels(phases["sim-serial-traced"], phases["sim-par3-traced"],
                    gate)
    return gate, per_layer(phases)


def end_to_end(p):
    untraced = [p["sim-serial"], p["sim-par3"], p["serve"]]
    return {
        "setup_s": sum(x["metrics"]["setup_s"] for x in untraced),
        "peak_rss_mb": max(x["metrics"]["peak_rss_mb"] for x in untraced),
    }


def per_layer(p):
    sim = p["sim-serial-traced"]["metrics"]
    par3 = p["sim-par3-traced"]["metrics"]
    serve = p["serve-traced"]["metrics"]
    metrics = {}
    for source in (sim, serve):
        metrics.update({k: v for k, v in source.items() if "." in k})
    metrics.update({k: v for k, v in par3.items()
                    if k.startswith("sim.kernel.")})
    # Speed metrics come from the untraced processes.
    serve_ref = p["serve"]["metrics"]
    metrics["sim.rate_serial"] = p["sim-serial"]["metrics"]["sim.rate"]
    metrics["sim.rate_par3"] = p["sim-par3"]["metrics"]["sim.rate"]
    for name in ("serve.query_p50_us", "serve.query_p99_us",
                 "serve.served_age_p99_ms", "serve.ingest_rps"):
        metrics[name] = serve_ref[name]
    cpu = sum(x["metrics"]["proc.cpu_s"] for x in p.values())
    wall = sum(x["metrics"]["proc.wall_s"] for x in p.values())
    metrics["proc.cpu_s"] = cpu
    metrics["proc.cpu_utilization"] = cpu / wall
    # Slowdown of the traced runs against the untraced ones, in percent. The
    # traced field simulates the first quarter of the untraced span, so it is
    # compared with the untraced slices of the same simulated seconds.
    traced_slices = p["sim-serial-traced"]["slices"]
    head = p["sim-serial"]["slices"][:len(traced_slices)]
    metrics["trace.sim_overhead_pct"] = 100.0 * (
        statistics.median(traced_slices) / statistics.median(head) - 1.0)
    metrics["trace.serve_overhead_pct"] = 100.0 * (
        serve["serve.query_p50_us"] / serve_ref["serve.query_p50_us"] - 1.0)
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the result to this file")
    parser.add_argument("--bin", help="prebuilt etbench (skips the build)")
    parser.add_argument("--span-scale", type=float, default=1.0,
                        help="scale the warm-ups and the fields' simulated "
                        "spans (smoke tests)")
    args = parser.parse_args()
    if not args.seconds > 0 or not args.span_scale > 0:
        parser.error("--seconds and --span-scale must be positive")
    seed = args.seed if args.seed is not None else WORKLOADS[args.workload][2]

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        binary = Path(args.bin) if args.bin else build()
        gate, metrics = run_workload(
            binary, args.workload, seed, args.seconds, bool(args.trace),
            args.span_scale)
        result_metrics = {}
        for m in wanted:
            value = metrics.get(m["name"])
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise BenchError(f"metric {m['name']} missing or not finite")
            result_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    except (BenchError, OSError, KeyError, ValueError) as e:
        log(f"error: {e}")
        return 2

    for e in gate["errors"][:20]:
        log(f"FAILED {e}")
    width = max(len(name) for name in result_metrics)
    print(f"# {args.workload} seed={seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, m in result_metrics.items():
        print(f"{name:<{width}}  {m['value']:>16.6g}  {m['unit']}")
    result = {
        "correct": gate["failed"] == 0,
        "attempted": gate["attempted"],
        "failed": gate["failed"],
        "metrics": result_metrics,
    }
    if args.out:
        record = dict(result, workload=args.workload, seed=seed,
                      trace=args.trace, seconds=args.seconds)
        Path(args.out).write_text(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
