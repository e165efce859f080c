#!/usr/bin/env python3
"""A/B check that a change moves no simulated outcome.

    python3 tools/digest_ab.py --base ../parent --head . --seeds 11 12 [--jobs 2]

Builds bench/perf's `etbench` for two source trees (each under its own
`.bench_build/perf/`, as bench/perf/run.py does) and runs `etbench sim` on
both fields (sparse_100k, dense_6k) x both kernels (serial, parallel:3) x
every seed, untraced. For each run it compares the two trees' deterministic
counts (`sim.events` included) and per-second state digests. Prints one line
per run, with each tree's peak RSS for information, and exits 0 when every
run matches, 1 on any difference, 2 on a build or usage error.
"""

import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

FIELDS = ("sparse_100k", "dense_6k")
KERNELS = ("serial", "parallel:3")
# A run that takes longer than this is treated as hung.
RUN_TIMEOUT_S = 600


class ToolError(Exception):
    """A build or usage failure: exit 2."""


def log(message):
    print(f"[digest_ab] {message}", file=sys.stderr, flush=True)


def build(tree, jobs):
    """Builds `tree`'s etbench and returns its path."""
    tree = Path(tree).resolve()
    source = tree / "bench" / "perf"
    if not (source / "CMakeLists.txt").is_file():
        raise ToolError(f"{tree}: no bench/perf/CMakeLists.txt")
    out = tree / ".bench_build" / "perf"
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(source), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise ToolError(f"{tree}: cmake configure failed")
    cmd = ["cmake", "--build", str(out), "-j", str(jobs), "--target", "etbench"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise ToolError(f"{tree}: build failed")
    return out / "etbench"


def run_sim(binary, field, kernel, seed):
    """Runs one untraced `etbench sim`; returns (counts, digests, RSS MB)."""
    cmd = [str(binary), "sim", field, kernel, "--seed", str(seed),
           "--trace", "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ToolError(f"{' '.join(cmd)}: timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise ToolError(f"{' '.join(cmd)}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    return (result["counts"], result["digests"],
            result["metrics"]["peak_rss_mb"])


def differences(base, head):
    """Lists how two runs' counts and digests differ."""
    (base_counts, base_digests, _), (head_counts, head_digests, _) = base, head
    out = []
    for key in sorted(set(base_counts) | set(head_counts)):
        if base_counts.get(key) != head_counts.get(key):
            out.append(f"{key}: {base_counts.get(key)} -> "
                       f"{head_counts.get(key)}")
    if len(base_digests) != len(head_digests):
        out.append(f"{len(base_digests)} -> {len(head_digests)} digests")
    for i, (a, b) in enumerate(zip(base_digests, head_digests)):
        if a != b:
            out.append(f"digest of second {i + 1} differs")
            break
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="source tree A")
    parser.add_argument("--head", required=True, help="source tree B")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--jobs", type=int, default=1,
                        help="runs in flight at once (each holds one field)")
    args = parser.parse_args()
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    try:
        build_jobs = min(4, os.cpu_count() or 1)
        binaries = {"base": build(args.base, build_jobs),
                    "head": build(args.head, build_jobs)}
        cases = [(field, kernel, seed) for seed in args.seeds
                 for field in FIELDS for kernel in KERNELS]
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            futures = {(case, side): pool.submit(run_sim, binary, *case)
                       for case in cases
                       for side, binary in binaries.items()}
            mismatches = 0
            for case in cases:
                base = futures[(case, "base")].result()
                head = futures[(case, "head")].result()
                diff = differences(base, head)
                field, kernel, seed = case
                name = f"{field} {kernel} seed {seed}"
                rss = f"peak RSS {base[2]:.1f} -> {head[2]:.1f} MB"
                if diff:
                    mismatches += 1
                    print(f"DIFFER {name}: " + "; ".join(diff) + f"; {rss}",
                          flush=True)
                else:
                    events = base[0].get("sim.events")
                    print(f"same   {name}: {len(base[1])} digests, "
                          f"{len(base[0])} counts, sim.events {events:.0f}; "
                          f"{rss}", flush=True)
    except ToolError as err:
        log(str(err))
        return 2
    print(f"{len(cases) - mismatches} of {len(cases)} runs identical")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
