#!/usr/bin/env python3
"""PerfBench.Smoke: every workload, untraced and traced, at a tiny scale.

    python3 bench/perf/smoke.py [--bin .bench_build/perf/etbench]

Runs run.py for each workload of BENCHMARK.json with --trace 0 and 1 (both
kernels run in each), and checks that the run passes its correctness gate
and that every metric BENCHMARK.json names for that mode is emitted, finite
and carries its unit. Exits 1 on the first problem.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bin", help="prebuilt etbench")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   workload, "--seconds", "0.3", "--span-scale", "0.02",
                   "--trace", str(trace)]
            if args.bin:
                cmd += ["--bin", args.bin]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=120)
            where = f"{workload} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: run.py exited {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: correctness gate failed")
            wanted = spec["per_layer" if trace else "end_to_end"]
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{where}: {m['name']} missing")
                elif got.get("unit") != m["unit"]:
                    problems.append(f"{where}: {m['name']} unit {got.get('unit')}")
                elif not math.isfinite(got.get("value", math.nan)):
                    problems.append(f"{where}: {m['name']} not finite")
            print(f"{where}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} ops checked")
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
