#!/usr/bin/env python3
"""Compares two sets of perf benchmark results (python3, stdlib only).

    python3 bench/perf/compare.py BASE_DIR CHANGE_DIR

Each directory holds result files written by `run.py --out`, one run per
file. Runs are paired in file-name order (name them so that order is the
order they ran in, alternating base and change). For every (workload,
metric) the report gives each side's median and quartiles, the bound from
BENCHMARK.json, the share of pairs the change won, and a verdict:

  regressed   the change's median is worse than the base's by more than
              the bound
  unresolved  a side's spread (quartile distance over median) exceeds the
              bound, and not every change run beats every base run
  improved    the change won at least 9 in 10 pairs and the medians differ
              by more than the base's quartile distance
  unchanged   otherwise

Per-layer metrics have no bound. They get "improved" or "worse" by the
same pair rule as above (either way round), and "-" otherwise; they never
fail the comparison. Exits 1 when any
end-to-end metric is regressed or unresolved, a run failed its checks, or
the two sides hold different numbers of runs of a workload (pairs need
one run of each side).
"""

import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        key = (record["workload"], record["trace"])
        runs.setdefault(key, []).append(record)
    return runs


def quartiles(values):
    """Q1, median, Q3 as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def share(part, whole):
    """part / |whole|, where 0 / 0 is 0 and anything else over 0 is inf."""
    if whole == 0:
        return 0.0 if part == 0 else math.inf
    return part / abs(whole)


def verdict(base, change, bound, higher_better):
    b1, bmed, b3 = quartiles(base)
    c1, cmed, c3 = quartiles(change)
    sign = 1.0 if higher_better else -1.0
    worse_by = share(sign * (bmed - cmed), bmed)
    pairs = list(zip(base, change))
    win_share = sum(1 for b, c in pairs if sign * (c - b) > 0) / len(pairs)
    loss_share = sum(1 for b, c in pairs if sign * (b - c) > 0) / len(pairs)
    spread = max(share(b3 - b1, bmed), share(c3 - c1, cmed))
    all_better = all(sign * (c - b) > 0 for b in base for c in change)
    # The gain rule of the choosing-metrics guide (section 8), both ways.
    gained = win_share >= 0.9 and sign * (cmed - bmed) > b3 - b1
    lost = loss_share >= 0.9 and sign * (bmed - cmed) > b3 - b1
    if bound is None:
        label = "improved" if gained else "worse" if lost else "-"
    elif worse_by > bound:
        label = "regressed"
    elif spread > bound and not all_better:
        label = "unresolved"
    elif gained:
        label = "improved"
    else:
        label = "unchanged"
    return (b1, bmed, b3), (c1, cmed, c3), spread, win_share, worse_by, label


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(sys.argv[1]), load(sys.argv[2])
    bad = 0
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        b_runs, c_runs = base[key], change[key]
        failed = [r for r in b_runs + c_runs if not r["correct"]]
        bad += len(failed)
        print(f"\n{workload} (trace={trace}): {len(b_runs)} base runs, "
              f"{len(c_runs)} change runs, {len(failed)} failed checks")
        if len(b_runs) != len(c_runs):
            bad += 1
            print(f"ERROR: unequal run counts; the win share covers only the "
                  f"first {min(len(b_runs), len(c_runs))} pairs")
        print(f"{'metric':<34} {'base q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'bound':>6} {'spread':>7} "
              f"{'wins':>5} {'worse':>7}  verdict")
        for name in b_runs[0]["metrics"]:
            if name not in meta:
                continue
            m = meta[name]
            bv = [r["metrics"][name]["value"] for r in b_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs
                  if name in r["metrics"]]
            if not cv:
                continue
            bq, cq, spread, wins, worse, label = verdict(
                bv, cv, m.get("bound"), m["better"] == "higher")
            if label in ("regressed", "unresolved"):
                bad += 1
            bound = f"{m['bound']:.2f}" if "bound" in m else "-"
            print(f"{name:<34} {bq[0]:>10.4g}/{bq[1]:<10.4g}/{bq[2]:<9.4g} "
                  f"{cq[0]:>10.4g}/{cq[1]:<10.4g}/{cq[2]:<9.4g} {bound:>6} "
                  f"{spread:>7.3f} {wins:>5.2f} {worse:>+7.3f}  {label}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
