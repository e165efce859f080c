#!/usr/bin/env python3
"""A/B check that a change moves no simulated outcome.

    python3 tools/digest_ab.py --base ../parent --head . --seeds 11 12 [--jobs 2]
    python3 tools/digest_ab.py --base ../parent --head . --outputs [--jobs 2]
    python3 tools/digest_ab.py --base ../parent --head . --serve [--seeds 11 12]

With --seeds, builds bench/perf's `etbench` for two source trees (each under
its own `.bench_build/perf/`, as bench/perf/run.py does) and runs `etbench
sim` on both fields (sparse_100k, dense_6k) x both kernels (serial,
parallel:3) x every seed, untraced. For each run it compares the two trees'
deterministic counts (`sim.events` included) and per-second state digests,
printing each tree's peak RSS for information.

With --outputs, builds the tier-1 tree on each side (under `<tree>/build-ab/`)
and diffs the outputs that must not move, each at its default seeds:
chaos_sweep with 1 and 4 sweep threads and on the parallel:4 kernel (the
thread-count line normalised, as CI does), the seven figure benches,
examples/fire_monitoring, the verdicts of `ctest -R '^ChaosCorpus'`, and
`chaos_fuzz --seed 1`'s per-trial verdict lines with wall-clock fields
masked. Exit codes are part of each compared output.

With --serve, builds `etbench` for both trees as --seeds does and, for each
seed (11, 12 and 13 unless --seeds is given), runs `etbench serve read_heavy`
and `etbench serve write_heavy --seconds 3` on each tree, one run at a time,
alternating which tree goes first. It prints each run's peak RSS, store fill
time (`setup.store_fill_s`) and ingest rate (`serve.ingest_rps`), then each
tree's medians: a store change sees the store phase's memory and the closed-
loop writer's rate (which sizes the serve phase's own buffers) before the
full benchmark. Nothing is compared for equality; the exit is 1 when any run
reports a failed operation.

Prints one line per run or output, and exits 0 when everything matches, 1 on
any difference, 2 on a build or usage error.
"""

import argparse
import json
import os
import re
import statistics
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


def compare_sims(args):
    """The --seeds mode; returns the number of differing runs."""
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
    print(f"{len(cases) - mismatches} of {len(cases)} runs identical")
    return mismatches


SERVE_RUNS = (("read_heavy", ()), ("write_heavy", ("--seconds", "3")))
SERVE_SEEDS = (11, 12, 13)


def run_serve(binary, mix, extra, seed):
    """Runs one untraced `etbench serve`; returns (failed ops, metrics)."""
    cmd = [str(binary), "serve", mix, "--seed", str(seed), "--trace", "0",
           *extra]
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
    return result["failed"], result["metrics"]


def serve_line(metrics):
    return (f"peak RSS {metrics['peak_rss_mb']:.1f} MB, store fill "
            f"{metrics['setup.store_fill_s'] * 1e3:.1f} ms, ingest "
            f"{metrics['serve.ingest_rps'] / 1e6:.2f} M reports/s")


def compare_serve(args):
    """The --serve mode; returns the number of failed operations."""
    build_jobs = min(4, os.cpu_count() or 1)
    binaries = {"base": build(args.base, build_jobs),
                "head": build(args.head, build_jobs)}
    runs = {(mix, side): [] for mix, _ in SERVE_RUNS for side in binaries}
    failed = 0
    for i, seed in enumerate(args.seeds or SERVE_SEEDS):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for mix, extra in SERVE_RUNS:
            for side in order:
                fails, metrics = run_serve(binaries[side], mix, extra, seed)
                failed += fails
                runs[(mix, side)].append(metrics)
                note = f"; {fails} failed operations" if fails else ""
                print(f"{mix:<11} seed {seed} {side}: {serve_line(metrics)}"
                      f"{note}", flush=True)
    for (mix, side), samples in runs.items():
        medians = {name: statistics.median(m[name] for m in samples)
                   for name in ("peak_rss_mb", "setup.store_fill_s",
                                "serve.ingest_rps")}
        print(f"median {mix:<11} {side}: {serve_line(medians)}")
    print(f"{failed} failed operations")
    return failed


FIGURE_BENCHES = ("fig3_trajectory", "fig4_handover", "fig5_timers",
                  "fig6_ratio", "table1_comm", "ablation_group_mgmt",
                  "baseline_compare")
FUZZ_TRIALS = 2000
# What the benches read from the environment; cleared so that every output
# runs at its defaults unless the output sets it.
BENCH_ENV = ("ET_KERNEL", "ET_BENCH_SEEDS", "ET_BENCH_THREADS",
             "ET_BENCH_JSON_DIR", "ET_BENCH_CSV_DIR")
# The fuzz campaign runs for minutes; an output slower than this is hung.
OUTPUT_TIMEOUT_S = 3600


def build_tier1(tree, jobs):
    """Builds the targets behind every output of `tree`; returns the dir."""
    tree = Path(tree).resolve()
    if not (tree / "CMakeLists.txt").is_file():
        raise ToolError(f"{tree}: no CMakeLists.txt")
    out = tree / "build-ab"
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(tree), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise ToolError(f"{tree}: cmake configure failed")
    cmd = ["cmake", "--build", str(out), "-j", str(jobs), "--target",
           "chaos_sweep", *FIGURE_BENCHES, "fire_monitoring", "chaos_fuzz",
           "et_test_chaos_corpus"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise ToolError(f"{tree}: build failed")
    (out / "fuzz-out").mkdir(exist_ok=True)
    return out


def sweep_threads(text):
    """The sweep's thread count is the one line allowed to differ."""
    return re.sub(r"[0-9]* sweep threads", "N sweep threads", text)


def ctest_verdicts(text):
    """Each test's name and result, sorted: numbers and timings move."""
    verdicts = re.findall(r"Test +#[0-9]+: (\S+) \.+ *(.*?) +[0-9.]+ sec",
                          text)
    lines = sorted(f"{name} {result}" for name, result in verdicts)
    lines += re.findall(r".*tests passed.*", text)
    return "".join(line + "\n" for line in lines)


def fuzz_verdicts(text):
    """Masks the campaign's wall-clock time and rate."""
    return re.sub(r"[0-9.]+ wall s \([0-9]+ trials/hour\)",
                  "<wall> wall s (<rate> trials/hour)", text)


def outputs(build_dir):
    """(name, argv, environment, normaliser) of every compared output."""
    sweep = [str(build_dir / "bench" / "chaos_sweep")]
    return [
        ("chaos_sweep 1 thread", sweep, {"ET_BENCH_THREADS": "1"},
         sweep_threads),
        ("chaos_sweep 4 threads", sweep, {"ET_BENCH_THREADS": "4"},
         sweep_threads),
        ("chaos_sweep parallel:4", sweep,
         {"ET_KERNEL": "parallel:4", "ET_BENCH_THREADS": "1"},
         sweep_threads),
        *[(name, [str(build_dir / "bench" / name)], {}, None)
          for name in FIGURE_BENCHES],
        ("fire_monitoring", [str(build_dir / "examples" / "fire_monitoring")],
         {}, None),
        ("ctest ChaosCorpus",
         ["ctest", "--test-dir", str(build_dir), "-R", "^ChaosCorpus"], {},
         ctest_verdicts),
        ("chaos_fuzz --seed 1",
         [str(build_dir / "tools" / "chaos_fuzz"), "--seed", "1", "--trials",
          str(FUZZ_TRIALS), "--verbose", "--out",
          str(build_dir / "fuzz-out")], {}, fuzz_verdicts),
    ]


def run_output(build_dir, argv, extra_env, normalise):
    """Runs one output from `build_dir`; returns its text and exit code."""
    env = {k: v for k, v in os.environ.items() if k not in BENCH_ENV}
    env.update(extra_env)
    try:
        proc = subprocess.run(argv, cwd=build_dir, env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=OUTPUT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ToolError(f"{' '.join(argv)}: timed out")
    except OSError as err:
        raise ToolError(f"{' '.join(argv)}: {err}")
    text = normalise(proc.stdout) if normalise else proc.stdout
    return text + f"exit {proc.returncode}\n"


def first_difference(base, head):
    base_lines, head_lines = base.splitlines(), head.splitlines()
    for i, (a, b) in enumerate(zip(base_lines, head_lines)):
        if a != b:
            return f"line {i + 1}: {a!r} -> {b!r}"
    return f"{len(base_lines)} -> {len(head_lines)} lines"


def compare_outputs(args):
    """The --outputs mode; returns the number of differing outputs."""
    build_jobs = min(4, os.cpu_count() or 1)
    dirs = {"base": build_tier1(args.base, build_jobs),
            "head": build_tier1(args.head, build_jobs)}
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        futures = {side: [(name, pool.submit(run_output, build_dir, argv, env,
                                             normalise))
                          for name, argv, env, normalise in outputs(build_dir)]
                   for side, build_dir in dirs.items()}
        mismatches = 0
        for (name, base), (_, head) in zip(futures["base"], futures["head"]):
            base_text, head_text = base.result(), head.result()
            if base_text != head_text:
                mismatches += 1
                print(f"DIFFER {name}: "
                      f"{first_difference(base_text, head_text)}", flush=True)
            else:
                lines = len(base_text.splitlines())
                print(f"same   {name}: {lines} lines", flush=True)
    total = len(futures["base"])
    print(f"{total - mismatches} of {total} outputs identical")
    return mismatches


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="source tree A")
    parser.add_argument("--head", required=True, help="source tree B")
    parser.add_argument("--seeds", type=int, nargs="+",
                        help="compare etbench sim runs at these seeds "
                        "(with --serve: the serve runs' seeds)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--outputs", action="store_true",
                      help="compare the tier-1 benches' and tools' outputs")
    mode.add_argument("--serve", action="store_true",
                      help="report both trees' serve-phase memory and rates")
    parser.add_argument("--jobs", type=int, default=1,
                        help="runs in flight at once (--seeds, --outputs)")
    args = parser.parse_args()
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.outputs and args.seeds:
        parser.error("--outputs takes no --seeds")
    if not (args.outputs or args.serve or args.seeds):
        parser.error("give --seeds, --outputs or --serve")

    try:
        if args.serve:
            problems = compare_serve(args)
        elif args.outputs:
            problems = compare_outputs(args)
        else:
            problems = compare_sims(args)
    except ToolError as err:
        log(str(err))
        return 2
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
