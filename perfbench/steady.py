#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the command from BENCHMARK.json several times per workload, taking
turns between workloads, once with one fixed seed and once with a new
seed per run. For every end-to-end metric it prints the median, the
first and third quartiles (as `statistics.quantiles(values, n=4)` gives
them) and the spread IQR / median, next to the metric's bound, plus the
host reference loop (`host_ref_ms`) each run measured between its
repetitions.

Run from the repository root:

    python3 perfbench/steady.py                      # 10 runs each, both modes
    python3 perfbench/steady.py --runs 5 --mode distinct --workloads drift_push
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

# The seed of every run in the fixed mode, and of the first run in the
# distinct mode (the k-th run uses FIRST_SEED + k).
FIXED_SEED = 1
FIRST_SEED = 101


def run_once(command, workload, seed, seconds):
    """Runs one benchmark run; returns (info, result, elapsed seconds)."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"run failed ({proc.returncode}): {' '.join(args)}\n{proc.stderr}")
    return json.loads(lines[-2])["info"], json.loads(lines[-1]), elapsed


def spread(values):
    """(median, q1, q3, IQR / median) of `values`."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--mode", choices=["fixed", "distinct", "both"], default="both")
    parser.add_argument("--workloads", nargs="*")
    opts = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    workloads = opts.workloads or [w["name"] for w in bench["workloads"]]
    # The bounds hold at this run length only.
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    modes = ["fixed", "distinct"] if opts.mode == "both" else [opts.mode]

    for mode in modes:
        values = {w: {} for w in workloads}
        refs = {w: [] for w in workloads}
        for k in range(opts.runs):
            # Alternate workloads, so a slow patch of the host touches
            # every workload instead of one.
            for w in workloads:
                seed = FIXED_SEED if mode == "fixed" else FIRST_SEED + k
                info, result, elapsed = run_once(bench["command"], w, seed, seconds)
                if not result["correct"] or result["failed"]:
                    sys.exit(f"{w} seed {seed}: incorrect result {result}")
                for name, m in result["metrics"].items():
                    values[w].setdefault(name, []).append(m["value"])
                refs[w].append(info["host_ref_ms"])
                shown = ", ".join(f"{name} {m['value']:.4g}"
                                  for name, m in result["metrics"].items())
                print(f"# {mode} {w} seed {seed}: {elapsed:.1f} s, "
                      f"{info['repetitions']} repetitions, "
                      f"host_ref_ms {info['host_ref_ms']:.3f}; {shown}", flush=True)
        print(f"\n## {mode} seed{'s' if mode == 'distinct' else ''}, "
              f"{opts.runs} runs of {seconds} s per workload\n")
        print(f"| workload | metric | median | q1 | q3 | IQR/median | bound |")
        print(f"|---|---|---|---|---|---|---|")
        for w in workloads:
            for name, vals in values[w].items():
                med, q1, q3, s = spread(vals)
                print(f"| {w} | {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                      f"{s:.3f} | {bounds.get(name, '')} |")
            med, q1, q3, s = spread(refs[w])
            print(f"| {w} | host_ref_ms | {med:.4g} | {q1:.4g} | {q3:.4g} | {s:.3f} | |")
        print(flush=True)


if __name__ == "__main__":
    main()
