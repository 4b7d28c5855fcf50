#!/usr/bin/env python3
"""Runs every workload of BENCHMARK.json in two sets of ten seeds and
summarizes each end-to-end metric: per-set median and quartiles, the
spread (interquartile range as a share of the median), and how far the
second set's median moved from the first's, against the bound in
BENCHMARK.json.

    python3 perfbench/baseline.py

Run from the repository root. Every run's result line is appended to
.bench_out/baseline-runs.jsonl; the summary is printed as Markdown.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

SETS = 2
RUNS = 10


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} operations failed")
    return lines[-2] if len(lines) > 1 else "{}", result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    log = Path(".bench_out")
    log.mkdir(exist_ok=True)
    print("| workload | metric | set | median | q1 | q3 | spread | bound | median moved |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        sets = []
        for s in range(SETS):
            values = {m["name"]: [] for m in metrics}
            for r in range(RUNS):
                seed = 1 + s * RUNS + r
                identity, result = run_once(bench["command"], workload, seed,
                                            bench["run_seconds"])
                with open(log / "baseline-runs.jsonl", "a") as f:
                    f.write(json.dumps({"identity": json.loads(identity),
                                        "result": result}) + "\n")
                for name, metric in result["metrics"].items():
                    values[name].append(metric["value"])
            sets.append(values)
        for m in metrics:
            first = statistics.median(sets[0][m["name"]])
            for s, values in enumerate(sets):
                med, q1, q3, sp = spread(values[m["name"]])
                moved = (med - first) / first
                if m["better"] == "higher":
                    moved = -moved
                print(f"| {workload} | {m['name']} | {s + 1} | {med:.6g} | {q1:.6g} "
                      f"| {q3:.6g} | {sp:.3f} | {m['bound']} | {moved:+.3f} |",
                      flush=True)


if __name__ == "__main__":
    main()
