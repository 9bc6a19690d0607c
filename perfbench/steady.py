#!/usr/bin/env python3
"""
Steadiness check: two sets of runs of the same code, judged against the
bounds in BENCHMARK.json.

    python3 perfbench/steady.py

For each workload of BENCHMARK.json it makes one warm-up run
(discarded), then two sets of RUNS runs, each run with its own seed,
one at a time.  For every end-to-end metric it reports each set's
median and its spread (the distance between the first and third
quartile of `statistics.quantiles(values, n=4)` as a share of the
median), and how far the second set's median is worse than the
first's.  A spread or a drift over the metric's bound fails; a spread
over a third of the bound is flagged as not steady.  Exit status 1 on
any failure or failed run.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 300
RUNS = 10  # per set


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed operations")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        run_once(bench, workload, 0)  # warm-up
        sets = [[run_once(bench, workload, seed) for seed in range(first, first + RUNS)]
                for first in (1, 1 + RUNS)]
        print(f"{workload}: 2 sets of {RUNS} runs")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cols = []
            medians = []
            for runs in sets:
                values = [r[name] for r in runs]
                medians.append(statistics.median(values))
                sp = spread(values)
                verdict = ""
                if sp > bound:
                    verdict, bad = " FAIL", bad + 1
                elif sp > bound / 3:
                    verdict = " unsteady"
                cols.append(f"median {medians[-1]:.6g} spread {sp:.4f}{verdict}")
            worse = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                worse = -worse
            verdict = ""
            if worse > bound:
                verdict, bad = " FAIL", bad + 1
            cols.append(f"drift {worse:+.4f}{verdict}")
            print(f"  {name:<18} bound {bound:<5} " + " | ".join(cols))
        for i, runs in enumerate(sets):
            for name in runs[0]:
                print(f"    set {i + 1} {name}: " + " ".join(f"{r[name]:.6g}" for r in runs))
    print("steady" if not bad else f"{bad} failures")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
