"""Steadiness check: two sets of runs of the same code, compared.

    python3 bench/steady.py --runs 10
    python3 bench/steady.py --report bench/out/steady.json

Set 1 runs every workload in BENCHMARK.json once per seed 1..R, at its
run_seconds; set 2 does the same with seeds R+1..2R. For every workload
and end-to-end metric it prints each set's median and quartiles, the
spread (quartile distance over the median), the change of the median
from set 1 to set 2, and whether the sets agree within the metric's
bound from BENCHMARK.json: each spread within the bound, the change
within the bound either way, and the same share of failed operations.
Exits 1 if any pair disagrees. The runs are saved to
bench/out/steady.json; --report prints their table again, with the
bounds BENCHMARK.json holds then.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"


def one_run(workload: str, seed: int, seconds: int) -> dict:
    args = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(args, capture_output=True, cwd=ROOT, check=True, timeout=180)
    summary = json.loads(proc.stdout.splitlines()[-1])
    summary["run_wall_s"] = time.perf_counter() - start
    return summary


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(sets: list[list[dict]], metrics: list[dict]) -> tuple[list[dict], bool]:
    rows, steady = [], True
    shares = {
        summary["failed"] / summary["attempted"] for runs in sets for summary in runs
    }
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        stats = []
        for runs in sets:
            q1, median, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
            stats.append({"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median})
        change = stats[1]["median"] / stats[0]["median"] - 1
        ok = (
            len(shares) == 1
            and all(s["spread"] <= bound for s in stats)
            and abs(change) <= bound
        )
        rows.append({"metric": name, "bound": bound, "sets": stats, "change": change, "agree": ok})
        steady = steady and ok
    return rows, steady


def print_table(results: dict[str, list[list[dict]]], metrics: list[dict]) -> bool:
    print("| workload | metric | bound | set 1 median [q1, q3] spread"
          " | set 2 median [q1, q3] spread | change | agree |")
    print("|---" * 7 + "|")
    steady = True
    for workload, runs_by_set in results.items():
        rows, ok = compare(runs_by_set, metrics)
        steady = steady and ok and all(r["correct"] for runs in runs_by_set for r in runs)
        for row in rows:
            cells = [f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] {s['spread']:.1%}"
                     for s in row["sets"]]
            print(f"| {workload} | {row['metric']} | {row['bound']} | " + " | ".join(cells)
                  + f" | {row['change']:+.1%} | {'yes' if row['agree'] else 'NO'} |")
    return steady


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    parser.add_argument("--report", metavar="FILE",
                        help="print the table for runs saved in FILE (steady.json) instead of running")
    args = parser.parse_args()
    if args.report:
        results = json.loads(Path(args.report).read_text())
        return 0 if print_table(results, bench["end_to_end"]) else 1
    seconds = bench["run_seconds"]
    results: dict[str, list[list[dict]]] = {w["name"]: [] for w in bench["workloads"]}
    for first in (1, 1 + args.runs):
        for workload, runs_by_set in results.items():
            runs = [one_run(workload, seed, seconds) for seed in range(first, first + args.runs)]
            runs_by_set.append(runs)
            walls = [r["run_wall_s"] for r in runs]
            print(f"set {len(runs_by_set)} {workload}: seeds {first}..{first + args.runs - 1}, "
                  f"run wall {min(walls):.1f}-{max(walls):.1f} s, "
                  f"correct {all(r['correct'] for r in runs)}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    (OUT / "steady.json").write_text(json.dumps(results, indent=1) + "\n")
    return 0 if print_table(results, bench["end_to_end"]) else 1


if __name__ == "__main__":
    sys.exit(main())
