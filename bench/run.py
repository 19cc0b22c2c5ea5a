"""ditkit benchmark: one run of one workload.

    python3 bench/run.py --workload taut-cli --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; ditkit is imported from src/,
not installed. --seconds sets the amount of work (see inputs.py); the
work is a fixed, seeded list of operations, never a time budget.

--trace 0 measures the end-to-end metrics, with no tracing code in any
timed process. Each operation and set-up probe follows a bare
interpreter start, and its times are scaled to a fixed machine speed
by that start (REFERENCE_START_S); the raw times go to bench/out/ too.

--trace 1 instead times each layer's public functions on the seed's
inputs, one fresh interpreter per measurement (layers.py), in raw time.
It reports every per-layer metric whatever --workload names: each layer
is measured on the inputs of the workload it belongs to.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics. Full details go to bench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import inputs
import reference as ref
import trace_plan

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
OUT = BENCH / "out"
DITKIT = [sys.executable, str(BENCH / "cli_child.py")]
SETUP_REPEATS = 15
CHILD_TIMEOUT = 150
TAIL_MIN_SAMPLES = 40  # below this a run reports no tail percentile

# Times are reported at a fixed speed of the machine. A time t measured
# right after a bare interpreter start that took b seconds is reported
# as t * REFERENCE_START_S / b. Shared vCPUs switch between a fast state
# and one about 1.5 times slower every few seconds to minutes, and
# everything slows nearly in step, a bare start included; so the scaled
# times of runs of the same code spread by 1-15% where the raw ones
# spread by up to 28%. The reference is about a bare start in the fast
# state, so scaled times read like the fast state's raw ones.
REFERENCE_START_S = 0.04
BARE_START = [sys.executable, "-c", "pass"]


@dataclass
class Child:
    start: float
    wall: float
    cpu: float
    returncode: int
    stdout: bytes
    stderr: bytes

    def peak_rss_mb(self) -> float:
        """The child's own peak, as cli_child.py reports it."""
        match = re.search(rb"^peak_rss_kb (\d+)$", self.stderr, re.MULTILINE)
        if match is None:
            raise Broken(f"no peak_rss_kb line in {self.stderr[-300:]!r}")
        return int(match.group(1)) / 1024


# A fixed hash seed makes sets of strings iterate alike in every run.
# Children may write bytecode even where the caller's environment says
# not to, so that the warm-up compiles ditkit once for every later child.
ENV = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
ENV.pop("PYTHONDONTWRITEBYTECODE", None)


def run_child(args: list[str], stdin: bytes | None = None) -> Child:
    """Run one child to its end, reading all of its output. cpu is its
    user plus system time, taken from this process's reaped-children
    usage; children run one at a time, so the difference is exact."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run(
        args, input=stdin, capture_output=True, env=ENV, cwd=ROOT, timeout=CHILD_TIMEOUT
    )
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
    return Child(start, wall, cpu, proc.returncode, proc.stdout, proc.stderr)


class Broken(Exception):
    """The program could not run at all; no result is printed."""


def require(child: Child, what: str) -> Child:
    if child.returncode != 0:
        raise Broken(f"{what} exited {child.returncode}: {child.stderr[-400:].decode(errors='replace')}")
    return child


def speed_scale() -> float:
    """REFERENCE_START_S over the wall time of a bare start made now."""
    return REFERENCE_START_S / require(run_child(BARE_START), "bare start").wall


def setup_probe(setup: list[tuple[float, float]]) -> None:
    """Wall time of a fresh interpreter importing ditkit, scaled and raw."""
    scale = speed_scale()
    wall = require(run_child([sys.executable, "-c", "import ditkit"]), "import ditkit").wall
    setup.append((wall * scale, wall))


def interleaved(ops: list[dict], setup: list[tuple[float, float]]):
    """Yield the operations with SETUP_REPEATS set-up probes spread
    evenly among them, so that set-up is timed over the same stretch of
    the run as the operations and meets the same load on the machine."""
    for i, op in enumerate(ops):
        while len(setup) <= i * SETUP_REPEATS // len(ops):
            setup_probe(setup)
        yield op
    while len(setup) < SETUP_REPEATS:
        setup_probe(setup)


class Tally:
    """Samples of one run, its failed operations, and the problems found
    in the output of those that did not fail."""

    def __init__(self) -> None:
        self.walls: list[float] = []  # raw, in operation order
        self.cpus: list[float] = []
        self.scales: list[float] = []  # speed_scale() before each operation
        self.work = 0
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []

    def run(self, argv: list[str]) -> Child | None:
        """Run one CLI operation right after a bare start and count it;
        None if it failed outright."""
        scale = speed_scale()
        child = run_child(DITKIT + argv)
        self.attempted += 1
        self.scales.append(scale)
        self.walls.append(child.wall)
        self.cpus.append(child.cpu)
        self.peak_rss_mb = max(self.peak_rss_mb, child.peak_rss_mb())
        if child.returncode != 0 or b"Traceback" in child.stderr:
            self.failures.append(
                f"exit {child.returncode}: {child.stderr[-300:].decode(errors='replace')}"
            )
            return None
        return child

    def scaled(self, values: list[float]) -> list[float]:
        return [value * scale for value, scale in zip(values, self.scales)]

    def metrics(self, setup: list[float], latencies: list[float], cpu: list[float]) -> dict:
        return {
            "setup_s": (statistics.median(setup), "s"),
            "latency_s.p50": (statistics.median(latencies), "s"),
            "work_per_s": (self.work / sum(latencies), "1/s"),
            "cpu_s": (sum(cpu), "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }


WARM_UP = {
    "taut-cli": ["taut", "p -> p", "--logic", "partition", "--max-n", "3"],
    "lattice-cli": ["lattice", "--kind", "partition", "--n", "3"],
    "mechanisms-cli": ["compare", "--k", "3", "--target", "010"],
}


def warm_up(workload: str) -> None:
    """One untimed invocation, so that compiling bytecode is not timed."""
    speed_scale()
    require(run_child(DITKIT + WARM_UP[workload]), "warm-up")


def run_taut_cli(ops: list[dict], tally: Tally, setup: list[float]) -> None:
    known: dict = {}
    work = ref.partition_assignments(inputs.TAUT_MAX_N, 2)
    for op in interleaved(ops, setup):
        child = tally.run(op["argv"])
        if child:
            tally.work += work
            tally.problems += checks.taut_cli(op["formula"], child.stdout, inputs.TAUT_MAX_N, known)


def run_lattice_cli(ops: list[dict], tally: Tally, setup: list[float]) -> None:
    n = inputs.LATTICE_N
    edges = ref.partition_lattice_counts(n)[1]
    graphs: set = set()
    verdicts: dict[bytes, list[str]] = {}
    for op in interleaved(ops, setup):
        child = tally.run(op["argv"])
        if not child:
            continue
        tally.work += edges
        if child.stdout not in verdicts:  # identical output, identical verdict
            if op["argv"][-1] == "--json":
                graph = checks.lattice_from_json(child.stdout)
            else:
                graph = checks.lattice_from_dot(child.stdout)
            verdicts[child.stdout] = checks.lattice(graph, n)
            graphs.add(graph)
        tally.problems += verdicts[child.stdout]
    if len(graphs) > 1:
        tally.problems.append("JSON and DOT output describe different graphs")


def run_mechanisms_cli(ops: list[dict], tally: Tally, setup: list[float]) -> None:
    for op in interleaved(ops, setup):
        child = tally.run(op["argv"])
        if child:
            tally.work += 1
            tally.problems += checks.compare(child.stdout, inputs.COMPARE_K, op["target"])


RUNNERS = {
    "taut-cli": run_taut_cli,
    "lattice-cli": run_lattice_cli,
    "mechanisms-cli": run_mechanisms_cli,
}


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    ops = inputs.operations(workload, seed, seconds)
    warm_up(workload)
    setup: list[tuple[float, float]] = []
    tally = Tally()
    RUNNERS[workload](ops, tally, setup)
    latencies = tally.scaled(tally.walls)
    metrics = tally.metrics([scaled for scaled, _ in setup], latencies, tally.scaled(tally.cpus))
    raw = tally.metrics([wall for _, wall in setup], tally.walls, tally.cpus)
    detail = {
        "samples": len(latencies),
        "latency_s": latencies,  # scaled, in operation order
        "setup_s": [scaled for scaled, _ in setup],
        "bare_start_s": [REFERENCE_START_S / scale for scale in tally.scales],
        "raw": {
            "latency_s": tally.walls,
            "cpu_s": tally.cpus,
            "setup_s": [wall for _, wall in setup],
            "metrics": {name: value for name, (value, _unit) in raw.items()},
        },
        "work": tally.work,
        "failures": tally.failures[:20],
        "problems": tally.problems[:20],
    }
    if len(latencies) >= TAIL_MIN_SAMPLES:
        detail["latency_s.p90"] = statistics.quantiles(latencies, n=10)[-1]
    return result(tally.attempted, len(tally.failures), not tally.problems, metrics), detail


def traced(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    measurements = trace_plan.plan(seed, seconds)
    args = [sys.executable, str(BENCH / "layers.py")]
    require(run_child(args, json.dumps({"measure": "warm-up"}).encode()), "warm-up")
    spans: list[list] = []
    problems: list[str] = []
    for spec in measurements:
        child = require(run_child(args, json.dumps(spec).encode()), spec["measure"])
        # perf_counter is the system's monotonic clock, so the child's
        # spans share this span's time base.
        root = len(spans)
        spans.append([f"interpreter:{spec['measure']}", child.start, child.start + child.wall, None, 1])
        report = json.loads(child.stdout)
        for name, start, end, parent, work in report["spans"]:
            spans.append([name, start, end, root if parent is None else root + 1 + parent, work])
        problems += trace_plan.check(spec, report["result"])
    metrics = trace_plan.metrics(spans)
    detail = {"spans": spans, "problems": problems[:20]}
    return result(len(measurements), 0, not problems, metrics), detail


def result(attempted: int, failed: int, correct: bool, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ditkit" / "__init__.py").is_file():
        print(f"no ditkit sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    measure = traced if args.trace else end_to_end
    try:
        summary, detail = measure(args.workload, args.seed, args.seconds)
    except (Broken, subprocess.TimeoutExpired) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    detail.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        run_wall_s=time.perf_counter() - started,
        cpu_count=os.cpu_count(),
        python=platform.python_version(),
        timer="time.perf_counter and getrusage of reaped children; no system-wide profiler",
        summary=summary,
    )
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1) + "\n")
    for failure in detail.get("failures", []):
        print("failed:", failure, file=sys.stderr)
    for problem in detail["problems"]:
        print("problem:", problem, file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
