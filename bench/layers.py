"""One per-layer measurement of a traced run, in a fresh interpreter.

Reads a spec on stdin, {"measure": <metric name>, ...inputs}, calls the
layer's public functions on those inputs and records spans around the
calls: [name, start, end, parent, work], parent being an index into the
span list (None for the measurement's root span). Spans stay in memory
and are printed at the end with the measurement's result, as one JSON
object. Calls of a millisecond or more get a span each; faster calls
share one span around a loop, so that the cost of a span (about a
microsecond) stays out of the figures.
Run with ditkit importable (PYTHONPATH=src).
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
import time

from ditkit import (
    Connective,
    Fitness,
    Limits,
    PairRelation,
    Partition,
    PartitionAssignment,
    SubsetAssignment,
    compare_mechanisms,
    dit,
    enumerate_partitions,
    eval_partition,
    eval_subset,
    hasse_cover_edges,
    interior,
    join,
    lift_connective,
    meet,
    parse,
    partition_tautology,
    run_generative,
    run_selectionist,
    subset_lattice_nodes,
    subset_valid,
    truth_table_tautology,
)
from ditkit import cli
from ditkit.textio import format_partition

clock = time.perf_counter


class Spans:
    def __init__(self, measure: str) -> None:
        self.name = measure
        self.list: list[list] = [[f"measure:{measure}", clock(), None, None, 0]]

    def add(self, start: float, end: float, work: int) -> None:
        self.list.append([self.name, start, end, 0, work])

    def close(self) -> list[list]:
        root = self.list[0]
        root[2] = clock()
        root[4] = sum(span[4] for span in self.list[1:])
        return self.list


def each_call(spans: Spans, fn, calls, work) -> list:
    """One span per call, with that call's work count."""
    out = []
    for args, units in zip(calls, work):
        start = clock()
        value = fn(*args)
        spans.add(start, clock(), units)
        out.append(value)
    return out


def loop(spans: Spans, fn, calls, repeats: int = 1, work: int | None = None) -> list:
    """One span around repeats passes over calls; work is the call count
    unless given."""
    start = clock()
    for _ in range(repeats):
        out = [fn(*args) for args in calls]
    spans.add(start, clock(), repeats * len(calls) if work is None else work)
    return out


def partition_pool(n: int) -> list[Partition]:
    return list(enumerate_partitions(n, Limits(max_lattice_n=max(n, 10))))


def rgs(p: Partition) -> list[int]:
    return list(p.assignment)


CONNECTIVE = {c.value: c for c in Connective}


def measure(spec: dict, spans: Spans):
    name = spec["measure"]
    head = name.rsplit(".", 1)[0]
    if head == "validity.partition_tautology":
        limits = Limits(max_search_assignments=spec["budget"])
        calls = [(parse(text), spec["max_n"], limits) for text in spec["formulas"]]
        return [v.valid for v in each_call(spans, partition_tautology, calls, spec["work"])]
    if head == "validity.subset_valid":
        calls = [(parse(text), spec["max_n"]) for text in spec["formulas"]]
        return [v.valid for v in loop(spans, subset_valid, calls, work=sum(spec["work"]))]
    if head == "validity.truth_table_tautology":
        calls = [(parse(text),) for text in spec["formulas"]]
        return [v.valid for v in loop(spans, truth_table_tautology, calls, work=sum(spec["work"]))]
    if name == "validity.verdicts":
        out = []
        for text in spec["formulas"]:
            f = parse(text)
            out.append({
                "truth": truth_table_tautology(f).to_json_dict(),
                "subset": subset_valid(f, spec["max_n"]).to_json_dict(),
                "partition": partition_tautology(f, spec["max_n"]).to_json_dict(),
            })
        return out
    if head == "formulas.parse":
        return len(loop(spans, parse, [(text,) for text in spec["formulas"]], spec["repeats"]))
    if head == "formulas.eval_partition":
        n = spec["n"]
        pool = partition_pool(n)
        calls = []
        for text in spec["formulas"]:
            f = parse(text)
            for combo in itertools.product(pool, repeat=2):
                calls.append((f, PartitionAssignment(n, dict(zip(("p", "q"), combo)))))
        top = tuple(range(n))
        return sum(value.assignment != top for value in loop(spans, eval_partition, calls))
    if head == "formulas.eval_subset":
        n = spec["n"]
        pool = subset_lattice_nodes(n)
        calls = []
        for text in spec["formulas"]:
            f = parse(text)
            for combo in itertools.product(pool, repeat=3):
                calls.append((f, SubsetAssignment(n, dict(zip(("p", "q", "r"), combo)))))
        return sum(value.is_full() for value in loop(spans, eval_subset, calls))
    if head.startswith("partitions.lift_connective."):
        conn = CONNECTIVE[head.rsplit(".", 1)[1]]
        pool = partition_pool(spec["n"])
        arity = 1 if conn is Connective.NOT else 2
        calls = [(conn, ops) for ops in itertools.product(pool, repeat=arity)]
        if name.endswith("repeat_us_per_call"):
            for args in calls:  # first calls fill ditkit's cache; only repeats are timed
                lift_connective(*args)
            out = loop(spans, lift_connective, calls, spec["repeats"])
        else:
            out = loop(spans, lift_connective, calls)
        return [rgs(p) for p in out[: spec["sample"]]]
    if head in ("partitions.dit", "partitions.join", "partitions.meet", "relations.interior"):
        pool = partition_pool(spec["n"])
        if head == "partitions.dit":
            return sum(len(r) for r in loop(spans, dit, [(p,) for p in pool], spec["repeats"]))
        pairs = list(itertools.product(pool, repeat=2))
        if head == "relations.interior":
            calls = [(PairRelation(spec["n"], dit(p).pairs & dit(q).pairs),) for p, q in pairs]
            return [len(r) for r in loop(spans, interior, calls)[: spec["sample"]]]
        fn = join if head == "partitions.join" else meet
        return [rgs(p) for p in loop(spans, fn, pairs)[: spec["sample"]]]
    if head == "partitions.Partition":
        n = spec["n"]
        calls = [(n, tuple(seq)) for seq in spec["rgs"]]
        return len(loop(spans, Partition, calls, spec["repeats"]))
    if head == "partitions.enumerate_partitions":
        limits = Limits(max_lattice_n=spec["n"])
        start = clock()
        counts = [len(list(enumerate_partitions(spec["n"], limits))) for _ in range(spec["repeats"])]
        spans.add(start, clock(), sum(counts))
        return counts[0]
    if head == "partitions.hasse_cover_edges":
        edges = each_call(spans, hasse_cover_edges, [("partition", spec["n"])], [spec["edges"]])
        return len(edges[0])
    if head == "textio.format_partition":
        pool = partition_pool(spec["n"])
        return loop(spans, format_partition, [(p,) for p in pool])[: spec["sample"]]
    if head == "cli.main":
        codes = []
        for argv in spec["argv"]:
            with contextlib.redirect_stdout(io.StringIO()):
                codes += each_call(spans, cli.main, [(argv,)], [1])
        return codes
    if head.startswith("mechanisms."):
        k = spec["k"]
        targets = [int(t, 2) for t in spec["targets"]]
        if head == "mechanisms.run_selectionist":
            threshold = 0.5 / 2**k
            traces = []
            for target in targets:
                fitness = Fitness.peaked(k, target, spec["margin"])
                start = clock()
                trace = run_selectionist(k, fitness, threshold, spec["max_steps"])
                spans.add(start, clock(), len(trace.steps) - 1)
                traces.append(trace)
            return [sorted(set(t.final["weights"]) - set(t.final["extinct"])) for t in traces]
        if head == "mechanisms.run_generative":
            events = [[(i, target >> (i - 1) & 1) for i in range(1, k + 1)] for target in targets]
            traces = each_call(spans, run_generative, [(k, e) for e in events], [k] * len(events))
            return [t.final["block"] for t in traces]
        if head == "mechanisms.compare_mechanisms":
            calls = [(k, target, spec["margin"]) for target in targets]
            return [c.agreement for c in each_call(spans, compare_mechanisms, calls, [1] * len(calls))]
    raise ValueError(f"unknown measurement {name!r}")


def main() -> None:
    spec = json.load(sys.stdin)
    if spec["measure"] == "warm-up":
        json.dump({"spans": [], "result": None}, sys.stdout)
        return
    spans = Spans(spec["measure"])
    result = measure(spec, spans)
    json.dump({"spans": spans.close(), "result": result}, sys.stdout)


if __name__ == "__main__":
    main()
