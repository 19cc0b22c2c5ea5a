"""Checks of ditkit's outputs against the reference and against
properties the method must have; never against saved output.

Each check returns a list of problems, empty when the output is right.
"""
from __future__ import annotations

import json

import reference as ref


def taut_cli(formula, stdout: bytes, max_n: int, known: dict) -> list[str]:
    """A valid partition verdict: the formula is a classical tautology,
    valid by the reference scan for n <= 4, and ditkit says so."""
    problems = []
    expected = f"valid (n=2..{max_n})\n".encode()
    if stdout != expected:
        problems.append(f"stdout {stdout[:80]!r}, expected {expected!r}")
    if formula not in known:
        truth_fail = ref.truth_scan(formula)[1]
        partition_fail = ref.partition_scan(formula, min(max_n, 4))[1]
        known[formula] = truth_fail is None and partition_fail is None
    if not known[formula]:
        problems.append(f"{ref.text(formula)} is not valid by the reference")
    return problems


def _assignment_texts(env: dict, render) -> dict[str, object]:
    return {name: render(value) for name, value in env.items()}


def verdicts(formula, line: dict, max_n: int) -> list[str]:
    """Verdicts of one formula in the three logics. Counterexamples must
    be the reference's first failure: the same universe, the same
    assignment, and the same value, which is not the top element."""
    problems = []
    _, truth_row = ref.truth_scan(formula)
    _, subset_fail = ref.subset_scan(formula, max_n)
    _, partition_fail = ref.partition_scan(formula, max_n)

    truth = line["truth"]
    if truth["valid"] != (truth_row is None):
        problems.append(f"truth verdict {truth['valid']}")
    elif truth_row is not None:
        expected = {"n": 1, "assignment": truth_row, "value": False}
        if truth["counterexample"] != expected:
            problems.append(f"truth counterexample {truth['counterexample']} != {expected}")

    subset = line["subset"]
    if subset["valid"] != (truth_row is None) or subset["valid"] != (subset_fail is None):
        problems.append(f"subset verdict {subset['valid']} disagrees with the truth table")
    elif subset_fail is not None:
        n, env, value = subset_fail
        expected = {
            "n": n,
            "assignment": _assignment_texts(env, ref.subset_text),
            "value": ref.subset_text(value),
        }
        if subset["counterexample"] != expected:
            problems.append(f"subset counterexample {subset['counterexample']} != {expected}")

    partition = line["partition"]
    if partition["valid"] != (partition_fail is None):
        problems.append(f"partition verdict {partition['valid']}")
    elif partition_fail is not None:
        n, env, value = partition_fail
        expected = {
            "n": n,
            "assignment": _assignment_texts(env, ref.partition_text),
            "value": ref.partition_text(value),
        }
        if partition["counterexample"] != expected or value == tuple(range(n)):
            problems.append(
                f"partition counterexample {partition['counterexample']} != {expected}"
            )
    if problems:
        problems = [f"{ref.text(formula)}: {p}" for p in problems]
    return problems


def lattice_from_json(stdout: bytes):
    payload = json.loads(stdout)
    return tuple(payload["nodes"]), tuple(tuple(edge) for edge in payload["edges"])


def lattice_from_dot(stdout: bytes):
    labels, edges = [], []
    for line in stdout.decode().splitlines()[2:-1]:
        body = line.strip().rstrip(";")
        if " -> " in body:
            a, b = body.split(" -> ")
            edges.append((int(a[1:]), int(b[1:])))
        else:
            node, label = body.split(' [label="')
            if int(node[1:]) != len(labels):
                raise ValueError(f"node {node} out of order")
            labels.append(label[: -len('"]')])
    return tuple(labels), tuple(edges)


def lattice(graph, n: int) -> list[str]:
    """Node and edge counts match the closed forms, nodes are distinct
    partitions of {0..n-1}, and every edge merges exactly two blocks."""
    labels, edges = graph
    nodes, covers = ref.partition_lattice_counts(n)
    problems = []
    if len(labels) != nodes or len(edges) != covers:
        problems.append(f"{len(labels)} nodes and {len(edges)} edges, expected {nodes} and {covers}")
    blocks = [ref.parse_partition_text(label) for label in labels]
    if len(set(blocks)) != len(blocks):
        problems.append("repeated nodes")
    if any(frozenset().union(*b) != frozenset(range(n)) or sum(map(len, b)) != n for b in blocks):
        problems.append("a node is not a partition of the universe")
    if len(set(edges)) != len(edges):
        problems.append("repeated edges")
    for a, b in edges:
        merged = blocks[a] - blocks[b]
        split = blocks[b] - blocks[a]
        if len(split) != 2 or len(merged) != 1 or frozenset().union(*split) not in merged:
            problems.append(f"edge {labels[a]} -> {labels[b]} does not merge two blocks")
            break
    return problems


def compare(stdout: bytes, k: int, target: str) -> list[str]:
    """Both mechanisms end at the target singleton, every step's weights
    sum to 1, and extinct variants stay at 0."""
    payload = json.loads(stdout)
    problems = []
    if payload["agreement"] is not True or payload["target"] != target or payload["k"] != k:
        problems.append(f"agreement {payload['agreement']} at target {payload['target']}")
    selection = payload["selectionist"]["steps"]
    final = selection[-1]["state"]
    survivors = set(final["weights"]) - set(final["extinct"])
    if survivors != {target}:
        problems.append(f"{len(survivors)} selection survivors")
    if payload["generative"]["steps"][-1]["state"]["block"] != [target]:
        problems.append("generative block is not the target")
    extinct: set[str] = set()
    for step in selection:
        weights = step["state"]["weights"]
        if len(weights) != 2**k or abs(sum(weights.values()) - 1.0) > 1e-9:
            problems.append(f"step {step['index']}: weights sum to {sum(weights.values())}")
        if not extinct <= set(step["state"]["extinct"]):
            problems.append(f"step {step['index']}: an extinct variant came back")
        extinct |= set(step["state"]["extinct"])
        if any(weights[v] != 0.0 for v in extinct):
            problems.append(f"step {step['index']}: an extinct variant has weight")
    return problems
