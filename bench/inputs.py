"""Seeded inputs for the benchmark's workloads.

The same (workload, seed, seconds) always gives the same operations.
ditkit receives only what is generated here: formula text and command
arguments. Print a workload's inputs with

    python3 bench/inputs.py --workload taut-cli --seed 1 --seconds 40
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import random

import reference as ref

WORKLOADS = ("taut-cli", "lattice-cli", "mechanisms-cli")

# Operations per nominal second of --seconds. The figures were fixed once
# and set the work of a run; they are never read from a clock. At
# --seconds 40 a run takes 25 to 48 s on 2 shared vCPUs, the longer when
# they are in their slow state (see the README's limits).
OPS_PER_SECOND = {
    "taut-cli": 1.0,
    "lattice-cli": 1.4,
    "mechanisms-cli": 1.8,
}

TAUT_MAX_N = 5  # partition scans of n = 2..5: 2958 assignments per formula
TAUT_BUDGET = 100_000  # raised --max-search-assignments; above 2704 at n = 5
# Every taut-cli formula has 9 connectives, and its scan meets 3100 to
# 3400 distinct (connective, operand values) pairs whose results hold
# 55000 to 64000 indistinct pairs in all. Random formulas fall into two
# cost modes by the latter count; these bands keep one mode, so that
# operations cost about the same with or without a cache of lifts.
TAUT_CONNECTIVES = 9
TAUT_LIFTS = (3100, 3400)
TAUT_INDISTINCT = (55_000, 64_000)
# Library formulas, decided in-process by the traced run only.
LIBRARY_MAX_N = 3  # subset and partition scans stop at n = 3
LIBRARY_CONNECTIVES = 6
LIBRARY_VARIABLES = ("p", "q", "r")
LIBRARY_TAUTOLOGY_EVERY = 5  # one classical tautology in every five formulas
LATTICE_N = 8
COMPARE_K = 12  # 4096 variants, over the default switch cap of 10
COMPARE_MARGIN = "1.0"


def _imp(a, b):
    return ("implies", a, b)


def _and(a, b):
    return ("and", a, b)


def _or(a, b):
    return ("or", a, b)


def _not(a):
    return ("not", a)


# Partition tautologies (Ellerman 2010); any substitution instance of one
# is again valid, and every formula built from them scans in full.
VALID_SCHEMAS = (
    lambda a, b, c: _imp(a, a),
    lambda a, b, c: _imp(a, _imp(b, a)),
    lambda a, b, c: _imp(_and(a, b), a),
    lambda a, b, c: _imp(a, _or(a, b)),
    lambda a, b, c: _imp(_and(a, _imp(a, b)), b),
    lambda a, b, c: _imp(_and(_imp(a, b), _not(b)), _not(a)),
    lambda a, b, c: ("iff", a, a),
    lambda a, b, c: _imp(_and(a, b), _or(a, b)),
    lambda a, b, c: _imp(a, _not(_not(a))),
    lambda a, b, c: _not(_and(a, _not(a))),
    lambda a, b, c: _imp(_imp(a, b), _imp(_not(b), _not(a))),
    lambda a, b, c: _imp(_and(a, b), _and(b, a)),
    lambda a, b, c: _imp(_or(a, b), _or(b, a)),
    lambda a, b, c: _imp(_imp(a, b), _imp(_imp(b, c), _imp(a, c))),
    lambda a, b, c: _imp(_imp(a, _imp(b, c)), _imp(_imp(a, b), _imp(a, c))),
    lambda a, b, c: _imp(_not(a), _imp(a, b)),
    lambda a, b, c: _imp(_and(a, _not(a)), b),
    lambda a, b, c: _imp(_and(_or(a, b), _not(a)), b),
    lambda a, b, c: _imp(("iff", a, b), _imp(a, b)),
)

# Classical tautologies that are not partition tautologies.
CLASSICAL_ONLY_SCHEMAS = (
    lambda a, b, c: _or(a, _not(a)),
    lambda a, b, c: _imp(_not(_not(a)), a),
    lambda a, b, c: _imp(_imp(_imp(a, b), a), a),
    lambda a, b, c: _or(_imp(a, b), _imp(b, a)),
    lambda a, b, c: _imp(a, _imp(b, _and(a, b))),
    lambda a, b, c: _imp(_imp(a, b), _imp(_and(a, c), _and(b, c))),
)


def random_formula(rng: random.Random, names: tuple[str, ...], size: int, const_share=0.0):
    """A formula with exactly `size` connectives."""
    if size == 0:
        if rng.random() < const_share:
            return ("const", rng.random() < 0.5)
        return ("var", rng.choice(names))
    if rng.random() < 0.2:
        return ("not", random_formula(rng, names, size - 1, const_share))
    left = rng.randrange(size)
    return (
        rng.choice(ref.BINARY),
        random_formula(rng, names, left, const_share),
        random_formula(rng, names, size - 1 - left, const_share),
    )


def scan_profile(f, n: int, memo: dict) -> tuple[int, int]:
    """Distinct (connective, operand values) pairs that a scan of every
    assignment at n meets, which are the lifts a caching evaluator
    computes, and the indistinct pairs of their results in all.
    Partitions are numbered by their place in the pool; memo keeps the
    numbered lift tables across calls."""
    if n not in memo:
        pool = ref.partitions(n)
        memo[n] = (pool, {p: i for i, p in enumerate(pool)}, {})
    pool, number, tables = memo[n]
    size = len(pool)
    names = ref.variables(f)
    envs = list(itertools.product(range(size), repeat=len(names)))
    keys: set[tuple[str, int]] = set()

    def column(node) -> list[int]:
        kind = node[0]
        if kind == "var":
            i = names.index(node[1])
            return [env[i] for env in envs]
        if kind == "not":
            codes = column(node[1])
        else:
            codes = [a * size + b for a, b in zip(column(node[1]), column(node[2]))]
        table = tables.setdefault(kind, {})
        for code in set(codes) - table.keys():
            ops = (pool[code],) if kind == "not" else (pool[code // size], pool[code % size])
            table[code] = number[ref.lift(kind, ops, n)]
        keys.update((kind, code) for code in set(codes))
        return [table[code] for code in codes]

    column(f)
    indistinct = sum(ref.indistinct_pairs(pool[tables[kind][code]]) for kind, code in keys)
    return len(keys), indistinct


def instance(rng: random.Random, schemas, names: tuple[str, ...], max_size: int):
    schema = rng.choice(schemas)
    holes = [random_formula(rng, names, rng.randint(0, max_size)) for _ in range(3)]
    return schema(*holes)


def taut_cli_formula(rng: random.Random, memo: dict):
    while True:
        f = instance(rng, VALID_SCHEMAS, ("p", "q"), 3)
        if ref.variables(f) != ("p", "q") or ref.connectives(f) != TAUT_CONNECTIVES:
            continue
        profiles = [scan_profile(f, n, memo) for n in range(2, TAUT_MAX_N + 1)]
        lifts = sum(p[0] for p in profiles)
        indistinct = sum(p[1] for p in profiles)
        if TAUT_LIFTS[0] <= lifts <= TAUT_LIFTS[1] and TAUT_INDISTINCT[0] <= indistinct <= TAUT_INDISTINCT[1]:
            return f


def library_formulas(seed: int, count: int) -> list:
    """Library formulas: every fifth is a classical tautology in all
    three variables, its schema taken in turn from a seeded cycle so that
    each list holds the same mix; the rest are random non-tautologies,
    so they exit early."""
    rng = random.Random(f"library/{seed}")
    schemas = list(VALID_SCHEMAS + CLASSICAL_ONLY_SCHEMAS)
    rng.shuffle(schemas)
    out = []
    for index in range(count):
        slot, rest = divmod(index, LIBRARY_TAUTOLOGY_EVERY)
        if rest == LIBRARY_TAUTOLOGY_EVERY - 1:
            schema = schemas[slot % len(schemas)]
            while True:
                holes = [random_formula(rng, LIBRARY_VARIABLES, rng.randint(0, 2)) for _ in range(3)]
                f = schema(*holes)
                if ref.variables(f) == LIBRARY_VARIABLES:
                    break
        else:
            while True:
                f = random_formula(rng, LIBRARY_VARIABLES, LIBRARY_CONNECTIVES, const_share=0.05)
                if ref.truth_scan(f)[1] is not None:
                    break
        out.append(f)
    return out


def operation_count(workload: str, seconds: int) -> int:
    return max(1, math.ceil(OPS_PER_SECOND[workload] * seconds))


def operations(workload: str, seed: int, seconds: int) -> list[dict]:
    """The run's operations in order, each with the argv given to
    `python -m ditkit.cli`."""
    rng = random.Random(f"{workload}/{seed}")
    count = operation_count(workload, seconds)
    if workload == "taut-cli":
        budget = ["--max-search-assignments", str(TAUT_BUDGET)]
        memo: dict = {}
        out = []
        for _ in range(count):
            f = taut_cli_formula(rng, memo)
            argv = budget + ["taut", ref.text(f), "--logic", "partition", "--max-n", str(TAUT_MAX_N)]
            out.append({"argv": argv, "formula": f})
        return out
    if workload == "lattice-cli":
        out = []
        for _ in range(0, count, 2):
            styles = ["--json", "--dot"]
            rng.shuffle(styles)
            out += [{"argv": ["lattice", "--kind", "partition", "--n", str(LATTICE_N), s]} for s in styles]
        return out[:count]
    if workload == "mechanisms-cli":
        out = []
        for _ in range(count):
            target = format(rng.randrange(2**COMPARE_K), f"0{COMPARE_K}b")
            argv = ["--max-switch-bits", str(COMPARE_K), "compare", "--k", str(COMPARE_K),
                    "--target", target, "--margin", COMPARE_MARGIN]
            out.append({"argv": argv, "target": target})
        return out
    raise ValueError(f"unknown workload {workload!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description="Print a workload's inputs, one JSON line each.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    args = parser.parse_args()
    for op in operations(args.workload, args.seed, args.seconds):
        if "formula" in op:
            op = dict(op, formula=ref.text(op["formula"]))
        print(json.dumps(op))


if __name__ == "__main__":
    main()
