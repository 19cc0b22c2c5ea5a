"""Exhaustive validity checking under three semantics.

Truth tables, and subset and partition semantics over a range of
universe sizes. A verdict never claims more than it checked: partition
validity is always "valid up to n_max", with the range in the verdict.

Counterexamples are minimal and deterministic: smallest universe size
first, then the lexicographically least assignment in enumeration
order (subsets by ascending bitmask, partitions in restricted-growth
order, variables sorted by name).

All three run one bit-sliced scan (Knuth, TAOCP Vol. 4A, 7.1.3), which
evaluates up to 2**16 assignments at once in formulas._partition_algebra.
Truth and subset validity are its n = 2 case, where the two partitions
are the truth values. Subset semantics is pointwise, so a formula is
subset-valid at every n exactly when it is a tautology, and its least
counterexample is the first failing row, as subsets {} and {0} of n = 1.

Partition validity is the same chunked scan, restricted to orbit
representatives. Partition semantics commutes with relabelling the
universe, so every relabelling of the least failing tuple t fails too,
and none comes before t in scan order. Hence t's first value is the least of its orbit under all
relabellings, which makes it 0^a 1^b 2^c ... with a >= b >= c >= ...
(one value per integer partition of n, not per set partition), and t's
second value is the least of its orbit under the relabellings that fix
the first. The scan runs through the tuples that pass both tests, in
the order of the full scan, so it meets t first and reports the same
verdict and counterexample (orderly generation: McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998).

Subset and partition validity refuse before they start when a universe
has more assignments than the budget, counting all of them, not only
those evaluated; a formula with no variables counts as one variable.
Universe sizes are computed in order and stop at the first over budget.
Partition validity then refuses an n_max over the lattice cap, before
any scan. Its counterexample's value is evaluated again, on its own.
"""
from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Iterator, Mapping

from .errors import ResourceLimitError, TooManyVariablesError, UniverseTooSmallError
from .formulas import Formula, PartitionAssignment, _compile, _evaluate, _pair_columns
from .formulas import _pair_text, _partition_algebra, _variables, eval_partition
from .limits import DEFAULT_LIMITS, Limits
from .partitions import (
    Partition, _bell_numbers, _canonical_rgs, _check_lattice_n, _dit_mask, _rgs,
)
from .relations import Subset, _is_int, _Record


class Counterexample(_Record):
    n: int
    assignment: Mapping[str, object]
    value: object


class Verdict(_Record):
    """The outcome of a check. assignments_checked counts truth-table
    rows up to the first failing one, or all assignments when valid; a
    partition scan counts only the orbit representatives it evaluates."""

    valid: bool
    counterexample: Counterexample | None
    universes_checked: tuple[int, int]
    assignments_checked: int

    def to_json_dict(self) -> dict:
        cx, example = None, self.counterexample
        if example is not None:
            assignment = {name: _render_value(v) for name, v in example.assignment.items()}
            cx = {"n": example.n, "assignment": assignment, "value": _render_value(example.value)}
        n_checked = list(self.universes_checked)
        return {"valid": self.valid, "n_checked": n_checked, "counterexample": cx}

    def to_json(self) -> str:
        from .textio import _to_json

        return _to_json(self)


def _render_value(value) -> object:
    if isinstance(value, bool):
        return value
    if isinstance(value, (Partition, Subset)):
        return str(value)
    raise TypeError(f"cannot render {value!r}")


def _check_budget(
    logic: str, sizes: Iterator[tuple[int, int]], arity: int, limits: Limits
) -> None:
    """Refuse a check before it starts if a universe has more assignments
    than the budget. A formula with no variables counts as one variable.
    sizes yields (n, size) lazily, so no size past the first n over
    budget is computed."""
    for n, size in sizes:
        count = size ** max(arity, 1)
        if count > limits.max_search_assignments:
            raise ResourceLimitError(
                f"{logic} search at n={n} needs {count} assignments, "
                f"budget is {limits.max_search_assignments}"
            )


# rows per chunk; it also caps a prefix's rows
_CHUNK = 1 << 16


def _first_failure(program, names, n: int) -> tuple[int, dict[str, tuple] | None]:
    """Scan _orbit_representatives on n points in chunks: runs of prefixes
    (head values), each with every value of the later variables. Give the
    tuples evaluated up to the first failure and it by name, or all and None."""
    pool = list(_rgs(n)) if names else []  # a formula without variables needs none
    pairs, head = n * (n - 1) // 2, min(len(names), 2)
    text = {x: _pair_text(_dit_mask(x), pairs) for x in pool}
    while len(pool) ** (len(names) - head) > _CHUNK:
        head += 1
    later, prefixes = len(names) - head, _orbit_representatives(pool, head)
    rows, checked, tails = len(pool) ** later, 0, {}
    # bit s*k + j of a chunk of k prefixes is row s of prefix j, so a head variable's
    # k bits repeat once per row, and a later one's values depend on k alone
    while chunk := list(itertools.islice(prefixes, max(1, _CHUNK // rows))):
        k, width = len(chunk), len(chunk) * rows
        if k not in tails:
            fixed = ["".join([t * k * len(pool) ** (later - 1 - i) for t in text.values()])
                     * len(pool) ** i for i in range(later)]
            tails[k] = int("1".rjust(k, "0") * rows, 2), _pair_columns(fixed, pairs)
        repeat, fixed = tails[k]
        heads = _pair_columns(["".join([text[x] for x in values]) for values in zip(*chunk)], pairs)
        env = dict(zip(names, [tuple([m * repeat for m in value]) for value in heads] + fixed))
        root = _evaluate(program, _partition_algebra(n, width), env)
        failing = ((1 << width) - 1) ^ functools.reduce(operator.and_, root)
        if failing:  # the first failing prefix, then its first failing row
            bits = format(failing, f"0{width}b")[::-1]
            j = next(j for j in range(k) if "1" in bits[j::k])
            s = bits[j::k].index("1")
            tail = [pool[s // len(pool) ** (later - 1 - i) % len(pool)] for i in range(later)]
            return checked + j * rows + s + 1, dict(zip(names, (*chunk[j], *tail)))
        checked += width
    return checked, None


def _truth_table_program(f: Formula, cap: str, limits: Limits) -> tuple[tuple, tuple[str, ...]]:
    """f's program and variables; more variables than the cap are refused."""
    program = _compile(f)
    names = _variables(program)
    if len(names) > limits.max_truth_vars:
        raise TooManyVariablesError(
            f"{len(names)} variables exceeds the {cap} {limits.max_truth_vars}"
        )
    return program, names


def truth_table_tautology(f: Formula, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Check all two-valued rows."""
    program, names = _truth_table_program(f, "truth-table cap", limits)
    checked, row = _first_failure(program, names, 2)
    cx = None if row is None else Counterexample(1, {v: bool(x[1]) for v, x in row.items()}, False)
    return Verdict(row is None, cx, (1, 1), checked)


def subset_valid(f: Formula, n_max: int, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Check whether f evaluates to the whole universe under every
    subset assignment on every universe of size 1..n_max: whether it is
    a tautology, with a failing row read as subsets of one point."""
    if not _is_int(n_max):
        raise ValueError(f"n_max must be an int, got {n_max!r}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    program, names = _truth_table_program(f, "cap", limits)
    universes = range(1, n_max + 1)
    _check_budget("subset", ((n, 2**n) for n in universes), len(names), limits)
    checked, row = _first_failure(program, names, 2)
    if row is None:
        return Verdict(True, None, (1, n_max), sum((2**n) ** len(names) for n in universes))
    assignment = {name: Subset.of(1, [0] if x[1] else []) for name, x in row.items()}
    return Verdict(False, Counterexample(1, assignment, Subset.empty(1)), (1, 1), checked)


def partition_tautology(f: Formula, n_max: int, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Check whether f evaluates to the all-singletons partition under
    every partition assignment on every universe of size 2..n_max."""
    if not _is_int(n_max):
        raise ValueError(f"n_max must be an int, got {n_max!r}")
    if n_max < 2:
        raise UniverseTooSmallError(f"partition validity needs n_max >= 2, got {n_max}")
    program = _compile(f)
    names = _variables(program)
    universes = range(2, n_max + 1)
    bells = itertools.islice(_bell_numbers(), 2, None)  # Bell(2), Bell(3), ...
    _check_budget("partition", zip(universes, bells), len(names), limits)
    _check_lattice_n("partition", n_max, limits)
    checked = 0
    for n in universes:
        count, row = _first_failure(program, names, n)
        checked += count
        if row is not None:
            env = PartitionAssignment(n, {name: Partition(n, x) for name, x in row.items()})
            cx = Counterexample(n, env.values, eval_partition(f, env))
            return Verdict(False, cx, (2, n), checked)
    return Verdict(True, None, (2, n_max), checked)


def _orbit_representatives(pool: list[tuple], arity: int) -> Iterator[tuple]:
    """The value tuples of a partition scan: the subsequence of
    itertools.product(pool, repeat=arity) whose first value comes first
    in its orbit under all relabellings of the universe, and whose second
    comes first in its orbit under the relabellings that fix the first.
    The later values run over the whole pool."""
    position = {x: i for i, x in enumerate(pool)}
    moves: dict[tuple[int, ...], list[int]] = {}

    def minima(head: tuple) -> Iterator[tuple]:
        generators = _stabiliser_generators(head)
        for g in generators:
            if g not in moves:  # heads share generators; act on the pool once each
                moves[g] = [position[_canonical_rgs([x[i] for i in g])] for x in pool]
        return _orbit_minima(pool, [moves[g] for g in generators])

    # pool[0] is the one-block partition, fixed by every relabelling
    if arity < 2:  # product reads its input whole even at repeat=0, so arity 0 reads ()
        yield from itertools.product(minima(pool[0]) if arity else (), repeat=arity)
        return
    for head in minima(pool[0]):
        yield from itertools.product((head,), minima(head), *[pool] * (arity - 2))


def _stabiliser_generators(head: tuple) -> list[tuple[int, ...]]:
    """Generators of the relabellings that fix a partition whose blocks
    are runs of consecutive elements: each swap of neighbours inside a
    block, and each swap of two neighbouring blocks of equal size. A
    generator lists, for each position, the position it reads from."""
    n = len(head)
    starts = [u for u in range(n) if u == 0 or head[u] != head[u - 1]] + [n]
    generators = []
    for u in range(n - 1):
        if head[u] == head[u + 1]:
            generators.append((*range(u), u + 1, u, *range(u + 2, n)))
    for a, b, c in zip(starts, starts[1:], starts[2:]):
        if b - a == c - b:
            generators.append((*range(a), *range(b, c), *range(a, b), *range(c, n)))
    return generators


def _orbit_minima(pool: list[tuple], moves: list[list[int]]) -> Iterator[tuple]:
    """The members of pool, in pool order, that come first in their orbit
    under the group the moves span; a move sends each pool position to
    another. Each orbit is found by closure under the moves; the group
    itself is never listed."""
    seen = [False] * len(pool)
    for i, x in enumerate(pool):
        if seen[i]:
            continue
        yield x  # every earlier orbit is already seen, so x is its orbit's least
        seen[i] = True
        stack = [i]
        while stack:
            j = stack.pop()
            for move in moves:
                k = move[j]
                if not seen[k]:
                    seen[k] = True
                    stack.append(k)
