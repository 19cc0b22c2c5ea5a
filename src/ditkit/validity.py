"""Brute-force validity checking under three semantics.

Truth tables, subset semantics over a range of universe sizes, and
partition semantics over a range of universe sizes. A verdict never
claims more than it checked: partition validity is always "valid up to
n_max" and the verdict records the scanned range.

Counterexamples are minimal and deterministic: smallest universe size
first, then the lexicographically least assignment in enumeration
order (subsets by ascending bitmask, partitions in restricted-growth
order, variables sorted by name). All three are one sequential scan
of the formula's postfix program that stops at the first failure, which
is therefore the minimal counterexample.

Subset and partition scans refuse before they start when a universe has
more assignments than the budget; a formula with no variables counts as
one variable there, because each universe's pool of values is built.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import ResourceLimitError, TooManyVariablesError, UniverseTooSmallError
from .formulas import (
    Formula,
    _bitmask_algebra,
    _compile,
    _evaluate,
    _members,
    _partition_algebra,
    _variables,
)
from .limits import DEFAULT_LIMITS, Limits
from .partitions import Partition, bell_number, enumerate_partitions
from .relations import Subset
from .textio import format_partition, format_subset


@dataclass(frozen=True)
class Counterexample:
    n: int
    assignment: Mapping[str, object]
    value: object


@dataclass(frozen=True)
class Verdict:
    valid: bool
    counterexample: Counterexample | None
    universes_checked: tuple[int, int]
    assignments_checked: int

    def to_json_dict(self) -> dict:
        cx = None
        if self.counterexample is not None:
            cx = {
                "n": self.counterexample.n,
                "assignment": {
                    name: _render_value(value)
                    for name, value in self.counterexample.assignment.items()
                },
                "value": _render_value(self.counterexample.value),
            }
        return {
            "valid": self.valid,
            "n_checked": list(self.universes_checked),
            "counterexample": cx,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _render_value(value) -> object:
    if isinstance(value, bool):
        return value
    if isinstance(value, Subset):
        return format_subset(value)
    if isinstance(value, Partition):
        return format_partition(value)
    raise TypeError(f"cannot render {value!r}")


def _scan(program, names, universes, low: int, n_max: int, convert: Callable) -> Verdict:
    """Try the universes in order and, in each, every assignment of the
    pool's values to names in itertools.product order; stop at the first
    value that is not the algebra's top. convert(n, value) gives the
    counterexample's values their public types."""
    checked = 0
    for n, algebra, pool in universes:
        for combo in itertools.product(pool, repeat=len(names)):
            checked += 1
            env = dict(zip(names, combo))
            value = _evaluate(program, algebra, env)
            if value != algebra.top:
                assignment = {name: convert(n, v) for name, v in env.items()}
                cx = Counterexample(n, assignment, convert(n, value))
                return Verdict(False, cx, (low, n), checked)
    return Verdict(True, None, (low, n_max), checked)


def _check_budget(logic: str, sizes: dict[int, int], arity: int, limits: Limits) -> None:
    """Refuse a scan before it starts if a universe has more assignments
    than the budget. A formula with no variables counts as one variable,
    because each universe's pool of values is built all the same."""
    for n, size in sizes.items():
        count = size ** max(arity, 1)
        if count > limits.max_search_assignments:
            raise ResourceLimitError(
                f"{logic} search at n={n} needs {count} assignments, "
                f"budget is {limits.max_search_assignments}"
            )


def truth_table_tautology(f: Formula, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Check all two-valued rows: the bitmask algebra on one point."""
    program = _compile(f)
    names = _variables(program)
    if len(names) > limits.max_truth_vars:
        raise TooManyVariablesError(
            f"{len(names)} variables exceeds the truth-table cap {limits.max_truth_vars}"
        )
    universes = [(1, _bitmask_algebra(1), (0, 1))]
    return _scan(program, names, universes, 1, 1, lambda n, bit: bool(bit))


def subset_valid(f: Formula, n_max: int, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Check whether f evaluates to the whole universe under every
    subset assignment on every universe of size 1..n_max."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    program = _compile(f)
    names = _variables(program)
    if len(names) > limits.max_truth_vars:
        raise TooManyVariablesError(
            f"{len(names)} variables exceeds the cap {limits.max_truth_vars}"
        )
    sizes = {n: 2**n for n in range(1, n_max + 1)}
    _check_budget("subset", sizes, len(names), limits)
    universes = ((n, _bitmask_algebra(n), range(size)) for n, size in sizes.items())
    return _scan(
        program, names, universes, 1, n_max, lambda n, mask: Subset(n, _members(n, mask))
    )


def partition_tautology(f: Formula, n_max: int, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Check whether f evaluates to the all-singletons partition under
    every partition assignment on every universe of size 2..n_max.

    Validity here always means "valid up to n_max"; the scanned range
    is part of the verdict.
    """
    if n_max < 2:
        raise UniverseTooSmallError(f"partition validity needs n_max >= 2, got {n_max}")
    program = _compile(f)
    names = _variables(program)
    sizes = {n: bell_number(n) for n in range(2, n_max + 1)}
    _check_budget("partition", sizes, len(names), limits)
    pools = ((n, [p.assignment for p in enumerate_partitions(n, limits)]) for n in sizes)
    universes = ((n, _partition_algebra(n), pool) for n, pool in pools)
    return _scan(program, names, universes, 2, n_max, Partition)
