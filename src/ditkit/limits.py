"""Size caps for the exhaustive parts of the toolkit.

Everything here exists to keep brute-force enumeration at desk scale.
The algebraic operations themselves are pure and uncapped; the caps are
enforced at the enumeration and search entry points and by the CLI.
"""
from __future__ import annotations

from collections.abc import Mapping

from .relations import _is_int, _Record


class Limits(_Record):
    # Largest universe of eval, sim identify and sim create in the CLI.
    max_relation_n: int = 12
    # Largest universe for full-lattice enumeration; Bell numbers grow fast.
    max_lattice_n: int = 10
    # Variable cap for truth-table checking.
    max_truth_vars: int = 16
    # Per-universe assignment budget for subset/partition validity search.
    max_search_assignments: int = 10_000
    # Cap on k for spaces of 2**k variants: switch_partition, and in the CLI
    # sim select, sim generate, sim twentyq and compare.
    max_switch_bits: int = 10
    # Step bound of a selectionist run, which keeps a snapshot per step.
    max_selection_steps: int = 10_000

    def __post_init__(self) -> None:
        for name in self._fields:
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")

    def replaced(self, **overrides: int) -> "Limits":
        current = {name: getattr(self, name) for name in self._fields}
        return type(self)(**{**current, **overrides})

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, int]) -> "Limits":
        unknown = sorted(set(mapping) - set(cls._fields))
        if unknown:
            raise ValueError(f"unknown limit keys: {unknown}")
        return cls(**dict(mapping))


DEFAULT_LIMITS = Limits()
