"""Executable models of four universal-to-particular schemes.

A subset can be reached from the whole universe by discarding elements
(selectionist, U -> S) or from nothing by adding them (creationist,
empty -> S). Dually, a partition can be reached from the all-singletons
partition by merging blocks (identification, 1 -> pi) or from the
one-block partition by adding distinctions (generative, 0 -> pi). The
scheme table records which schemes are dual (swap elements and
distinctions) and which are opposite (swap start-from-everything and
start-from-nothing).

The two dynamic models run over a variant space of 2**k bitstrings
b_k..b_1, where switch i controls digit b_i and i = 1 is the rightmost
digit. The selectionist model amplifies weights multiplicatively by
fitness and extinguishes variants that fall below a threshold; the
generative model sets three-state switches (neutral / 0 / 1) and
shrinks the block of variants consistent with the settings. Both
produce a Trace, an ordered record of states from the initial state to
the final one, replayable deterministically.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .errors import (
    AlreadySetError,
    ElementOutOfRangeError,
    InvalidFitnessError,
    InvalidThresholdError,
    NonPositiveFitnessError,
    ResourceLimitError,
    SwitchIndexError,
)
from .limits import DEFAULT_LIMITS, Limits
from .partitions import Partition, _canonical_rgs
from .relations import _check_n
from .unionfind import UnionFind


@dataclass(frozen=True)
class VariantSpace:
    """All 2**k bitstrings b_k..b_1; switch i controls digit b_i, with
    i = 1 the rightmost (least significant) digit."""

    k: int

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")

    @property
    def size(self) -> int:
        return 2**self.k

    def variants(self) -> range:
        return range(self.size)

    def to_string(self, v: int) -> str:
        return format(v, f"0{self.k}b")

    def from_string(self, text: str) -> int:
        if len(text) != self.k or any(ch not in "01" for ch in text):
            raise ValueError(f"variant must be {self.k} binary digits, got {text!r}")
        return int(text, 2)

    def bit(self, v: int, i: int) -> int:
        if not 1 <= i <= self.k:
            raise SwitchIndexError(f"switch {i} outside 1..{self.k}")
        return (v >> (i - 1)) & 1


class SwitchState(Enum):
    NEUTRAL = "neutral"
    ZERO = "0"
    ONE = "1"


def _as_option(value) -> SwitchState:
    """Normalize a switch setting; neutral is not a settable option."""
    if isinstance(value, SwitchState):
        if value is SwitchState.NEUTRAL:
            raise ValueError("cannot set a switch back to neutral")
        return value
    if value == 0:
        return SwitchState.ZERO
    if value == 1:
        return SwitchState.ONE
    raise ValueError(f"switch value must be 0, 1, or a SwitchState, got {value!r}")


@dataclass(frozen=True)
class SwitchBank:
    """k three-state switches; immutable, so setting returns a new bank."""

    k: int
    states: tuple[SwitchState, ...]

    def __post_init__(self) -> None:
        states = tuple(self.states)
        object.__setattr__(self, "states", states)
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        if len(states) != self.k or not all(isinstance(s, SwitchState) for s in states):
            raise ValueError("states must be k SwitchState values")

    @classmethod
    def neutral(cls, k: int) -> "SwitchBank":
        return cls(k, (SwitchState.NEUTRAL,) * k)

    def state_of(self, i: int) -> SwitchState:
        if not 1 <= i <= self.k:
            raise SwitchIndexError(f"switch {i} outside 1..{self.k}")
        return self.states[i - 1]

    def set_count(self) -> int:
        return sum(1 for s in self.states if s is not SwitchState.NEUTRAL)


def set_switch(bank: SwitchBank, i: int, value, overwrite: bool = False) -> SwitchBank:
    """Return bank with switch i set to 0 or 1.

    A switch that already left neutral may only be changed with
    overwrite=True; the default models set-once experience.
    """
    option = _as_option(value)
    if not 1 <= i <= bank.k:
        raise SwitchIndexError(f"switch {i} outside 1..{bank.k}")
    if bank.states[i - 1] is not SwitchState.NEUTRAL and not overwrite:
        raise AlreadySetError(f"switch {i} is already set")
    states = list(bank.states)
    states[i - 1] = option
    return SwitchBank(bank.k, tuple(states))


def consistent_block(bank: SwitchBank) -> frozenset[int]:
    """Variants agreeing with every set switch; all of them when every
    switch is neutral, a singleton when all k are set."""
    space = VariantSpace(bank.k)
    block = []
    for v in space.variants():
        for i, state in enumerate(bank.states, start=1):
            if state is SwitchState.ZERO and space.bit(v, i) != 0:
                break
            if state is SwitchState.ONE and space.bit(v, i) != 1:
                break
        else:
            block.append(v)
    return frozenset(block)


def switch_partition(k: int, i: int, limits: Limits = DEFAULT_LIMITS) -> Partition:
    """Binary partition of the 2**k variants by digit b_i."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if not 1 <= i <= k:
        raise SwitchIndexError(f"switch {i} outside 1..{k}")
    _check_switch_bits(k, limits)
    return Partition(2**k, tuple((v >> (i - 1)) & 1 for v in range(2**k)))


def _check_switch_bits(k: int, limits: Limits) -> None:
    """Refuse a space of 2**k variants before any of it is built."""
    if k > limits.max_switch_bits:
        raise ResourceLimitError(
            f"2**{k} variants exceeds the switch cap k <= {limits.max_switch_bits}"
        )


@dataclass(frozen=True)
class Fitness:
    """Strictly positive score for every variant of a k-switch space."""

    k: int
    scores: tuple[float, ...]

    def __post_init__(self) -> None:
        scores = tuple(float(s) for s in self.scores)
        object.__setattr__(self, "scores", scores)
        space = VariantSpace(self.k)
        if len(scores) != space.size:
            raise InvalidFitnessError(
                f"expected {space.size} scores for k={self.k}, got {len(scores)}"
            )
        for v, s in enumerate(scores):
            if not math.isfinite(s) or s <= 0.0:
                raise NonPositiveFitnessError(
                    f"fitness of {space.to_string(v)} must be positive, got {s}"
                )

    @classmethod
    def from_table(cls, k: int, table: Mapping[str, float]) -> "Fitness":
        space = VariantSpace(k)
        expected = {space.to_string(v) for v in space.variants()}
        if set(table) != expected:
            missing = sorted(expected - set(table))
            extra = sorted(set(table) - expected)
            raise InvalidFitnessError(
                f"fitness table must cover every variant exactly once "
                f"(missing {missing}, unexpected {extra})"
            )
        return cls(k, tuple(table[space.to_string(v)] for v in space.variants()))

    @classmethod
    def from_text(cls, k: int, text: str) -> "Fitness":
        """Parse the two-column "variant score" line format."""
        table: dict[str, float] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.strip()
            if not body or body.startswith("#"):
                continue
            parts = body.split()
            if len(parts) != 2:
                raise InvalidFitnessError(
                    f"line {lineno}: expected 'variant score', got {line!r}"
                )
            if parts[0] in table:
                raise InvalidFitnessError(f"line {lineno}: duplicate variant {parts[0]}")
            try:
                table[parts[0]] = float(parts[1])
            except ValueError:
                raise InvalidFitnessError(
                    f"line {lineno}: bad score {parts[1]!r}"
                ) from None
        return cls.from_table(k, table)

    @classmethod
    def uniform(cls, k: int) -> "Fitness":
        return cls(k, (1.0,) * 2**k)

    @classmethod
    def peaked(cls, k: int, target: int, margin: float) -> "Fitness":
        """Score 1 everywhere except 1 + margin at the target variant."""
        space = VariantSpace(k)
        if not 0 <= target < space.size:
            raise ElementOutOfRangeError(
                f"target {target} outside the {space.size}-variant space"
            )
        if not math.isfinite(margin) or margin <= 0.0:
            raise InvalidFitnessError(f"fitness margin must be positive, got {margin}")
        scores = [1.0] * space.size
        scores[target] = 1.0 + margin
        return cls(k, tuple(scores))

    def score(self, v: int) -> float:
        return self.scores[v]

    def argmax_set(self) -> frozenset[int]:
        best = max(self.scores)
        return frozenset(v for v, s in enumerate(self.scores) if s == best)


@dataclass(frozen=True)
class TraceStep:
    index: int
    event: dict | None
    state: dict


@dataclass(frozen=True)
class Trace:
    """Ordered record of mechanism states from the initial state to the
    final one. k is the size parameter: the switch count for variant
    mechanisms, the universe size for element mechanisms. params holds
    whatever replay() needs to rerun the mechanism."""

    mechanism: str
    k: int
    steps: tuple[TraceStep, ...]
    params: dict = field(default_factory=dict, compare=False)

    @property
    def final(self) -> dict:
        return self.steps[-1].state

    def events(self) -> list[dict]:
        return [step.event for step in self.steps if step.event is not None]

    def to_json_dict(self) -> dict:
        return {
            "mechanism": self.mechanism,
            "k": self.k,
            "steps": [
                {"index": step.index, "event": step.event, "state": step.state}
                for step in self.steps
            ],
            "final": self.final,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def run_selectionist(
    k: int,
    fitness: Fitness,
    extinction_threshold: float,
    max_steps: int,
) -> Trace:
    """Differential amplification over all 2**k variants.

    Weights start uniform. Each step multiplies every surviving weight
    by its fitness, renormalizes, extinguishes variants whose weight
    fell below the threshold (permanently: their weight stays 0), and
    renormalizes the survivors. The run stops when the survivors are
    exactly the argmax set of the fitness, or after max_steps.

    The threshold must lie strictly between 0 and the uniform initial
    weight 1/2**k, so nothing is extinct at the start and the top
    weight can never be culled.
    """
    space = VariantSpace(k)
    if fitness.k != k:
        raise InvalidFitnessError(f"fitness is for k={fitness.k}, expected {k}")
    if not 0.0 < extinction_threshold < 1.0 / space.size:
        raise InvalidThresholdError(
            f"threshold must be in (0, {1.0 / space.size}), got {extinction_threshold}"
        )
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    weights = [1.0 / space.size] * space.size
    extinct: set[int] = set()
    argmax = fitness.argmax_set()

    def snapshot() -> dict:
        return {
            "weights": {space.to_string(v): weights[v] for v in space.variants()},
            "extinct": sorted(space.to_string(v) for v in extinct),
        }

    steps = [TraceStep(0, None, snapshot())]
    t = 0
    while len(extinct) + len(argmax) < space.size and t < max_steps:
        t += 1
        for v in space.variants():
            if v not in extinct:
                weights[v] *= fitness.score(v)
        total = sum(weights)
        weights = [w / total for w in weights]
        newly = [
            v
            for v in space.variants()
            if v not in extinct and weights[v] < extinction_threshold
        ]
        if newly:
            for v in newly:
                weights[v] = 0.0
                extinct.add(v)
            total = sum(weights)
            weights = [w / total for w in weights]
        steps.append(TraceStep(t, {"kind": "amplify"}, snapshot()))
    return Trace(
        "selectionist",
        k,
        tuple(steps),
        params={
            "fitness": fitness,
            "extinction_threshold": extinction_threshold,
            "max_steps": max_steps,
        },
    )


def selection_survivors(trace: Trace) -> frozenset[int]:
    """Non-extinct variants in a selectionist trace's final state."""
    extinct = set(trace.final["extinct"])
    return frozenset(int(s, 2) for s in trace.final["weights"] if s not in extinct)


def _bank_snapshot(bank: SwitchBank) -> dict:
    space = VariantSpace(bank.k)
    return {
        "switches": [state.value for state in bank.states],
        "block": sorted(space.to_string(v) for v in consistent_block(bank)),
    }


def run_generative(
    k: int, experience: Iterable[tuple[int, int]], overwrite: bool = False
) -> Trace:
    """Set switches one experience event at a time, starting all-neutral.

    Each event (i, value) sets switch i to 0 or 1; by default each
    switch may be set at most once. Every step records the block of
    variants consistent with the settings so far, which halves while
    fresh switches are set.
    """
    bank = SwitchBank.neutral(k)
    steps = [TraceStep(0, None, _bank_snapshot(bank))]
    events = []
    for index, (i, value) in enumerate(experience, start=1):
        option = _as_option(value)
        bank = set_switch(bank, i, option, overwrite=overwrite)
        events.append((i, int(option.value)))
        steps.append(
            TraceStep(index, {"switch": i, "value": option.value}, _bank_snapshot(bank))
        )
    return Trace(
        "generative",
        k,
        tuple(steps),
        params={"experience": tuple(events), "overwrite": overwrite},
    )


def generative_block(trace: Trace) -> frozenset[int]:
    """Consistent block in a generative trace's final state."""
    return frozenset(int(s, 2) for s in trace.final["block"])


def identify(n: int, pairs: Iterable[tuple[int, int]]) -> Partition:
    """Start from all singletons and glue the given pairs together:
    the partition whose blocks are the connected components."""
    _check_n(n)
    uf = UnionFind(n)
    for u, v in pairs:
        for x in (u, v):
            if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < n:
                raise ElementOutOfRangeError(
                    f"element {x!r} outside universe of size {n}"
                )
        uf.union(u, v)
    return Partition(n, _canonical_rgs([uf.find(u) for u in range(n)]))


def create(n: int, elements: Iterable[int]) -> Trace:
    """Build a subset from nothing, one element per step. Re-adding an
    element is a no-op but stays in the trace, flagged as a duplicate."""
    _check_n(n)
    members: set[int] = set()
    steps = [TraceStep(0, None, {"members": []})]
    recorded = []
    for index, u in enumerate(elements, start=1):
        if not isinstance(u, int) or isinstance(u, bool) or not 0 <= u < n:
            raise ElementOutOfRangeError(f"element {u!r} outside universe of size {n}")
        duplicate = u in members
        members.add(u)
        recorded.append(u)
        steps.append(
            TraceStep(
                index,
                {"add": u, "duplicate": duplicate},
                {"members": sorted(members)},
            )
        )
    return Trace("creationist", n, tuple(steps), params={"elements": tuple(recorded)})


def twenty_questions(k: int, answers: Sequence[int]) -> frozenset[int]:
    """Follow designated blocks down the question tree.

    Answer j designates one side of switch j's binary partition;
    sequentially joining the partitions halves the designated block,
    reaching a singleton when all k answers are given.
    """
    space = VariantSpace(k)
    if len(answers) > k:
        raise SwitchIndexError(f"{len(answers)} answers for only {k} switches")
    block = set(space.variants())
    for j, answer in enumerate(answers, start=1):
        if answer not in (0, 1):
            raise ValueError(f"answers must be 0 or 1, got {answer!r}")
        block = {v for v in block if space.bit(v, j) == answer}
    return frozenset(block)


@dataclass(frozen=True)
class MechanismComparison:
    """Selectionist and generative runs aimed at the same target."""

    k: int
    target: int
    selectionist: Trace
    generative: Trace
    agreement: bool

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "target": VariantSpace(self.k).to_string(self.target),
            "agreement": self.agreement,
            "selectionist": self.selectionist.to_json_dict(),
            "generative": self.generative.to_json_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def compare_mechanisms(
    k: int,
    target: int,
    fitness_margin: float,
    *,
    extinction_threshold: float | None = None,
    max_steps: int | None = None,
) -> MechanismComparison:
    """Run both dynamic mechanisms toward one target variant.

    The selectionist run uses fitness peaked at the target by the given
    margin; the generative run sets switch i to the target's digit b_i
    for i = 1..k. Agreement means both final states are exactly the
    target singleton.
    """
    space = VariantSpace(k)
    if not 0 <= target < space.size:
        raise ElementOutOfRangeError(
            f"target {target} outside the {space.size}-variant space"
        )
    fitness = Fitness.peaked(k, target, fitness_margin)
    if extinction_threshold is None:
        extinction_threshold = 0.5 / space.size
    if max_steps is None:
        max_steps = (
            math.ceil(math.log(1.0 / extinction_threshold) / math.log1p(fitness_margin))
            + 2
        )
    selection = run_selectionist(k, fitness, extinction_threshold, max_steps)
    experience = [(i, space.bit(target, i)) for i in range(1, k + 1)]
    generation = run_generative(k, experience)
    agreement = (
        selection_survivors(selection)
        == generative_block(generation)
        == frozenset({target})
    )
    return MechanismComparison(k, target, selection, generation, agreement)


def replay(trace: Trace) -> Trace:
    """Rerun a trace's mechanism from its recorded parameters; a
    faithful implementation reproduces every snapshot exactly."""
    if trace.mechanism == "selectionist":
        return run_selectionist(
            trace.k,
            trace.params["fitness"],
            trace.params["extinction_threshold"],
            trace.params["max_steps"],
        )
    if trace.mechanism == "generative":
        return run_generative(
            trace.k, trace.params["experience"], trace.params.get("overwrite", False)
        )
    if trace.mechanism == "creationist":
        return create(trace.k, trace.params["elements"])
    raise ValueError(f"cannot replay mechanism {trace.mechanism!r}")


class Scheme(Enum):
    SELECTIONIST = "selectionist"
    CREATIONIST = "creationist"
    IDENTIFICATION = "identification"
    GENERATIVE = "generative"


_SIGNATURES = {
    Scheme.SELECTIONIST: "U->S",
    Scheme.CREATIONIST: "empty->S",
    Scheme.IDENTIFICATION: "1->pi",
    Scheme.GENERATIVE: "0->pi",
}

_DUAL = {
    Scheme.SELECTIONIST: Scheme.IDENTIFICATION,
    Scheme.IDENTIFICATION: Scheme.SELECTIONIST,
    Scheme.CREATIONIST: Scheme.GENERATIVE,
    Scheme.GENERATIVE: Scheme.CREATIONIST,
}

_OPPOSITE = {
    Scheme.SELECTIONIST: Scheme.CREATIONIST,
    Scheme.CREATIONIST: Scheme.SELECTIONIST,
    Scheme.IDENTIFICATION: Scheme.GENERATIVE,
    Scheme.GENERATIVE: Scheme.IDENTIFICATION,
}


def dual(scheme: Scheme) -> Scheme:
    """Swap the element view for the distinction view."""
    return _DUAL[scheme]


def opposite(scheme: Scheme) -> Scheme:
    """Swap starting from everything for starting from nothing."""
    return _OPPOSITE[scheme]


@dataclass(frozen=True)
class SchemeRelation:
    scheme: Scheme
    signature: str
    dual: Scheme
    opposite: Scheme


def scheme_relations() -> tuple[SchemeRelation, ...]:
    """Static table of the four schemes with their partners."""
    return tuple(
        SchemeRelation(s, _SIGNATURES[s], _DUAL[s], _OPPOSITE[s]) for s in Scheme
    )
