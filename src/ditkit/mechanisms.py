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

import itertools
import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from enum import Enum

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
from .relations import _check_element, _check_n, _components, _is_int, _Record
from .textio import _PIECE, _to_json, _variant_number, format_variant

TYPE_CHECKING = False
if TYPE_CHECKING:  # for annotations; only switch_partition and identify import it
    from .partitions import Partition


def _check_k(k) -> None:
    if not _is_int(k) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")


def _check_switch(i: int, k: int) -> None:
    if not _is_int(i) or not 1 <= i <= k:
        raise SwitchIndexError(f"switch {i!r} outside 1..{k}")


def _check_variant(v, k: int, noun: str = "variant") -> None:
    if not _is_int(v) or not 0 <= v < 2**k:
        raise ElementOutOfRangeError(f"{noun} {v!r} outside the {2**k}-variant space")


def _labels(k: int) -> list[str]:
    """The text of every variant, indexed by variant number. Only the
    library's fills and a fitness table build it; the CLI writes every
    label from _halves."""
    _, highs, lows = _halves(k)
    return [high + low for high in highs for low in lows]


def _halves(k: int) -> tuple[int, list[str], list[str]]:
    """h = min(8, k) and two tables that spell every variant: v is
    highs[v >> h] + lows[v & (2**h - 1)], and lows holds _PIECE at most."""
    h = min(k, _PIECE.bit_length() - 1)
    highs, lows = (list(map("".join, itertools.product("01", repeat=r))) for r in (k - h, h))
    return h, highs, lows


def _agreeing(k: int, mask: int, want: int) -> list[int]:
    """Variants, ascending, whose digits under mask read want, where
    want & ~mask == 0: bit i-1 of mask marks switch i as set and bit i-1
    of want its value. Built from want by freeing each unset switch,
    lowest first, which doubles the block in order: O(block), not O(2**k)."""
    block = [want]
    for i in range(k):
        if not mask >> i & 1:
            block += [v | 1 << i for v in block]
    return block


def _select(seq: list, mask: int, want: int) -> list:
    """The entries of seq, a list of 2**k, at the variants v with
    v & mask == want, in order, where want & ~mask == 0: always a fresh
    list, seq itself never. One filter per set switch, lowest first, each
    C-level slicing: a switch with f free switches below it keeps, from
    every run of 2 * 2**f entries, the half on its value's side. That is
    seq[value::2] for f = 0, and otherwise one slice per run, chained."""
    if not mask:
        return seq[:]
    block, f, i = seq, 0, 0
    while mask >> i:
        if mask >> i & 1:
            half = 1 << f
            start = (want >> i & 1) * half
            if f == 0:
                block = block[start::2]
            else:
                runs = range(start, len(block), 2 * half)
                block = list(itertools.chain.from_iterable(block[a:a + half] for a in runs))
        else:
            f += 1
        i += 1
    return block


class VariantSpace(_Record):
    """All 2**k bitstrings b_k..b_1; switch i controls digit b_i, with
    i = 1 the rightmost (least significant) digit."""

    k: int

    def __post_init__(self) -> None:
        _check_k(self.k)

    @property
    def size(self) -> int:
        return 2**self.k

    def variants(self) -> range:
        return range(self.size)

    def to_string(self, v: int) -> str:
        _check_variant(v, self.k)
        return format_variant(v, self.k)

    def from_string(self, text: str) -> int:
        return _variant_number(text, self.k, strip=False, error=ValueError)

    def bit(self, v: int, i: int) -> int:
        _check_switch(i, self.k)
        _check_variant(v, self.k)
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


class SwitchBank(_Record):
    """k three-state switches; immutable, so setting returns a new bank."""

    k: int
    states: tuple[SwitchState, ...]

    def __post_init__(self) -> None:
        states = tuple(self.states)
        object.__setattr__(self, "states", states)
        _check_k(self.k)
        if len(states) != self.k or not all(isinstance(s, SwitchState) for s in states):
            raise ValueError("states must be k SwitchState values")

    @classmethod
    def neutral(cls, k: int) -> "SwitchBank":
        _check_k(k)
        return cls(k, (SwitchState.NEUTRAL,) * k)

    def state_of(self, i: int) -> SwitchState:
        _check_switch(i, self.k)
        return self.states[i - 1]

    def set_count(self) -> int:
        return sum(1 for s in self.states if s is not SwitchState.NEUTRAL)


def set_switch(bank: SwitchBank, i: int, value, overwrite: bool = False) -> SwitchBank:
    """Return bank with switch i set to 0 or 1.

    A switch that already left neutral may only be changed with
    overwrite=True; the default models set-once experience.
    """
    option = _as_option(value)
    _check_switch(i, bank.k)
    if bank.states[i - 1] is not SwitchState.NEUTRAL and not overwrite:
        raise AlreadySetError(f"switch {i} is already set")
    states = list(bank.states)
    states[i - 1] = option
    return SwitchBank(bank.k, tuple(states))


def _bank_bits(switches: Sequence[str]) -> tuple[int, int]:
    """mask and want of a bank, as _agreeing and _select read them, from
    the values of its switches, as a generative state lists them."""
    mask = sum(1 << i for i, s in enumerate(switches) if s != "neutral")
    want = sum(1 << i for i, s in enumerate(switches) if s == "1")
    return mask, want


def consistent_block(bank: SwitchBank) -> frozenset[int]:
    """Variants agreeing with every set switch; all of them when every
    switch is neutral, a singleton when all k are set."""
    return frozenset(_agreeing(bank.k, *_bank_bits([s.value for s in bank.states])))


def switch_partition(k: int, i: int, limits: Limits = DEFAULT_LIMITS) -> Partition:
    """Binary partition of the 2**k variants by digit b_i."""
    from .partitions import Partition

    _check_k(k)
    _check_switch(i, k)
    _check_switch_bits(k, limits)
    return Partition(2**k, tuple((v >> (i - 1)) & 1 for v in range(2**k)))


def _check_switch_bits(k: int, limits: Limits) -> None:
    """Refuse a space of 2**k variants before any of it is built, and
    then a k that is not a positive integer."""
    if k > limits.max_switch_bits:
        raise ResourceLimitError(
            f"2**{k} variants exceeds the switch cap k <= {limits.max_switch_bits}"
        )
    _check_k(k)


def _check_steps(max_steps: float, limits: Limits) -> None:
    """Refuse more selection steps than the cap, before a run builds
    anything, and then a count that is not an integer of at least 1.
    The count prints in full up to 10**15, and in .3e form above, so
    that a derived count of 300 digits stays readable."""
    cap = limits.max_selection_steps
    if isinstance(max_steps, (int, float)) and max_steps > cap:
        count = str(max_steps)
        if max_steps > 10**15 and max_steps != math.inf:
            from decimal import Decimal  # formats ints past the float range; loaded only here

            count = format(Decimal(max_steps), ".3e")
        raise ResourceLimitError(f"{count} selection steps exceeds the cap {cap}")
    if not _is_int(max_steps):
        raise ValueError(f"max_steps must be an int, got {max_steps!r}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")


def _check_threshold(k: int, extinction_threshold: float) -> None:
    if not 0.0 < extinction_threshold < 1.0 / 2**k:
        raise InvalidThresholdError(
            f"threshold must be in (0, {1.0 / 2**k}), got {extinction_threshold}"
        )


class Fitness(_Record):
    """Strictly positive score for every variant of a k-switch space."""

    k: int
    scores: tuple[float, ...]

    def __post_init__(self) -> None:
        scores = tuple(map(float, self.scores))
        object.__setattr__(self, "scores", scores)
        _check_k(self.k)
        if len(scores) != 2**self.k:
            raise InvalidFitnessError(
                f"expected {2**self.k} scores for k={self.k}, got {len(scores)}"
            )
        if not (all(map(math.isfinite, scores)) and min(scores) > 0.0):
            v, s = next((v, s) for v, s in enumerate(scores) if not math.isfinite(s) or s <= 0.0)
            raise NonPositiveFitnessError(
                f"fitness of {format_variant(v, self.k)} must be positive, got {s}"
            )

    @classmethod
    def from_table(cls, k: int, table: Mapping[str, float]) -> "Fitness":
        _check_k(k)
        labels = _labels(k)
        if set(table) != set(labels):
            missing = sorted(set(labels) - set(table))
            extra = sorted(set(table) - set(labels))
            raise InvalidFitnessError(
                f"fitness table must cover every variant exactly once "
                f"(missing {missing}, unexpected {extra})"
            )
        return cls(k, tuple(table[label] for label in labels))

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
        _check_k(k)
        return cls(k, (1.0,) * 2**k)

    @classmethod
    def peaked(cls, k: int, target: int, margin: float) -> "Fitness":
        """Score 1 everywhere except 1 + margin at the target variant."""
        _check_k(k)
        _check_variant(target, k, "target")
        if not math.isfinite(margin) or margin <= 0.0:
            raise InvalidFitnessError(f"fitness margin must be positive, got {margin}")
        scores = [1.0] * 2**k
        scores[target] = 1.0 + margin
        return cls(k, tuple(scores))

    def score(self, v: int) -> float:
        return self.scores[v]

    def argmax_set(self) -> frozenset[int]:
        best = max(self.scores)
        return frozenset(v for v, s in enumerate(self.scores) if s == best)


class TraceStep(_Record):
    index: int
    event: dict | None
    state: dict


class Trace(_Record):
    """Ordered record of mechanism states from the initial state to the
    final one. k is the size parameter: the switch count for variant
    mechanisms, the universe size for element mechanisms. params holds
    whatever replay() needs to rerun the mechanism, a fresh {} when
    None or left out; == and hash leave it out."""

    mechanism: str
    k: int
    steps: tuple[TraceStep, ...]
    params: dict = None

    def __post_init__(self) -> None:
        if self.params is None:
            object.__setattr__(self, "params", {})

    def _key(self) -> tuple:
        return (self.mechanism, self.k, self.steps)

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

    to_json = _to_json


_ULPS = 2**53  # the multiples of a float's ulp below 2**53 ulps are floats


def _repeated_sum(total: float, w: float, m: int) -> float:
    """What m >= 1 successive total += w give, for total and w not
    negative, in O(binades crossed) steps instead of m.

    While total is under 2**53 of its own ulps u, every sum is a multiple
    q * u of u, and adding w rounds q + w/u to an integer, half to even.
    That raises q by round(w/u) at every add, unless w/u is a tie; then
    it does so at every even q, and keeps q even. So the adds that stay
    under 2**53 u are made at once, in integers, and one plain add (or
    one at an odd q before a tie) moves on. The bound holds for a
    subnormal total too, as the normals below 2**-1021 share its ulp.
    """
    if not (0.0 < w < math.inf and 0.0 <= total < math.inf):
        return total + w  # adding 0.0 changes nothing; inf and nan stay
    while m:
        u = math.ulp(total)
        q, r = int(total / u), w / u  # both exact, or r < 2**-1022 rounds to 0
        if r < _ULPS and not (q & 1 and r % 1.0 == 0.5):
            d = round(r)
            if not d:
                return total
            n = min(m, (_ULPS - 1 - q) // d)  # each sum before rounding is under 2**53 u
            total, m = (q + n * d) * u, m - n
            if not m:
                break
        total += w
        m -= 1
        if total == math.inf:
            break
    return total


class _Weights:
    """A selectionist snapshot's weights by variant label, compact: its
    run's pieces, which every snapshot of the run shares, and the weight
    of each fitness class. textio's JSON writer takes its _chunks(), and
    run_selectionist fills a read-only dict from it."""

    __slots__ = ("_pieces", "_weights")

    def __init__(self, pieces: list[tuple[int, str, list[str]]], weights: list[float]) -> None:
        self._pieces, self._weights = pieces, weights

    def _spans(self) -> Iterator[tuple[int, int, int]]:
        """The run's layout, in variant order: each piece's class and the
        bounds a, b of its variants a..b-1."""
        ends = itertools.accumulate(len(lows) for _, _, lows in self._pieces)
        return ((c, b - len(lows), b) for (c, _, lows), b in zip(self._pieces, ends))

    def _chunks(self) -> Iterator[str]:
        """The text of json.dumps of its map, sort_keys=True, a piece of its
        run at a time; each class weight is rendered once."""
        weights = self._weights
        separators = [f'": {w!r}, "' for w in weights]  # a run's weights are finite
        opening = '{"'
        for c, prefix, lows in self._pieces:
            yield opening + prefix
            yield (separators[c] + prefix).join(lows)
            opening = separators[c]
        yield f'": {weights[c]!r}}}'


class _Labels:
    """A snapshot's list of labels, compact: its parts, each a prefix and
    the lows it goes before, which textio's JSON writer takes as _chunks()."""

    __slots__ = ("_parts",)

    def __init__(self, parts: list[tuple[str, list[str]]]) -> None:
        self._parts = parts

    def __len__(self) -> int:
        return sum(len(lows) for _, lows in self._parts)

    def _chunks(self) -> Iterator[str]:
        """The text of json.dumps of the list, a part at a time."""
        opening = '["'
        for prefix, lows in self._parts:
            yield opening + prefix
            yield ('", "' + prefix).join(lows)
            opening = '", "'
        yield "[]" if opening == '["' else '"]'


class _WeightMap(dict):
    """A selectionist snapshot's weights by variant label, read-only: a
    dict filled from its compact _Weights, which writes it. Edits go to
    a copy: m.copy(), dict(m), and a copy, deep copy or pickle of it are
    plain dicts."""

    __slots__ = ("_compact",)

    def __reduce__(self):
        return dict, (dict(self),)

    def _read_only(self, *args, **kwargs):
        raise TypeError("a selectionist weight map is read-only; edit a copy")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def _chunks(self) -> Iterator[str]:
        return self._compact._chunks()


def _selection(
    k: int, fitness: Fitness, extinction_threshold: float, max_steps: int, limits: Limits
) -> Trace:
    """run_selectionist without its dicts and lists: the trace with each
    step's compact state, {"weights": a _Weights, "extinct": a _Labels},
    where steps with the same extinct variants share one."""
    _check_k(k)
    if fitness.k != k:
        raise InvalidFitnessError(f"fitness is for k={fitness.k}, expected {k}")
    _check_threshold(k, extinction_threshold)
    _check_steps(max_steps, limits)
    h, highs, lows = _halves(k)
    # Amplification sees only fitness, so variants of equal fitness keep
    # equal weights: one weight is kept per fitness class, and the variants
    # are laid out as runs, each a stretch of consecutive variants of one
    # class. normalised folds the weights of all the variants left to right
    # in variant order, as sum() did before Python 3.12 made it compensated,
    # a run at a time, so every weight is the one that a weight per variant
    # gives, bit for bit.
    size = 2**k
    classes: dict[float, int] = {}  # each score's class, numbered by first appearance
    runs = [  # each run's class and length
        (classes.setdefault(score, len(classes)), len(list(run)))
        for score, run in itertools.groupby(fitness.scores)
    ]
    distinct = list(classes)  # class c holds the variants scoring distinct[c]
    ends = list(itertools.accumulate(m for _, m in runs))
    counts = [0] * len(distinct)
    for c, m in runs:
        counts[c] += m
    top = distinct.index(max(distinct))
    # A map's keys in pieces of variants of one run and one aligned block
    # of 2**h: its class, the block's prefix and a slice of lows. The
    # separator '": w, "' of its class's weight text w and the prefix join
    # the lows; a label is a bitstring, which JSON writes as it is.
    starts = sorted({0, *ends[:-1], *range(0, size, len(lows))})  # a run's or a block's start
    pieces = [(classes[fitness.scores[a]], highs[a >> h], lows[a % len(lows):][:b - a])
              for a, b in zip(starts, [*starts[1:], size])]
    weights = [1.0 / size] * len(distinct)
    dead, gone = _Labels([]), 0  # the extinct labels, and their number

    def normalised(weights: list[float]) -> list[float]:
        total = 0.0  # 0.0 + w is w, so the fold starts at the first weight
        for c, m in runs:
            if m == 1:
                total += weights[c]
            else:
                total = _repeated_sum(total, weights[c], m)
        return [w / total for w in weights]

    steps = [TraceStep(0, None, {"weights": _Weights(pieces, weights), "extinct": dead})]
    t = 0
    while gone + counts[top] < size and t < max_steps:
        t += 1
        weights = normalised([w * s for w, s in zip(weights, distinct)])
        # runs keeps the runs of the living classes: an extinct weight
        # stays 0.0, which adds nothing to a total, and a living one is at
        # least the threshold, so the extinct classes are those of weight 0.0
        culled = {c for c, _ in runs if weights[c] < extinction_threshold}
        if culled:
            runs = [(c, m) for c, m in runs if c not in culled]
            weights = normalised([0.0 if w < extinction_threshold else w for w in weights])
            dead = _Labels([(prefix, lows) for c, prefix, lows in pieces if weights[c] == 0.0])
            gone += sum(map(counts.__getitem__, culled))
        state = {"weights": _Weights(pieces, weights), "extinct": dead}
        steps.append(TraceStep(t, {"kind": "amplify"}, state))
    params = {"fitness": fitness, "extinction_threshold": extinction_threshold,
              "max_steps": max_steps}
    return Trace("selectionist", k, tuple(steps), params)


def _filled(trace: Trace, labels: list[str]) -> Trace:
    """A compact selectionist trace, as _selection gives it, with each
    step's weights filled from the label table into a read-only dict keyed
    in variant order, and its extinct labels, those of the classes of
    weight 0.0, into a list of its own."""
    parts = [(c, labels[a:b]) for c, a, b in trace.final["weights"]._spans()]
    counts: dict[int, int] = {}  # by class, in class order
    for c, part in parts:
        counts[c] = counts.get(c, 0) + len(part)
    major = max(counts, key=counts.__getitem__)  # the first largest class
    # a map fills every label with the weight of the largest class, then
    # the other labels with their own; fromkeys over a dict presizes the
    # map and reuses the labels' hashes
    keys = dict.fromkeys(labels)
    minor = [(c, part) for c, part in parts if c != major]
    minor_labels = list(itertools.chain.from_iterable(part for _, part in minor))
    minor_of = [c for c, part in minor for _ in part]

    def filled(state: dict) -> dict:
        compact = state["weights"]
        weights = compact._weights
        weight_map = _WeightMap(dict.fromkeys(keys, weights[major]))
        dict.update(weight_map, zip(minor_labels, map(weights.__getitem__, minor_of)))
        weight_map._compact = compact
        extinct = itertools.chain.from_iterable(part for c, part in parts if weights[c] == 0.0)
        return {"weights": weight_map, "extinct": list(extinct)}

    steps = tuple(TraceStep(s.index, s.event, filled(s.state)) for s in trace.steps)
    return Trace(trace.mechanism, trace.k, steps, trace.params)


def run_selectionist(
    k: int,
    fitness: Fitness,
    extinction_threshold: float,
    max_steps: int,
    limits: Limits = DEFAULT_LIMITS,
) -> Trace:
    """Differential amplification over all 2**k variants.

    Weights start uniform. Each step multiplies every surviving weight
    by its fitness, renormalizes, extinguishes variants whose weight
    fell below the threshold (permanently: their weight stays 0), and
    renormalizes the survivors. The run stops when the survivors are
    exactly the argmax set of the fitness, or after max_steps.

    The threshold must lie strictly between 0 and the uniform initial
    weight 1/2**k, so nothing is extinct at the start and the top
    weight can never be culled. max_steps is an int from 1 to the
    limits' max_selection_steps.

    Each step's state holds its weights as a read-only dict from every
    variant's label, in variant order, and its extinct labels as a list
    of its own. The run itself keeps one weight per fitness class; the
    dicts are filled from it at the end.
    """
    return _filled(_selection(k, fitness, extinction_threshold, max_steps, limits), _labels(k))


def selection_survivors(trace: Trace) -> frozenset[int]:
    """Non-extinct variants in a selectionist trace's final state."""
    extinct = set(trace.final["extinct"])
    return frozenset(int(s, 2) for s in trace.final["weights"] if s not in extinct)


def run_generative(
    k: int, experience: Iterable[tuple[int, int]], overwrite: bool = False
) -> Trace:
    """Set switches one experience event at a time, starting all-neutral.

    Each event (i, value) sets switch i to 0 or 1; by default each
    switch may be set at most once. Every step records the block of
    variants consistent with the settings so far, which halves while
    fresh switches are set.
    """
    return _listed(_generation(k, experience, overwrite), _labels(k))


def _generation(k: int, experience: Iterable[tuple[int, int]], overwrite: bool) -> Trace:
    """run_generative with each step's block a _Labels of the blocks of
    its bank's high and low settings, which an overwrite changes alike."""
    bank = SwitchBank.neutral(k)  # checks k before anything is built
    h, highs, lows = _halves(k)

    def snapshot() -> dict:
        switches = [s.value for s in bank.states]
        mask, want = _bank_bits(switches)
        low_block = _select(lows, mask % len(lows), want % len(lows))
        parts = [(high, low_block) for high in _select(highs, mask >> h, want >> h)]
        return {"switches": switches, "block": _Labels(parts)}

    steps = [TraceStep(0, None, snapshot())]
    events = []
    for index, (i, value) in enumerate(experience, start=1):
        bank = set_switch(bank, i, value, overwrite=overwrite)
        option = bank.states[i - 1]
        events.append((i, int(option.value)))
        steps.append(TraceStep(index, {"switch": i, "value": option.value}, snapshot()))
    return Trace(
        "generative",
        k,
        tuple(steps),
        params={"experience": tuple(events), "overwrite": overwrite},
    )


def _listed(trace: Trace, labels: list[str]) -> Trace:
    """A compact generative trace with each block sliced from the label table."""
    blocks = [_select(labels, *_bank_bits(s.state["switches"])) for s in trace.steps]
    steps = (TraceStep(s.index, s.event, {**s.state, "block": b})
             for s, b in zip(trace.steps, blocks))
    return Trace(trace.mechanism, trace.k, tuple(steps), trace.params)


def generative_block(trace: Trace) -> frozenset[int]:
    """Consistent block in a generative trace's final state."""
    return frozenset(int(s, 2) for s in trace.final["block"])


def identify(n: int, pairs: Iterable[tuple[int, int]]) -> Partition:
    """Start from all singletons and glue the given pairs together:
    the partition whose blocks are the connected components."""
    from .partitions import Partition

    _check_n(n)
    pairs = list(pairs)
    for u, v in pairs:
        _check_element(u, n)
        _check_element(v, n)
    return Partition(n, tuple(_components(n, pairs)))


def create(n: int, elements: Iterable[int]) -> Trace:
    """Build a subset from nothing, one element per step. Re-adding an
    element is a no-op but stays in the trace, flagged as a duplicate."""
    _check_n(n)
    members: set[int] = set()
    steps = [TraceStep(0, None, {"members": []})]
    recorded = []
    for index, u in enumerate(elements, start=1):
        _check_element(u, n)
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
    _check_k(k)
    if len(answers) > k:
        raise SwitchIndexError(f"{len(answers)} answers for only {k} switches")
    want = 0
    for j, answer in enumerate(answers):
        if answer not in (0, 1):
            raise ValueError(f"answers must be 0 or 1, got {answer!r}")
        want |= int(answer) << j
    return frozenset(_agreeing(k, 2 ** len(answers) - 1, want))


class MechanismComparison(_Record):
    """Selectionist and generative runs aimed at the same target."""

    k: int
    target: int
    selectionist: Trace
    generative: Trace
    agreement: bool

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "target": format_variant(self.target, self.k),
            "agreement": self.agreement,
            "selectionist": self.selectionist.to_json_dict(),
            "generative": self.generative.to_json_dict(),
        }

    to_json = _to_json


def _comparison(
    k: int, target: int, fitness_margin: float, extinction_threshold: float | None,
    max_steps: int | None, limits: Limits,
) -> MechanismComparison:
    """compare_mechanisms with both traces compact, as _selection and
    _generation give them."""
    fitness = Fitness.peaked(k, target, fitness_margin)
    if extinction_threshold is None:
        extinction_threshold = 0.5 / 2**k
    _check_threshold(k, extinction_threshold)  # before the step count, which needs it
    if max_steps is None:
        steps = math.log(1.0 / extinction_threshold) / math.log1p(fitness_margin)
        # a subnormal margin or threshold overflows steps to inf, which the cap refuses
        max_steps = math.ceil(steps) + 2 if math.isfinite(steps) else steps
    selection = _selection(k, fitness, extinction_threshold, max_steps, limits)
    experience = [(i, (target >> (i - 1)) & 1) for i in range(1, k + 1)]
    generation = _generation(k, experience, False)
    # the survivors are the target alone when every other label is extinct.
    # The target's class is the top class, which is never culled: a cull
    # takes the weights below the threshold, and _check_threshold keeps that
    # below 1/2**k, which the normalised top weight never falls under. So
    # 2**k - 1 extinct labels are all the others.
    agreement = (
        len(selection.final["extinct"]) == 2**k - 1
        and _bank_bits(generation.final["switches"]) == (2**k - 1, target)
    )
    return MechanismComparison(k, target, selection, generation, agreement)


def compare_mechanisms(
    k: int,
    target: int,
    fitness_margin: float,
    *,
    extinction_threshold: float | None = None,
    max_steps: int | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> MechanismComparison:
    """Run both dynamic mechanisms toward one target variant.

    The selectionist run uses fitness peaked at the target by the given
    margin; the generative run sets switch i to the target's digit b_i
    for i = 1..k. Agreement means both final states are exactly the
    target singleton. Without max_steps, the selectionist run may take
    as many steps as the target needs to push every other variant below
    the threshold; like a given max_steps, that may not exceed the
    limits' max_selection_steps.

    The traces are run_selectionist's and run_generative's, read-only
    weight dicts and all: agreement is decided on the runs' compact final
    states, and both are filled from one label table after.
    """
    result = _comparison(k, target, fitness_margin, extinction_threshold, max_steps, limits)
    labels = _labels(k)  # both traces are filled from one table
    selection = _filled(result.selectionist, labels)
    generation = _listed(result.generative, labels)
    return MechanismComparison(k, target, selection, generation, result.agreement)


def replay(trace: Trace, limits: Limits = DEFAULT_LIMITS) -> Trace:
    """Rerun a trace's mechanism from its recorded parameters; a
    faithful implementation reproduces every snapshot exactly. A
    selectionist trace made under a raised max_selection_steps needs
    the same limits again; one without a parameter it needs is refused."""

    def param(key: str):
        if key not in trace.params:
            raise ValueError(f"cannot replay {trace.mechanism} trace without its {key!r}")
        return trace.params[key]

    if trace.mechanism == "selectionist":
        return run_selectionist(
            trace.k, param("fitness"), param("extinction_threshold"), param("max_steps"), limits
        )
    if trace.mechanism == "generative":
        return run_generative(trace.k, param("experience"), trace.params.get("overwrite", False))
    if trace.mechanism == "creationist":
        return create(trace.k, param("elements"))
    raise ValueError(f"cannot replay mechanism {trace.mechanism!r}")


class Scheme(Enum):
    SELECTIONIST = "selectionist"
    CREATIONIST = "creationist"
    IDENTIFICATION = "identification"
    GENERATIVE = "generative"


# each scheme's signature, dual and opposite
_SCHEMES = {
    Scheme.SELECTIONIST: ("U->S", Scheme.IDENTIFICATION, Scheme.CREATIONIST),
    Scheme.CREATIONIST: ("empty->S", Scheme.GENERATIVE, Scheme.SELECTIONIST),
    Scheme.IDENTIFICATION: ("1->pi", Scheme.SELECTIONIST, Scheme.GENERATIVE),
    Scheme.GENERATIVE: ("0->pi", Scheme.CREATIONIST, Scheme.IDENTIFICATION),
}


def dual(scheme: Scheme) -> Scheme:
    """Swap the element view for the distinction view."""
    return _SCHEMES[scheme][1]


def opposite(scheme: Scheme) -> Scheme:
    """Swap starting from everything for starting from nothing."""
    return _SCHEMES[scheme][2]


class SchemeRelation(_Record):
    scheme: Scheme
    signature: str
    dual: Scheme
    opposite: Scheme


def scheme_relations() -> tuple[SchemeRelation, ...]:
    """Static table of the four schemes with their partners."""
    return tuple(SchemeRelation(s, *_SCHEMES[s]) for s in Scheme)
