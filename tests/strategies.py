"""Shared hypothesis strategies."""
from __future__ import annotations

import math

from hypothesis import strategies as st

from ditkit.formulas import And, Const, Iff, Implies, Not, Or, Var
from ditkit.mechanisms import MechanismComparison, Trace, TraceStep
from ditkit.partitions import Partition
from ditkit.relations import PairRelation


@st.composite
def partitions(draw, min_n: int = 1, max_n: int = 6) -> Partition:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    digits = [0]
    for _ in range(n - 1):
        # restricted growth: next label at most one past the running peak
        digits.append(draw(st.integers(min_value=0, max_value=max(digits) + 1)))
    return Partition(n, tuple(digits))


def random_partition(rng, n: int) -> Partition:
    """A seeded draw for universes too large to enumerate: n labels from
    a random number of blocks, relabelled into restricted-growth form."""
    width = rng.randint(1, n)
    remap: dict[int, int] = {}
    labels = [rng.randrange(width) for _ in range(n)]
    return Partition(n, tuple(remap.setdefault(label, len(remap)) for label in labels))


@st.composite
def pair_relations(draw, min_n: int = 1, max_n: int = 6) -> PairRelation:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    universe = [(u, v) for u in range(n) for v in range(n)]
    pairs = draw(st.lists(st.sampled_from(universe), max_size=len(universe)))
    return PairRelation.of(n, pairs)


_VAR_NAMES = ("p", "q", "r")


def formulas(max_leaves: int = 12):
    leaves = st.one_of(
        st.sampled_from([Var(name) for name in _VAR_NAMES]),
        st.sampled_from([Const(True), Const(False)]),
    )

    def extend(children):
        return st.one_of(
            children.map(Not),
            st.tuples(children, children).map(lambda lr: And(*lr)),
            st.tuples(children, children).map(lambda lr: Or(*lr)),
            st.tuples(children, children).map(lambda lr: Implies(*lr)),
            st.tuples(children, children).map(lambda lr: Iff(*lr)),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


# values a weight map may hold: the floats that render alike but must not
# merge (0.0 and -0.0), the ones that compare equal to ints and bools
# (1.0, 0.0), and the ones json.dumps spells out (NaN, Infinity)
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.5, 1 / 3, math.nan, math.inf, -math.inf]),
    st.floats(),
)
_WEIGHTS = st.one_of(_FLOATS, st.integers(min_value=-2, max_value=2), st.booleans())


@st.composite
def weight_maps(draw, k: int) -> dict:
    """A map from the labels of k switches, inserted in any order, to a
    few floats, a few values of any kind, or all distinct floats; the
    map may hold only some labels, or none."""
    labels = [format(v, f"0{k}b") for v in range(2**k)]
    keys = draw(st.permutations(labels))
    keys = keys[: draw(st.integers(min_value=0, max_value=len(keys)))]
    kind = draw(st.sampled_from([_FLOATS, _WEIGHTS, None]))
    if kind is None:
        values = draw(st.lists(st.floats(), min_size=len(keys), max_size=len(keys), unique=True))
    else:
        pool = draw(st.lists(kind, min_size=1, max_size=3))
        values = [draw(st.sampled_from(pool)) for _ in keys]
    return dict(zip(keys, values))


@st.composite
def traces(draw) -> Trace:
    """A hand-built trace: snapshots of any of the three shapes, with
    events of any shape, and keys the mechanisms never write."""
    k = draw(st.integers(min_value=1, max_value=4))
    labels = st.lists(st.sampled_from([format(v, f"0{k}b") for v in range(2**k)]), max_size=4)
    state = st.one_of(
        st.fixed_dictionaries({"weights": weight_maps(k), "extinct": labels}),
        st.fixed_dictionaries(
            {"switches": st.lists(st.sampled_from(["neutral", "0", "1"])), "block": labels}
        ),
        st.fixed_dictionaries({"members": st.lists(st.integers(0, 9))}),
        st.dictionaries(st.text(max_size=3), st.one_of(weight_maps(k), labels, _WEIGHTS)),
    )
    event = st.one_of(
        st.none(),
        st.just({"kind": "amplify"}),
        st.fixed_dictionaries({"switch": st.integers(1, k), "value": st.sampled_from("01")}),
        st.fixed_dictionaries({"add": st.integers(0, 9), "duplicate": st.booleans()}),
    )
    states = draw(st.lists(st.tuples(event, state), min_size=1, max_size=4))
    mechanism = draw(st.sampled_from(["selectionist", "generative", "creationist"]))
    steps = tuple(TraceStep(i, e, s) for i, (e, s) in enumerate(states))
    return Trace(mechanism, k, steps)


@st.composite
def comparisons(draw) -> MechanismComparison:
    selection, generation = draw(traces()), draw(traces())
    k = draw(st.integers(min_value=1, max_value=4))
    target = draw(st.integers(min_value=0, max_value=2**k - 1))
    return MechanismComparison(k, target, selection, generation, draw(st.booleans()))


# strings json.dumps must escape: quotes, backslashes, control and
# non-ASCII characters, DEL, and astral ones written as surrogate pairs
_ESCAPED = st.text(alphabet=st.sampled_from('"\\\x00\n\x1f\x7f\x80é \U0001f600'))
_STRINGS = st.one_of(st.sampled_from(["", "0", "01", "neutral", "final"]), _ESCAPED, st.text())
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=2),
    st.integers(),
    st.integers(min_value=2**63),  # beyond any fixed-width integer
    _FLOATS,
    _STRINGS,
)
# keys json.dumps accepts besides str; sort_keys raises TypeError on keys
# that do not compare, such as a str and an int
_KEYS = st.one_of(_STRINGS, st.integers(), st.floats(), st.booleans(), st.none())


def json_documents():
    """Documents of scalars, lists and dicts. Lists may mix str with
    other items; a dict's keys are mostly str, but may be of any kind
    json.dumps takes, and of several kinds, which it cannot sort."""
    return st.recursive(
        _SCALARS,
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.lists(_STRINGS, max_size=5),
            st.dictionaries(_STRINGS, children, max_size=5),
            st.dictionaries(_KEYS, children, max_size=3),
        ),
        max_leaves=20,
    )
