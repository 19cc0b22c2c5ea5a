"""The record contract of the toolkit's immutable value classes: how
they are built, printed, compared, hashed, frozen, pickled and copied.

The repr strings and the digest of the formula reprs were recorded when
these classes were still frozen dataclasses, so they pin that output."""
import copy
import hashlib
import pickle
import random

import pytest

from ditkit import (
    DEFAULT_LIMITS,
    And,
    Const,
    Fitness,
    Iff,
    Implies,
    Limits,
    Not,
    Or,
    PairRelation,
    Partition,
    PartitionAssignment,
    Subset,
    SubsetAssignment,
    SwitchBank,
    Trace,
    TraceStep,
    Var,
    VariantSpace,
    compare_mechanisms,
    create,
    parse,
    partition_tautology,
    random_formula,
    run_generative,
    scheme_relations,
    set_switch,
)
from ditkit.relations import _Record

_CASES = {
    "Partition": (
        lambda: Partition(3, (0, 1, 0)),
        "Partition(n=3, assignment=(0, 1, 0))",
    ),
    "Subset": (
        lambda: Subset(3, frozenset({2, 0})),
        "Subset(n=3, members=frozenset({0, 2}))",
    ),
    "PairRelation": (
        lambda: PairRelation(2, frozenset({(0, 1)})),
        "PairRelation(n=2, pairs=frozenset({(0, 1)}))",
    ),
    "Limits": (
        Limits,
        "Limits(max_relation_n=12, max_lattice_n=10, max_truth_vars=16, "
        "max_search_assignments=10000, max_switch_bits=10, max_selection_steps=10000)",
    ),
    "Verdict": (
        lambda: partition_tautology(parse("p | ~p"), 3),
        "Verdict(valid=False, counterexample=Counterexample(n=3, assignment={'p': "
        "Partition(n=3, assignment=(0, 0, 1))}, value=Partition(n=3, assignment=(0, 0, 1))), "
        "universes_checked=(2, 3), assignments_checked=4)",
    ),
    "Verdict valid": (
        lambda: partition_tautology(parse("p -> p"), 3),
        "Verdict(valid=True, counterexample=None, universes_checked=(2, 3), "
        "assignments_checked=5)",
    ),
    "Counterexample": (
        lambda: partition_tautology(parse("p | ~p"), 3).counterexample,
        "Counterexample(n=3, assignment={'p': Partition(n=3, assignment=(0, 0, 1))}, "
        "value=Partition(n=3, assignment=(0, 0, 1)))",
    ),
    "SubsetAssignment": (
        lambda: SubsetAssignment(2, {"p": Subset(2, frozenset({1}))}),
        "SubsetAssignment(n=2, values={'p': Subset(n=2, members=frozenset({1}))})",
    ),
    "PartitionAssignment": (
        lambda: PartitionAssignment(2, {"p": Partition(2, (0, 1))}),
        "PartitionAssignment(n=2, values={'p': Partition(n=2, assignment=(0, 1))})",
    ),
    "Var": (lambda: Var("p"), "Var(name='p')"),
    "Const": (lambda: Const(False), "Const(value=False)"),
    "Not": (lambda: parse("~p"), "Not(child=Var(name='p'))"),
    "And": (lambda: parse("p & T"), "And(left=Var(name='p'), right=Const(value=True))"),
    "Or": (lambda: parse("p | q"), "Or(left=Var(name='p'), right=Var(name='q'))"),
    "Implies": (
        lambda: parse("p -> q -> r"),
        "Implies(left=Var(name='p'), right=Implies(left=Var(name='q'), right=Var(name='r')))",
    ),
    "Iff": (
        lambda: parse("(p <-> q) <-> F"),
        "Iff(left=Iff(left=Var(name='p'), right=Var(name='q')), right=Const(value=False))",
    ),
    "VariantSpace": (lambda: VariantSpace(3), "VariantSpace(k=3)"),
    "SwitchBank": (
        lambda: set_switch(SwitchBank.neutral(2), 1, 1),
        "SwitchBank(k=2, states=(<SwitchState.ONE: '1'>, <SwitchState.NEUTRAL: 'neutral'>))",
    ),
    "Fitness": (lambda: Fitness.peaked(1, 1, 0.5), "Fitness(k=1, scores=(1.0, 1.5))"),
    "TraceStep": (
        lambda: TraceStep(1, {"switch": 1, "value": "0"}, {"block": ["10"]}),
        "TraceStep(index=1, event={'switch': 1, 'value': '0'}, state={'block': ['10']})",
    ),
    "Trace": (
        lambda: run_generative(2, [(2, 1)]),
        "Trace(mechanism='generative', k=2, steps=(TraceStep(index=0, event=None, "
        "state={'switches': ['neutral', 'neutral'], 'block': ['00', '01', '10', '11']}), "
        "TraceStep(index=1, event={'switch': 2, 'value': '1'}, state={'switches': "
        "['neutral', '1'], 'block': ['10', '11']})), params={'experience': ((2, 1),), "
        "'overwrite': False})",
    ),
    "Trace create": (
        lambda: create(2, [1]),
        "Trace(mechanism='creationist', k=2, steps=(TraceStep(index=0, event=None, "
        "state={'members': []}), TraceStep(index=1, event={'add': 1, 'duplicate': False}, "
        "state={'members': [1]})), params={'elements': (1,)})",
    ),
    "MechanismComparison": (
        lambda: compare_mechanisms(1, 1, 1.0),
        "MechanismComparison(k=1, target=1, selectionist=Trace(mechanism='selectionist', "
        "k=1, steps=(TraceStep(index=0, event=None, state={'weights': {'0': 0.5, '1': 0.5}, "
        "'extinct': []}), TraceStep(index=1, event={'kind': 'amplify'}, state={'weights': "
        "{'0': 0.3333333333333333, '1': 0.6666666666666666}, 'extinct': []}), "
        "TraceStep(index=2, event={'kind': 'amplify'}, state={'weights': {'0': 0.0, "
        "'1': 1.0}, 'extinct': ['0']})), params={'fitness': Fitness(k=1, scores=(1.0, 2.0)), "
        "'extinction_threshold': 0.25, 'max_steps': 4}), generative=Trace(mechanism="
        "'generative', k=1, steps=(TraceStep(index=0, event=None, state={'switches': "
        "['neutral'], 'block': ['0', '1']}), TraceStep(index=1, event={'switch': 1, "
        "'value': '1'}, state={'switches': ['1'], 'block': ['1']})), params={'experience': "
        "((1, 1),), 'overwrite': False}), agreement=True)",
    ),
    "SchemeRelation": (
        lambda: scheme_relations()[0],
        "SchemeRelation(scheme=<Scheme.SELECTIONIST: 'selectionist'>, signature='U->S', "
        "dual=<Scheme.IDENTIFICATION: 'identification'>, opposite=<Scheme.CREATIONIST: "
        "'creationist'>)",
    ),
}

_FORMULAS = (Var, Const, Not, And, Or, Implies, Iff)


def test_every_record_class_is_covered():
    classes = {type(make()) for make, _ in _CASES.values()}
    assert len(classes) == 22 and all(issubclass(cls, _Record) for cls in classes)


@pytest.mark.parametrize("case", sorted(_CASES))
class TestRecordContract:
    def test_repr(self, case):
        make, text = _CASES[case]
        assert repr(make()) == text

    def test_fields_by_keyword_and_position(self, case):
        record = _CASES[case][0]()
        values = [getattr(record, name) for name in record._fields]
        by_keyword = type(record)(**dict(zip(record._fields, values)))
        by_position = type(record)(*values)
        assert repr(by_keyword) == repr(by_position) == repr(record)
        assert by_keyword == by_position == record

    def test_equality_and_hash(self, case):
        record = _CASES[case][0]()
        again = _CASES[case][0]()
        assert record == again and not record != again
        assert record != object() and record != tuple(getattr(record, f) for f in record._fields)
        key = tuple(getattr(record, name) for name in record._fields)
        if isinstance(record, _FORMULAS):  # formulas compare their postfix programs
            key = record._key()
        elif isinstance(record, Trace):  # traces leave params out
            key = key[:-1]
        try:
            expected = hash(key)
        except TypeError:  # a field holds a dict: unhashable, as before
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == expected == hash(again)

    def test_frozen(self, case):
        record = _CASES[case][0]()
        for name in record._fields:
            before = getattr(record, name)
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
            assert getattr(record, name) is before
        with pytest.raises(AttributeError):
            record.extra = 1

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, case, protocol):
        record = _CASES[case][0]()
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is type(record) and back == record and repr(back) == repr(record)

    def test_copies(self, case):
        record = _CASES[case][0]()
        for duplicate in (copy.copy(record), copy.deepcopy(record)):
            assert type(duplicate) is type(record)
            assert duplicate == record and repr(duplicate) == repr(record)


class _Twin(_Record):
    """A record with Partition's fields and no checks."""

    n: int
    assignment: tuple


class TestRecordBase:
    def test_other_class_with_the_same_fields_is_unequal(self):
        assert Partition(2, (0, 1)) != _Twin(2, (0, 1))
        assert _Twin(2, (0, 1)) != Partition(2, (0, 1))
        assert Partition(2, (0, 1)) == Partition(2, (0, 1))
        p, q = Var("p"), Var("q")
        for left, right in ((And, Or), (Implies, Iff), (Or, Iff)):
            assert left(p, q) != right(p, q)

    def test_defaults(self):
        assert Limits() == DEFAULT_LIMITS
        assert Limits(max_lattice_n=3).max_lattice_n == 3
        assert Limits(5).max_relation_n == 5 and Limits(5).max_truth_vars == 16
        first, second = Trace("generative", 1, ()), Trace("generative", 1, ())
        assert first.params == {} and first.params is not second.params
        given = Trace("generative", 1, (), params=None)
        assert given.params == {} and given.params is not first.params

    def test_trace_params_are_left_out_of_equality(self):
        trace = run_generative(2, [(1, 0)])
        other = Trace(trace.mechanism, trace.k, trace.steps, params={"experience": ()})
        assert trace == other and repr(trace) != repr(other)
        assert trace._key() == (trace.mechanism, trace.k, trace.steps)

    def test_trace_hash_leaves_params_out(self):
        # a dict in params makes no trace unhashable
        given = Trace("generative", 1, (), params={"experience": [(1, 0)]})
        bare = Trace("generative", 1, ())
        assert hash(given) == hash(bare) == hash(("generative", 1, ()))
        assert len({given, bare}) == 1

    def test_field_lists(self):
        assert Partition._fields == ("n", "assignment")
        assert Trace._fields == ("mechanism", "k", "steps", "params")
        assert Var._fields == ("name",) and And._fields == ("left", "right")
        assert Not._fields == ("child",) and Partition(2, (0, 1))._key() == (2, (0, 1))
        match Partition(2, (0, 1)):
            case Partition(n, assignment):
                assert (n, assignment) == (2, (0, 1))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: Partition(2), r"missing required argument 'assignment'"),
            (lambda: Partition(2, (0, 1), 3), r"takes 2 arguments but 3 were given"),
            (lambda: Partition(2, n=2), r"got multiple values for argument 'n'"),
            (lambda: Partition(2, blocks=()), r"got an unexpected keyword argument 'blocks'"),
            (lambda: Limits(max_wat=1), r"got an unexpected keyword argument 'max_wat'"),
            (lambda: Var(), r"missing required argument 'name'"),
        ],
    )
    def test_bad_arguments(self, call, message):
        with pytest.raises(TypeError, match=message):
            call()

    def test_post_init_checks_every_construction(self):
        with pytest.raises(ValueError):
            Partition(n=2, assignment=(1, 0))
        with pytest.raises(ValueError):
            Limits(max_truth_vars=0)
        with pytest.raises(ValueError):
            DEFAULT_LIMITS.replaced(max_truth_vars=0)
        assert DEFAULT_LIMITS.replaced(max_truth_vars=3) == Limits(max_truth_vars=3)


def _reference_repr(f) -> str:
    """The recursive repr of a formula tree, field by field."""
    fields = ", ".join(
        f"{name}={_reference_repr(value) if isinstance(value, _FORMULAS) else repr(value)}"
        for name, value in ((name, getattr(f, name)) for name in type(f)._fields)
    )
    return f"{type(f).__name__}({fields})"


def test_formula_reprs_of_302_seeded_trees():
    rng = random.Random(302)
    trees = [random_formula(rng, ("p", "q", "r", "s"), 10) for _ in range(302)]
    text = "\n".join(map(repr, trees))
    assert text == "\n".join(map(_reference_repr, trees))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8b4e44fb4b96e9df4d2c87323a72d0e34795f2f359692ffdfcc4b1a72f24a7e6"
    )
