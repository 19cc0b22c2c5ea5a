import functools
import itertools
import json
import math
import random
import re
import time
from unittest import mock

import pytest

import oracles
from ditkit import validity
from ditkit import (
    Limits,
    PartitionAssignment,
    Partition,
    ResourceLimitError,
    SubsetAssignment,
    Subset,
    TooManyVariablesError,
    UniverseTooSmallError,
    eval_partition,
    eval_subset,
    parse,
    partition_tautology,
    random_formula,
    subset_valid,
    truth_table_tautology,
)
from ditkit.formulas import And, Const, Iff, Implies, Not, Or, Var


class TestTruthTable:
    def test_classics(self):
        assert truth_table_tautology(parse("p | ~p")).valid
        assert truth_table_tautology(parse("p -> p")).valid
        assert truth_table_tautology(parse("((p -> q) -> p) -> p")).valid  # Peirce
        assert truth_table_tautology(parse("T")).valid

    def test_invalid_with_counterexample(self):
        v = truth_table_tautology(parse("p -> q"))
        assert not v.valid
        assert v.counterexample is not None
        assert v.counterexample.assignment == {"p": True, "q": False}
        assert v.counterexample.value is False

    def test_too_many_variables(self):
        f = parse(" & ".join(f"v{i}" for i in range(17)))
        with pytest.raises(TooManyVariablesError):
            truth_table_tautology(f)


# universe bounds refused before any range or budget is built, bools included
_NON_INTS = [2.5, 3.0, math.nan, True, False, "3", None]


class TestSubsetValidity:
    def test_excluded_middle_valid(self):
        assert subset_valid(parse("p | ~p"), 3).valid

    def test_implication_counterexample(self):
        v = subset_valid(parse("p -> q"), 3)
        assert not v.valid
        cx = v.counterexample
        assert cx.n == 1
        assert cx.assignment["p"] == Subset.of(1, [0])
        assert cx.assignment["q"] == Subset.empty(1)
        assert len(cx.value) == 0

    def test_counterexample_reevaluates(self):
        v = subset_valid(parse("(p -> q) -> q"), 2)
        assert not v.valid
        cx = v.counterexample
        env = SubsetAssignment(cx.n, cx.assignment)
        assert eval_subset(parse("(p -> q) -> q"), env) == cx.value
        assert not cx.value.is_full()

    @pytest.mark.parametrize("n_max", _NON_INTS)
    def test_n_max_must_be_an_int(self, monkeypatch, n_max):
        monkeypatch.setattr(validity, "_compile", None)
        with pytest.raises(ValueError, match=f"^{re.escape(f'n_max must be an int, got {n_max!r}')}$"):
            subset_valid(parse("p -> p"), n_max)

    def test_budget_enforced(self):
        tight = Limits().replaced(max_search_assignments=10)
        with pytest.raises(ResourceLimitError) as exc:
            subset_valid(parse("p & q & r"), 3, limits=tight)
        assert "10" in str(exc.value)

    def test_matches_truth_table_on_corpus(self):
        rng = random.Random(20240818)
        for _ in range(150):
            f = random_formula(rng, max_depth=6)
            assert subset_valid(f, 3).valid == truth_table_tautology(f).valid


def _false_only_at(names, row: int):
    """The negated conjunction of literals that holds only at the given
    row of itertools.product order over the sorted names."""
    v = len(names)
    literals = [name if row >> (v - 1 - i) & 1 else f"~{name}" for i, name in enumerate(names)]
    return parse("~(" + " & ".join(literals) + ")")


class TestRowOrder:
    """The truth table is evaluated as bit strings; its first failing row
    must be the one a row-by-row scan in itertools.product order meets."""

    def test_each_row_is_found_in_product_order(self):
        # false at the row and at the last row, which a scan meets later
        for v in range(1, 5):
            names = "abcd"[:v]
            last = _false_only_at(names, 2**v - 1)
            for row, values in enumerate(itertools.product((False, True), repeat=v)):
                f = And(_false_only_at(names, row), last)
                truth = truth_table_tautology(f)
                assert truth.counterexample.assignment == dict(zip(names, values))
                assert truth.assignments_checked == row + 1
                subset = subset_valid(f, 3)
                points = [Subset.of(1, [0] if bit else []) for bit in values]
                assert subset.counterexample.assignment == dict(zip(names, points))
                assert subset.universes_checked == (1, 1)
                assert subset.assignments_checked == row + 1

    def test_sixteen_variables_fail_at_the_last_row(self):
        names = [f"v{i:02d}" for i in range(16)]
        f = _false_only_at(names, 2**16 - 1)
        truth = truth_table_tautology(f)
        assert truth.assignments_checked == 65536
        assert truth.counterexample.assignment == dict.fromkeys(names, True)
        wide = Limits().replaced(max_search_assignments=2**16)
        subset = subset_valid(f, 1, limits=wide)
        assert subset.assignments_checked == 65536
        assert subset.counterexample.assignment == dict.fromkeys(names, Subset.full(1))

    def test_valid_counts_every_assignment(self):
        f = parse("(p & r) | ~q | q")
        assert truth_table_tautology(f).assignments_checked == 8
        assert subset_valid(f, 3).assignments_checked == 8 + 64 + 512
        assert subset_valid(parse("T"), 3).assignments_checked == 3


class TestPartitionTautology:
    @pytest.mark.parametrize("n_max", _NON_INTS)
    def test_n_max_must_be_an_int(self, monkeypatch, n_max):
        monkeypatch.setattr(validity, "_compile", None)
        with pytest.raises(ValueError, match=f"^{re.escape(f'n_max must be an int, got {n_max!r}')}$"):
            partition_tautology(parse("p -> p"), n_max)

    def test_self_implication_valid(self):
        v = partition_tautology(parse("p -> p"), 4)
        assert v.valid
        assert v.universes_checked == (2, 4)

    def test_excluded_middle_fails_with_minimal_witness(self):
        v = partition_tautology(parse("p | ~p"), 3)
        assert not v.valid
        cx = v.counterexample
        assert cx.n == 3
        assert cx.assignment["p"] == Partition(3, (0, 0, 1))
        assert cx.value == Partition(3, (0, 0, 1))

    def test_counterexample_reevaluates(self):
        f = parse("p | ~p")
        v = partition_tautology(f, 3)
        cx = v.counterexample
        env = PartitionAssignment(cx.n, cx.assignment)
        assert eval_partition(f, env) == cx.value

    def test_requires_two_elements(self):
        with pytest.raises(UniverseTooSmallError):
            partition_tautology(parse("p"), 1)

    def test_nullary_formulas(self):
        assert partition_tautology(parse("T"), 4).valid
        v = partition_tautology(parse("F"), 4)
        assert not v.valid
        assert v.counterexample.n == 2

    def test_nullary_formulas_build_no_partition_pool(self, monkeypatch):
        # the pool's distinction masks took 10-11 ms at n = 8 and 60-68 ms
        # at n = 9 for a scan of one evaluation per universe
        def refuse(x):
            raise AssertionError("distinction mask built for a formula without variables")

        monkeypatch.setattr(validity, "_dit_mask", refuse)
        wide = Limits().replaced(max_search_assignments=30_000)
        v = partition_tautology(parse("T"), 9, limits=wide)
        assert (v.valid, v.universes_checked, v.assignments_checked) == (True, (2, 9), 8)
        v = partition_tautology(parse("~T"), 9, limits=wide)
        assert (v.valid, v.universes_checked, v.assignments_checked) == (False, (2, 2), 1)
        assert (v.counterexample.n, v.counterexample.assignment) == (2, {})
        assert str(v.counterexample.value) == "0,1"

    def test_budget_enforced(self):
        tight = Limits().replaced(max_search_assignments=20)
        with pytest.raises(ResourceLimitError):
            partition_tautology(parse("p & q"), 4, limits=tight)

    def test_budget_check_reads_the_bell_numbers_in_turn(self):
        # a budget that admits every Bell(n) leaves the refusal to the
        # lattice cap; recomputing Bell(n) from scratch for each n took
        # about 5 s of CPU to n = 600
        wide = Limits().replaced(max_search_assignments=10**4000)
        start = time.process_time()
        message = r"^enumerating Bell\(600\) > 10\*\*15 partitions exceeds the cap n <= 10$"
        with pytest.raises(ResourceLimitError, match=message):
            partition_tautology(parse("p"), 600, limits=wide)
        assert time.process_time() - start < 1.0

    def test_assignments_checked_counts_evaluations(self):
        # only orbit representatives are evaluated: 4 + 10 + 33 + 91 pairs
        # at n = 2..5 against 4 + 25 + 225 + 2704, and p(n) single values
        # (2 + 3 + 5 + 7) against Bell(n); a formula with no variables is
        # evaluated once per universe
        assert partition_tautology(parse("p -> (q -> p)"), 5).assignments_checked == 138
        assert partition_tautology(parse("p -> p"), 5).assignments_checked == 17
        assert partition_tautology(parse("T"), 5).assignments_checked == 4

    def test_partition_valid_implies_truth_valid(self):
        # truth assignments embed as partitions on two points, so
        # partition validity is the stronger property
        rng = random.Random(20240819)
        for _ in range(60):
            f = random_formula(rng, variables=("p", "q"), max_depth=5)
            if partition_tautology(f, 3).valid:
                assert truth_table_tautology(f).valid


class TestDeterminism:
    def test_json_shape(self):
        v = partition_tautology(parse("p | ~p"), 3)
        got = json.loads(v.to_json())
        assert got == {
            "valid": False,
            "n_checked": [2, 3],
            "counterexample": {"n": 3, "assignment": {"p": "0,1|2"}, "value": "0,1|2"},
        }

    def test_valid_json_shape(self):
        got = json.loads(partition_tautology(parse("p -> p"), 3).to_json())
        assert got == {"valid": True, "n_checked": [2, 3], "counterexample": None}

    @pytest.mark.parametrize("text", ["p | ~p", "p -> p", "é | ~é", "p² -> ǅ", "(é & p²) | ~ǅ"])
    def test_to_json_is_json_dumps(self, text):
        # non-ASCII names are escaped, and sorted, as json.dumps does
        f = parse(text)
        for v in (truth_table_tautology(f), subset_valid(f, 3), partition_tautology(f, 3)):
            assert v.to_json() == json.dumps(v.to_json_dict(), sort_keys=True)

    @pytest.mark.parametrize("value", [3, None, "0,1|2", frozenset({0})])
    def test_only_truth_values_subsets_and_partitions_render(self, value):
        with pytest.raises(TypeError, match=f"^cannot render {re.escape(repr(value))}$"):
            validity._render_value(value)


class TestAgainstOracles:
    def test_truth_and_subset_verdicts_on_seeded_corpus(self):
        # the recursive oracles share nothing with the postfix evaluator or
        # the lift kernel; the partition one pins the minimal counterexample
        rng = random.Random(20261018)
        for _ in range(300):
            f = random_formula(rng, max_depth=6)
            want = json.dumps(oracles.truth_verdict_json(f), sort_keys=True)
            assert truth_table_tautology(f).to_json() == want
            want = json.dumps(oracles.subset_verdict_json(f, 3), sort_keys=True)
            assert subset_valid(f, 3).to_json() == want
            want = json.dumps(oracles.partition_verdict_json(f, 3), sort_keys=True)
            assert partition_tautology(f, 3).to_json() == want


def _product_verdict(f, n_max: int):
    """The unreduced partition scan: every assignment of the pool to the
    variables, in itertools.product order."""
    def unreduced(pool, arity):
        return itertools.product(pool, repeat=arity)

    with mock.patch.object(validity, "_orbit_representatives", unreduced):
        return partition_tautology(f, n_max)


# Classical tautologies: every instance holds at n = 2, where partitions
# are truth values, and many fail on larger universes.
_CLASSICAL = (
    "{a} | ~{a}",
    "~~{a} -> {a}",
    "(~{a} -> {a}) -> {a}",
    "(({a} -> {b}) -> {a}) -> {a}",
    "({a} -> {b}) | ({b} -> {a})",
    "({a} & {b}) | ~{a} | ~{b}",
    "(~{a} -> {b}) -> (~{b} -> {a})",
    "({a} <-> {b}) | ({a} <-> ~{b})",
)


class TestOrbitReduction:
    """The partition scan evaluates one assignment per orbit of the
    universe's relabellings at its first two variables; these check that
    it finds the verdict and the minimal counterexample of the full scan."""

    def test_matches_unreduced_scan_on_seeded_corpus(self):
        rng = random.Random(20261019)
        for _ in range(150):
            names = ("p", "q", "r")[: rng.randint(1, 3)]
            f = random_formula(rng, variables=names, max_depth=5)
            want = json.dumps(oracles.partition_verdict_json(f, 4), sort_keys=True)
            assert partition_tautology(f, 4).to_json() == want, str(f)
            # Bell(5)**3 unreduced assignments would overrun the budget
            if len(names) < 3:
                assert partition_tautology(f, 5).to_json() == _product_verdict(f, 5).to_json(), str(f)

    def test_matches_unreduced_scan_on_late_failures(self):
        # A second variable over-reduced by its head's stabiliser can only
        # show once heads have more than one block shape, from n = 3 on.
        # Random formulas mostly fail at n = 2, so this corpus keeps the
        # two-variable instances of classical tautologies that fail later.
        rng = random.Random(20261020)
        late = 0
        for _ in range(360):
            a, b = (random_formula(rng, variables=("p", "q"), max_depth=2) for _ in "ab")
            f = parse(rng.choice(_CLASSICAL).format(a=f"({a})", b=f"({b})"))
            want = _product_verdict(f, 4)
            if want.valid or want.counterexample.n < 3 or len(want.counterexample.assignment) < 2:
                continue
            late += 1
            assert partition_tautology(f, 4).to_json() == want.to_json(), str(f)
        assert late >= 100


class TestOrbitRepresentatives:
    """The scan's value tuples against a brute-force orbit oracle that
    applies all n! relabellings."""

    @pytest.mark.parametrize("n, count", [(2, 4), (3, 10), (4, 33), (5, 91), (6, 298)])
    def test_pairs_are_the_least_of_each_orbit(self, n, count):
        want = oracles.orbit_least_pairs(n)
        assert len(want) == count
        assert list(validity._orbit_representatives(oracles.rgs_lex(n), 2)) == want

    @pytest.mark.parametrize("n, count", [(2, 2), (3, 3), (4, 5), (5, 7), (6, 11)])
    def test_one_value_per_block_size_shape(self, n, count):
        # 0^a 1^b 2^c ... with a >= b >= c >= ...: one per integer partition of n
        def shape(x):
            sizes = [x.count(b) for b in range(max(x) + 1)]
            return list(x) == sorted(x) and sizes == sorted(sizes, reverse=True)

        pool = oracles.rgs_lex(n)
        got = list(validity._orbit_representatives(pool, 1))
        assert got == [(x,) for x in pool if shape(x)]
        assert len(got) == count

    def test_no_variables_give_the_empty_tuple(self, monkeypatch):
        # and build no moves: at n = 8 that would take longer than the scan
        def refuse(head):
            raise AssertionError("stabiliser generators built for no variables")

        monkeypatch.setattr(validity, "_stabiliser_generators", refuse)
        assert list(validity._orbit_representatives(oracles.rgs_lex(3), 0)) == [()]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_later_values_run_over_the_whole_pool(self, n):
        pool = oracles.rgs_lex(n)
        want = [(*pair, x) for pair in oracles.orbit_least_pairs(n) for x in pool]
        assert list(validity._orbit_representatives(pool, 3)) == want


def _formulas_by_size(atoms, max_nodes: int) -> list[list]:
    """Every formula over the atoms with ~ and the four binary
    connectives, grouped by node count: group s holds those of s nodes,
    each built from smaller ones."""
    groups = [[], list(atoms)]
    for size in range(2, max_nodes + 1):
        group = [Not(f) for f in groups[size - 1]]
        for left in range(1, size - 1):
            for shape in (And, Or, Implies, Iff):
                group += [shape(a, b) for a in groups[left] for b in groups[size - 1 - left]]
        groups.append(group)
    return groups


def _assert_verdicts(formulas, n_max: int) -> list[dict]:
    """Compare the three checks of every formula with the bottom-up
    oracles, subsets to n = 3 and partitions to n_max; give the
    partition verdicts."""
    truth = oracles.truth_verdicts_json(formulas)
    subset = oracles.subset_verdicts_json(formulas, 3)
    partition = oracles.partition_verdicts_json(formulas, n_max)
    for f, *want in zip(formulas, truth, subset, partition):
        got = (
            truth_table_tautology(f).to_json_dict(),
            subset_valid(f, 3).to_json_dict(),
            partition_tautology(f, n_max).to_json_dict(),
        )
        assert got == tuple(want), str(f)
    return partition


_P, _Q, _R = Var("p"), Var("q"), Var("r")


class TestSmallWorld:
    """Every small formula, not a sample: the scan engine against the
    oracles, verdicts and minimal counterexamples included."""

    def test_bottom_up_oracles_match_the_scans(self):
        formulas = [f for group in _formulas_by_size((_P, _Q, Const(True)), 4) for f in group]
        formulas += _formulas_by_size((_P, _Q, _R), 5)[5][::7]
        want = [oracles.truth_verdict_json(f) for f in formulas]
        assert oracles.truth_verdicts_json(formulas) == want
        for n_max in (1, 3):
            want = [oracles.subset_verdict_json(f, n_max) for f in formulas]
            assert oracles.subset_verdicts_json(formulas, n_max) == want
        for n_max in (2, 3):
            want = [oracles.partition_verdict_json(f, n_max) for f in formulas]
            assert oracles.partition_verdicts_json(formulas, n_max) == want

    def test_two_variables_up_to_five_nodes(self):
        groups = _formulas_by_size((_P, _Q, Const(True), Const(False)), 5)
        formulas = [f for group in groups for f in group]
        assert len(formulas) == 2708
        verdicts = _assert_verdicts(formulas, 4)
        assert sum(verdict["valid"] for verdict in verdicts) == 845

    def test_three_variables(self):
        # The 5-node formulas with p, q and r each read once are not
        # classical tautologies, so all of them fail at n = 2; the 7-node
        # classical tautologies in all three include ones that hold at
        # n = 2 and fail at n = 3, where heads of more than one block shape
        # put orbit reduction to work on the first two variables.
        groups = _formulas_by_size((_P, _Q, _R), 7)
        every = {"p", "q", "r"}
        read_once = [f for f in groups[5] if set(oracles._variables(f)) == every]
        assert len(read_once) == 192
        verdicts = _assert_verdicts(read_once, 3)
        assert {tuple(verdict["n_checked"]) for verdict in verdicts} == {(2, 2)}
        seven = [f for f in groups[7] if set(oracles._variables(f)) == every]
        tautologies = [
            f for f, verdict in zip(seven, oracles.truth_verdicts_json(seven)) if verdict["valid"]
        ]
        assert len(tautologies) == 756
        verdicts = _assert_verdicts(tautologies, 3)
        late = [verdict for verdict in verdicts if not verdict["valid"]]
        assert len(late) == 180
        assert all(verdict["n_checked"] == [2, 3] for verdict in late)
        # the other 576 scan three variables at n = 4 too; all of them hold
        held = [f for f, verdict in zip(tautologies, verdicts) if verdict["valid"]]
        assert len(held) == 576
        verdicts = _assert_verdicts(held, 4)
        assert all(verdict == {"counterexample": None, "n_checked": [2, 4], "valid": True}
                   for verdict in verdicts)


def _sliced_and_scalar(f, n_max: int, limits: Limits = Limits()) -> tuple:
    v = partition_tautology(f, n_max, limits)
    want, checked = oracles.scalar_partition_scan(f, n_max)
    return (v.to_json(), v.assignments_checked), (json.dumps(want, sort_keys=True), checked)


class TestSlicedScan:
    """The bit-sliced scan against the scalar scan it replaced, which
    evaluates the same value tuples one at a time: the same verdict,
    counterexample and evaluated count."""

    def test_two_variables_up_to_five_nodes(self):
        groups = _formulas_by_size((_P, _Q, Const(True), Const(False)), 5)
        for f in (f for group in groups for f in group):
            got, want = _sliced_and_scalar(f, 4)
            assert got == want, str(f)

    def test_seeded_sample_to_five(self):
        # classical tautologies, so that scans reach the larger universes
        rng = random.Random(20261021)
        wide = Limits().replaced(max_search_assignments=52**3)
        late = 0
        for _ in range(40):
            names = ("p", "q", "r")[: rng.randint(2, 3)]
            a, b = (random_formula(rng, variables=names, max_depth=2) for _ in "ab")
            f = parse(rng.choice(_CLASSICAL).format(a=f"({a})", b=f"({b})"))
            got, want = _sliced_and_scalar(f, 5, wide)
            assert got == want, str(f)
            late += json.loads(got[0])["n_checked"][1] >= 4
        assert late >= 20

    def test_syllogism_to_seven(self):
        # 863,849 evaluations, several chunks at n = 7
        wide = Limits().replaced(max_search_assignments=877**3)
        v = partition_tautology(parse("(p -> q) -> ((q -> r) -> (p -> r))"), 7, wide)
        assert (v.valid, v.universes_checked, v.assignments_checked) == (True, (2, 7), 863_849)


def _chunk_corpus() -> list[tuple]:
    """Formulas of 1 to 4 variables, each with the n_max of its partition
    check: each truth row as the only failing one, seeded random
    formulas, and seeded instances of classical tautologies, which fail
    late or not at all; last, one that first fails at n = 4 with four
    variables, where Bell(4)**2 rows outgrow a chunk of 64."""
    corpus = [(_false_only_at("pqrs"[:v], row), 3) for v in range(1, 5) for row in range(2**v)]
    rng = random.Random(20261022)
    for _ in range(30):
        names = ("p", "q", "r", "s")[: rng.randint(1, 4)]
        n_max = 4 if len(names) < 4 else 3
        corpus.append((random_formula(rng, variables=names, max_depth=4), n_max))
        a, b = (random_formula(rng, variables=names, max_depth=2) for _ in "ab")
        corpus.append((parse(rng.choice(_CLASSICAL).format(a=f"({a})", b=f"({b})")), n_max))
    corpus.append((parse("((p -> (q | r)) -> ((p -> q) | (p -> r))) | (s & ~s)"), 4))
    return corpus


def _checks(f, n_max: int) -> list:
    wide = Limits().replaced(max_search_assignments=15**4)
    return [
        functools.partial(truth_table_tautology, f),
        functools.partial(subset_valid, f, 3),
        functools.partial(partition_tautology, f, n_max, wide),
    ]


class TestChunkEdges:
    """Chunks of any size give the default verdicts and counts. Small
    ones put failures in later chunks and on a chunk's last bit, and
    make the scan's head grow past two variables."""

    @pytest.mark.parametrize("rows", [1, 3, 64])
    def test_chunk_sizes_keep_verdicts(self, monkeypatch, rows):
        corpus = [(f, check) for f, n_max in _chunk_corpus() for check in _checks(f, n_max)]
        want = [(v.to_json(), v.assignments_checked) for v in (check() for _, check in corpus)]
        monkeypatch.setattr(validity, "_CHUNK", rows)
        heads, widths = [], []
        orbit_representatives = validity._orbit_representatives
        algebra = validity._partition_algebra

        def recorded_heads(pool, head):
            heads.append(head)
            return orbit_representatives(pool, head)

        def recorded_widths(n, width):
            widths.append((n, width))
            return algebra(n, width)

        monkeypatch.setattr(validity, "_orbit_representatives", recorded_heads)
        monkeypatch.setattr(validity, "_partition_algebra", recorded_widths)
        later = last = 0
        for (f, check), (text, checked) in zip(corpus, want):
            widths.clear()
            v = check()
            assert (v.to_json(), v.assignments_checked) == (text, checked), str(f)
            if not v.valid:
                # the failing chunk is the last; every chunk before it passed whole
                later += sum(n == widths[-1][0] for n, _ in widths) > 1
                last += sum(width for _, width in widths) == checked
        assert max(heads) > 2 and later and last

    def test_head_grows_past_two_at_the_default_size(self):
        # With seven variables at n = 4, a pair of head values would stand
        # for Bell(4)**5 rows, more than a chunk, so the head takes p, q and
        # r. Each disjoined s & ~s is the bottom partition, so the scan
        # fails at the three-variable counterexample with s..w at their
        # first value, after Bell(n)**4 rows for each (p, q, r) before it.
        base = "(p -> (q | r)) -> ((p -> q) | (p -> r))"
        three = partition_tautology(parse(base), 4)
        assert three.assignments_checked == 8 + 50 + 198
        padded = parse(f"({base}) | (s & ~s) | (t & ~t) | (u & ~u) | (w & ~w)")
        seven = partition_tautology(padded, 4, Limits().replaced(max_search_assignments=15**7))
        assert seven.assignments_checked == 8 * 2**4 + 50 * 5**4 + 197 * 15**4 + 1
        want = three.to_json_dict()
        want["counterexample"]["assignment"].update(dict.fromkeys("stuw", "0,1,2,3"))
        assert seven.to_json_dict() == want
