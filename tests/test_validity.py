import json
import random

import pytest

import oracles
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


class TestPartitionTautology:
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

    def test_budget_enforced(self):
        tight = Limits().replaced(max_search_assignments=20)
        with pytest.raises(ResourceLimitError):
            partition_tautology(parse("p & q"), 4, limits=tight)

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
