import json
import pathlib
import random

import pytest
from hypothesis import given

import oracles
from ditkit import (
    And,
    Const,
    FormulaSyntaxError,
    Iff,
    Implies,
    Not,
    Or,
    PartitionAssignment,
    Partition,
    Subset,
    SubsetAssignment,
    UnbalancedParensError,
    UnboundVariableError,
    UniverseTooSmallError,
    Var,
    dit,
    eval_partition,
    eval_subset,
    format_formula,
    formula_to_json,
    free_variables,
    parse,
    random_formula,
)
from strategies import formulas


class TestParse:
    def test_atoms(self):
        assert parse("p") == Var("p")
        assert parse("T") == Const(True)
        assert parse("F") == Const(False)
        assert parse("long_name2") == Var("long_name2")

    def test_precedence(self):
        assert parse("p & q") == And(Var("p"), Var("q"))
        assert parse("~p | q -> r") == Implies(Or(Not(Var("p")), Var("q")), Var("r"))
        assert parse("p | q & r") == Or(Var("p"), And(Var("q"), Var("r")))
        assert parse("p <-> q -> r") == Iff(Var("p"), Implies(Var("q"), Var("r")))

    def test_associativity(self):
        assert parse("p -> q -> r") == Implies(Var("p"), Implies(Var("q"), Var("r")))
        assert parse("p & q & r") == And(And(Var("p"), Var("q")), Var("r"))
        assert parse("p | q | r") == Or(Or(Var("p"), Var("q")), Var("r"))

    def test_parens(self):
        assert parse("(p -> q) -> r") == Implies(Implies(Var("p"), Var("q")), Var("r"))
        assert parse("~(p & q)") == Not(And(Var("p"), Var("q")))

    def test_double_negation(self):
        assert parse("~~p") == Not(Not(Var("p")))

    def test_error_position(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse("p &")
        assert exc.value.position == 3
        assert "(position 3)" in str(exc.value)

    def test_bad_character(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse("p @ q")
        assert exc.value.position == 2

    def test_unbalanced(self):
        with pytest.raises(UnbalancedParensError):
            parse("(p & q")
        with pytest.raises(UnbalancedParensError):
            parse("p & q)")

    def test_empty(self):
        with pytest.raises(FormulaSyntaxError):
            parse("")

    def test_trailing_garbage(self):
        with pytest.raises(FormulaSyntaxError):
            parse("p q")


_PARSE_ERRORS = json.loads(
    (pathlib.Path(__file__).with_name("parse_errors.json")).read_text(encoding="utf-8")
)


@pytest.mark.parametrize("row", _PARSE_ERRORS, ids=[repr(r["input"]) for r in _PARSE_ERRORS])
def test_parse_error_matches_golden(row):
    # class, message and position as the recursive-descent parser gave them
    with pytest.raises(FormulaSyntaxError) as exc:
        parse(row["input"])
    assert type(exc.value).__name__ == row["error"]
    assert str(exc.value) == row["message"]
    assert exc.value.position == row["position"]


class TestDepth:
    DEPTH = 3000

    def test_nested_negation(self):
        f = parse("~" * self.DEPTH + "p")
        assert format_formula(f) == "~" * self.DEPTH + "p"
        assert free_variables(f) == ("p",)

    def test_nested_parentheses(self):
        f = parse("(" * self.DEPTH + "p -> p" + ")" * self.DEPTH)
        assert f == Implies(Var("p"), Var("p"))

    def test_long_implication_chain(self):
        f = parse(" -> ".join(["p"] * 5000))
        assert str(f) == " -> ".join(["p"] * 5000)
        node, depth = formula_to_json(f), 0
        while node["kind"] == "implies":
            node, depth = node["children"][1], depth + 1
        assert depth == 4999

    def test_equality_hash_and_repr(self):
        deep = "~" * self.DEPTH + "p"
        f, g = parse(deep), parse(deep)
        assert f == g and hash(f) == hash(g) and len({f, g}) == 1
        assert f != parse("~" + deep) and f != parse(deep.replace("p", "q"))
        assert repr(f) == "Not(child=" * self.DEPTH + "Var(name='p')" + ")" * self.DEPTH
        chain = parse(" -> ".join(["p"] * 5000))
        assert chain == parse(" -> ".join(["p"] * 5000))
        assert repr(chain).count("Implies(left=Var(name='p'), right=") == 4999

    def test_shallow_repr_and_equality_as_dataclasses(self):
        f = parse("p & ~q")
        assert repr(f) == "And(left=Var(name='p'), right=Not(child=Var(name='q')))"
        assert repr(parse("T | F")) == "Or(left=Const(value=True), right=Const(value=False))"
        assert repr(parse("p <-> q")) == "Iff(left=Var(name='p'), right=Var(name='q'))"
        assert f == And(Var("p"), Not(Var("q"))) and f != Or(Var("p"), Not(Var("q")))
        assert Var("p") != "p" and Const(True) != Var("T")


class TestFormat:
    def test_minimal_parens(self):
        assert format_formula(parse("p & q | r")) == "p & q | r"
        assert format_formula(parse("p & (q | r)")) == "p & (q | r)"
        assert format_formula(parse("(p -> q) -> r")) == "(p -> q) -> r"
        assert format_formula(parse("p -> q -> r")) == "p -> q -> r"
        assert format_formula(parse("~(p | q)")) == "~(p | q)"

    def test_round_trip_seeded_corpus(self):
        rng = random.Random(20240817)
        for _ in range(500):
            f = random_formula(rng)
            assert parse(format_formula(f)) == f

    @given(formulas())
    def test_round_trip_property(self, f):
        assert parse(format_formula(f)) == f

    def test_json_shape(self):
        got = formula_to_json(parse("~p -> F"))
        assert got == {
            "kind": "implies",
            "children": [
                {"kind": "not", "children": [{"kind": "var", "name": "p"}]},
                {"kind": "const", "value": "F"},
            ],
        }

    def test_free_variables_sorted_unique(self):
        assert free_variables(parse("q & p | q")) == ("p", "q")
        assert free_variables(Const(True)) == ()


class TestSubsetEvaluation:
    def test_connectives(self):
        env = SubsetAssignment(4, {"p": Subset.of(4, [0, 1]), "q": Subset.of(4, [1, 2])})
        assert list(eval_subset(parse("p & q"), env)) == [1]
        assert list(eval_subset(parse("p | q"), env)) == [0, 1, 2]
        assert list(eval_subset(parse("~p"), env)) == [2, 3]
        assert list(eval_subset(parse("p -> q"), env)) == [1, 2, 3]
        assert list(eval_subset(parse("p <-> q"), env)) == [1, 3]
        assert eval_subset(parse("T"), env).is_full()
        assert list(eval_subset(parse("F"), env)) == []

    def test_excluded_middle_is_full(self):
        env = SubsetAssignment(3, {"p": Subset.of(3, [0])})
        assert eval_subset(parse("p | ~p"), env).is_full()

    def test_unbound_variable(self):
        env = SubsetAssignment(2, {})
        with pytest.raises(UnboundVariableError):
            eval_subset(parse("p"), env)


class TestPartitionEvaluation:
    def test_implication_examples(self):
        env = PartitionAssignment(3, {"p": Partition(3, (0, 0, 1))})
        assert str(eval_partition(parse("p -> p"), env)) == "0|1|2"
        assert str(eval_partition(parse("p | ~p"), env)) == "0,1|2"
        assert str(eval_partition(parse("~p"), env)) == "0,1,2"

    def test_constants(self):
        env = PartitionAssignment(3, {})
        assert str(eval_partition(parse("T"), env)) == "0|1|2"
        assert str(eval_partition(parse("F"), env)) == "0,1,2"

    def test_universe_too_small(self):
        with pytest.raises(UniverseTooSmallError):
            eval_partition(parse("T"), PartitionAssignment(1, {}))

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            eval_partition(parse("p"), PartitionAssignment(2, {}))

    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_ditwise_oracle(self, n):
        # structural evaluation must match working directly on
        # distinction sets with a fixpoint interior at every node
        rng = random.Random(99)
        from ditkit import enumerate_partitions

        pool = list(enumerate_partitions(n))
        for _ in range(40):
            f = random_formula(rng, variables=("p", "q"), max_depth=5)
            p = rng.choice(pool)
            q = rng.choice(pool)
            env = PartitionAssignment(n, {"p": p, "q": q})
            want = oracles.eval_ditwise(f, n, {"p": dit(p).pairs, "q": dit(q).pairs})
            assert dit(eval_partition(f, env)).pairs == want


class TestRandomFormula:
    def test_deterministic_for_seed(self):
        a = [random_formula(random.Random(7)) for _ in range(20)]
        b = [random_formula(random.Random(7)) for _ in range(20)]
        assert a == b

    def test_respects_variable_pool(self):
        rng = random.Random(3)
        for _ in range(50):
            f = random_formula(rng, variables=("x", "y"))
            assert set(free_variables(f)) <= {"x", "y"}
