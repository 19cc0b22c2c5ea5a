import itertools
import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ditkit import (
    And,
    Const,
    FormulaSyntaxError,
    Iff,
    Implies,
    Not,
    Or,
    PairRelation,
    PartitionAssignment,
    Partition,
    Subset,
    SubsetAssignment,
    UnbalancedParensError,
    UnboundVariableError,
    UniverseMismatchError,
    UniverseTooSmallError,
    Var,
    dit,
    eval_partition,
    eval_subset,
    format_formula,
    formula_to_json,
    free_variables,
    interior,
    parse,
    partition_tautology,
    random_formula,
    subset_valid,
    truth_table_tautology,
)
from ditkit.formulas import _pair_columns, _pair_text, _partition_algebra, _tokenize
from ditkit.partitions import _dit_mask
from strategies import formulas, random_partition


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

    def test_unicode_names(self):
        # a letter (str.isalpha), then letters, digits or '_' (str.isalnum)
        assert parse("é -> é") == Implies(Var("é"), Var("é"))
        assert parse("p² | q") == Or(Var("p²"), Var("q"))
        assert parse("ǅ") == Var("ǅ")
        assert parse("p٣ & x½") == And(Var("p٣"), Var("x½"))
        # str.isspace: the no-break space separates tokens
        assert parse("x\xa0& y") == And(Var("x"), Var("y"))

    @pytest.mark.parametrize("text, char", [("½p", "½"), ("²", "²"), ("٣p", "٣"), ("_p", "_"), ("0", "0")])
    def test_name_must_start_with_a_letter(self, text, char):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse(text)
        assert str(exc.value) == f"unexpected character {char!r} (position 0)"
        assert exc.value.position == 0


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


def _lexed(tokenize, text):
    try:
        return tokenize(text)
    except FormulaSyntaxError as exc:
        return type(exc), str(exc), exc.position


class TestLexer:
    """The regular-expression lexer against the character loop it replaced."""

    @settings(max_examples=1000)
    @given(st.text(alphabet="pqrTF_09 \t\n~&|()<->@é²½٣ǅ\xa0"))
    def test_matches_character_loop(self, text):
        assert _lexed(_tokenize, text) == _lexed(oracles.tokenize, text)

    def test_matches_character_loop_on_error_inputs(self):
        for row in _PARSE_ERRORS:
            assert _lexed(_tokenize, row["input"]) == _lexed(oracles.tokenize, row["input"])

    def test_bad_character_wins_over_grammar_errors(self):
        # the whole text is lexed before parsing starts
        with pytest.raises(FormulaSyntaxError) as exc:
            parse("p q ) @")
        assert str(exc.value) == "unexpected character '@' (position 6)"


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

    @pytest.mark.parametrize("text", ["p & p", "T | T", "p", "T"])
    def test_json_nodes_share_no_dict(self, text):
        # callers may mutate the tree, so no node or children list of one
        # result is another's, in that result or in a second one: a change
        # to one leaf leaves its twin, and a later result, as they were
        first, second = formula_to_json(parse(text)), formula_to_json(parse(text))
        nodes = [node for tree in (first, second) for node in (tree, *tree.get("children", ()))]
        lists = [tree["children"] for tree in (first, second) if "children" in tree]
        assert len({id(part) for part in nodes + lists}) == len(nodes + lists)
        expected = json.loads(json.dumps(first))
        leaves = first.get("children", [first])
        leaves[0]["kind"] = "mutated"
        assert leaves[1:] == expected.get("children", [expected])[1:]
        assert second == expected == formula_to_json(parse(text))

    def test_free_variables_sorted_unique(self):
        assert free_variables(parse("q & p | q")) == ("p", "q")
        assert free_variables(Const(True)) == ()


@pytest.mark.parametrize(
    "record, fits, misfit",
    [
        (SubsetAssignment, Subset.of(2, [1]), Subset.of(3, [0])),
        (PartitionAssignment, Partition(2, (0, 1)), Partition(3, (0, 0, 1))),
    ],
)
def test_assignment_values_share_its_universe(record, fits, misfit):
    with pytest.raises(UniverseMismatchError) as exc:
        record(2, {"q": fits, "p": misfit})
    assert str(exc.value) == "value for 'p' lives on n=3, expected 2"


@pytest.mark.parametrize(
    "record, fits, other",
    [
        (SubsetAssignment, Subset.of(2, [1]), Partition(2, (0, 1))),
        (PartitionAssignment, Partition(2, (0, 1)), Subset.of(2, [1])),
    ],
)
def test_assignment_values_are_its_kind(record, fits, other):
    # a value's text, the other logic's value and an int are refused
    # when the record is built, not later inside the evaluator
    for wrong in (str(fits), other, 1):
        message = f"^expected a {type(fits).__name__}, got {type(wrong).__name__}$"
        with pytest.raises(TypeError, match=message):
            record(2, {"q": fits, "p": wrong})


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

    @pytest.mark.parametrize("n", [9, 12])
    def test_wide_masks_agree_with_pair_relation_route(self, n):
        # 36 and 66 pair bits; the reference takes relations.interior of
        # raw pair sets at every node instead of the fixpoint
        rng = random.Random(n)

        def pairwise_interior(n, pairs):
            return interior(PairRelation(n, pairs)).pairs

        for _ in range(30):
            f = random_formula(rng, variables=("p", "q"), max_depth=4)
            p, q = random_partition(rng, n), random_partition(rng, n)
            env = {"p": dit(p).pairs, "q": dit(q).pairs}
            want = oracles.eval_ditwise(f, n, env, pairwise_interior)
            got = eval_partition(f, PartitionAssignment(n, {"p": p, "q": q}))
            assert dit(got).pairs == want, f


def _rows(n: int, masks: list[int]) -> tuple[int, ...]:
    """A value of _partition_algebra(n, len(masks)) whose row t is masks[t]."""
    pairs = n * (n - 1) // 2
    return _pair_columns(["".join([_pair_text(m, pairs) for m in masks])], pairs)[0]


class TestClosedForms:
    """| and ~ take no closure in the sliced algebra. Each matches the
    generic lift, _BOOLEAN on the masks and then the interior, on every
    pool value or pair of them one at a time, and all in one chunk."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_match_the_generic_lift(self, n):
        masks = [_dit_mask(x) for x in oracles.rgs_lex(n)]
        generic, one = oracles._scalar_partition_algebra(n), _partition_algebra(n, 1)
        for a in masks:
            assert one[Not](_rows(n, [a])) == _rows(n, [generic[Not](a)])
            for b in masks:
                assert one[Or](_rows(n, [a]), _rows(n, [b])) == _rows(n, [generic[Or](a, b)])
        lefts, rights = zip(*itertools.product(masks, repeat=2))
        chunk = _partition_algebra(n, len(lefts))
        left, right = _rows(n, lefts), _rows(n, rights)
        assert chunk[Not](left) == _rows(n, [generic[Not](a) for a in lefts])
        assert chunk[Or](left, right) == _rows(n, list(map(generic[Or], lefts, rights)))


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


class TestFormulaOperands:
    def test_text_is_refused_as_a_formula(self):
        # formula text is no Formula: each public function taking one
        # refuses it, where the evaluator used to read its characters
        takers = [
            format_formula,
            formula_to_json,
            free_variables,
            lambda f: eval_subset(f, SubsetAssignment(2, {"p": Subset.full(2)})),
            lambda f: eval_partition(f, PartitionAssignment(2, {"p": Partition(2, (0, 1))})),
            truth_table_tautology,
            lambda f: subset_valid(f, 2),
            lambda f: partition_tautology(f, 3),
        ]
        for take in takers:
            with pytest.raises(TypeError, match="^expected a Formula, got str$"):
                take("p -> p")
