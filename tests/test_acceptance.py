"""Acceptance gate.

Each test covers one acceptance criterion and prints a single
"criterion N (name): PASS/FAIL" line; run with -s to see them.
"""
import itertools
import json
import random

from ditkit import (
    Fitness,
    PairRelation,
    Partition,
    compare_mechanisms,
    discrete,
    dit,
    enumerate_partitions,
    hasse_cover_edges,
    interior,
    join,
    join_via_ditsets,
    meet,
    meet_via_interior,
    parse,
    partition_tautology,
    random_formula,
    refines,
    refines_via_ditsets,
    rst_closure,
    run_generative,
    run_selectionist,
    selection_survivors,
    subset_lattice_nodes,
    subset_valid,
    switch_partition,
    truth_table_tautology,
    twenty_questions,
)
from ditkit.cli import main


class _verdict:
    def __init__(self, num: int, name: str):
        self.line = f"criterion {num} ({name})"

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        print(f"{self.line}: {'FAIL' if exc_type else 'PASS'}")
        return False


def _corpus(seed: int, count: int, variables=("p", "q", "r"), max_depth: int = 8):
    rng = random.Random(seed)
    return [random_formula(rng, variables=variables, max_depth=max_depth) for _ in range(count)]


def test_criterion_1_hasse_diagrams(capsys):
    with _verdict(1, "hasse diagrams"):
        parts = list(enumerate_partitions(3))
        assert [str(p) for p in parts] == ["0,1,2", "0,1|2", "0,2|1", "0|1,2", "0|1|2"]
        pindex = {p: i for i, p in enumerate(parts)}
        assert [(pindex[x], pindex[y]) for x, y in hasse_cover_edges("partition", 3)] == [
            (0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4),
        ]
        subsets = subset_lattice_nodes(3)
        assert len(subsets) == 8
        sindex = {s: i for i, s in enumerate(subsets)}
        assert [(sindex[x], sindex[y]) for x, y in hasse_cover_edges("subset", 3)] == [
            (0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (2, 6),
            (3, 7), (4, 5), (4, 6), (5, 7), (6, 7),
        ]

        code = main(["lattice", "--kind", "partition", "--n", "3", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out) == {
            "kind": "partition",
            "n": 3,
            "nodes": ["0,1,2", "0,1|2", "0,2|1", "0|1,2", "0|1|2"],
            "edges": [[0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 4]],
        }
        code = main(["lattice", "--kind", "subset", "--n", "3", "--json"])
        got = json.loads(capsys.readouterr().out)
        assert code == 0
        assert got["nodes"] == ["{}", "{0}", "{1}", "{0,1}", "{2}", "{0,2}", "{1,2}", "{0,1,2}"]
        assert got["edges"] == [
            [0, 1], [0, 2], [0, 4], [1, 3], [1, 5], [2, 3], [2, 6],
            [3, 7], [4, 5], [4, 6], [5, 7], [6, 7],
        ]


def test_criterion_2_refinement_via_distinctions():
    with _verdict(2, "refinement order equals distinction containment"):
        parts = list(enumerate_partitions(5))
        assert len(parts) == 52
        for p, q in itertools.product(parts, repeat=2):
            assert refines(p, q) == refines_via_ditsets(p, q)


def test_criterion_3_meet_join_routes_agree():
    with _verdict(3, "meet and join cross-checked by both routes"):
        for n in range(1, 6):
            parts = list(enumerate_partitions(n))
            for p, q in itertools.product(parts, repeat=2):
                j = join(p, q)
                assert j == join_via_ditsets(p, q)
                assert meet(p, q) == meet_via_interior(p, q)
                # the union of distinction sets is already stable
                assert interior(dit(j)) == dit(j)
                assert dit(j) == dit(p) | dit(q)


def test_criterion_4_subset_validity_is_truth_validity():
    with _verdict(4, "subset validity coincides with truth-table validity"):
        corpus = _corpus(20240814, 500)
        tautologies = 0
        for f in corpus:
            table = truth_table_tautology(f).valid
            assert subset_valid(f, 3).valid == table
            tautologies += table
        # the corpus must actually exercise both outcomes
        assert 0 < tautologies < len(corpus)


def test_criterion_5_partition_validity_is_stronger():
    with _verdict(5, "partition validity strictly stronger"):
        assert partition_tautology(parse("p -> p"), 4).valid

        v = partition_tautology(parse("p | ~p"), 3)
        assert truth_table_tautology(parse("p | ~p")).valid
        assert not v.valid
        assert v.counterexample.n == 3
        assert v.counterexample.assignment["p"] == Partition(3, (0, 0, 1))
        assert v.counterexample.value == Partition(3, (0, 0, 1))
        assert json.loads(v.to_json()) == {
            "valid": False,
            "n_checked": [2, 3],
            "counterexample": {"n": 3, "assignment": {"p": "0,1|2"}, "value": "0,1|2"},
        }

        corpus = _corpus(20240815, 200, max_depth=6)
        partition_valid = 0
        for f in corpus:
            if partition_tautology(f, 4).valid:
                partition_valid += 1
                assert truth_table_tautology(f).valid
        assert partition_valid > 0


def test_criterion_6_switches_generate_every_distinction():
    with _verdict(6, "independent binary switches resolve the whole space"):
        for k in range(1, 7):
            total = switch_partition(k, 1)
            for i in range(2, k + 1):
                total = join(total, switch_partition(k, i))
            assert total == discrete(2 ** k)
        assert twenty_questions(3, [0, 1, 0]) == frozenset({0b010})


def test_criterion_7_mechanism_traces():
    with _verdict(7, "selection and generation reach the same variant"):
        sel = run_selectionist(3, Fitness.peaked(3, 0b010, 1.0), 0.0625, 100)
        assert selection_survivors(sel) == frozenset({0b010})

        gen = run_generative(3, [(1, 0), (2, 1), (3, 0)])
        assert [len(s.state["block"]) for s in gen.steps] == [8, 4, 2, 1]
        assert gen.steps[1].state["block"] == ["000", "010", "100", "110"]
        assert gen.final["block"] == ["010"]

        for target in range(8):
            assert compare_mechanisms(3, target, 1.0).agreement


def test_criterion_8_closure_and_interior_laws():
    with _verdict(8, "closure and interior behave lawfully"):
        rng = random.Random(20240816)
        for _ in range(1000):
            n = rng.randint(1, 6)
            pool = [(u, v) for u in range(n) for v in range(n)]
            r = PairRelation.of(n, rng.sample(pool, rng.randint(0, len(pool))))
            extra = PairRelation.of(n, rng.sample(pool, rng.randint(0, len(pool))))
            s = r | extra

            cr = rst_closure(r)
            assert r.issubset(cr)
            assert rst_closure(cr) == cr
            assert cr.issubset(rst_closure(s))
            assert cr.is_equivalence()

            ir = interior(r)
            assert ir.issubset(r)
            assert interior(ir) == ir
            assert ir.issubset(interior(s))
            assert ir.is_ditset()

        # closed sets are not stable under union, so this is not a topology
        e1 = PairRelation.of(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)])
        e2 = PairRelation.of(3, [(0, 0), (1, 1), (2, 2), (1, 2), (2, 1)])
        assert e1.is_equivalence() and e2.is_equivalence()
        assert not (e1 | e2).is_equivalence()


def test_criterion_9_deterministic_output():
    with _verdict(9, "byte-identical output across runs"):
        formulas = [parse("p | ~p"), parse("p -> p"), parse("(p -> q) | (q -> p)")]
        formulas += _corpus(20240817, 25, variables=("p", "q"), max_depth=5)

        def verdict_bytes() -> str:
            chunks = []
            for f in formulas:
                chunks.append(partition_tautology(f, 3).to_json())
                chunks.append(subset_valid(f, 2).to_json())
            return "\n".join(chunks)

        assert verdict_bytes() == verdict_bytes()

        def trace_bytes() -> str:
            sel = run_selectionist(3, Fitness.peaked(3, 0b010, 1.0), 0.0625, 100)
            gen = run_generative(3, [(1, 0), (2, 1), (3, 0)])
            cmp_ = compare_mechanisms(3, 0b010, 1.0)
            return "\n".join([sel.to_json(), gen.to_json(), cmp_.to_json()])

        assert trace_bytes() == trace_bytes()
