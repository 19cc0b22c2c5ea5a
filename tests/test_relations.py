import itertools
import operator
import re

import pytest
from hypothesis import given

import oracles
from ditkit import (
    ElementOutOfRangeError,
    PairRelation,
    Subset,
    UniverseMismatchError,
    interior,
    rst_closure,
)
from strategies import pair_relations


class TestSubset:
    def test_construction_and_membership(self):
        s = Subset.of(4, [2, 0])
        assert 0 in s and 2 in s and 1 not in s
        assert len(s) == 2
        assert list(s) == [0, 2]

    def test_empty_and_full(self):
        assert len(Subset.empty(3)) == 0
        assert Subset.full(3).is_full()
        assert not Subset.of(3, [0]).is_full()

    def test_out_of_range_rejected(self):
        with pytest.raises(ElementOutOfRangeError):
            Subset.of(3, [3])
        with pytest.raises(ElementOutOfRangeError):
            Subset.of(3, [-1])

    def test_boolean_algebra(self):
        a = Subset.of(4, [0, 1])
        b = Subset.of(4, [1, 2])
        assert list(a | b) == [0, 1, 2]
        assert list(a & b) == [1]
        assert list(a.complement()) == [2, 3]


class TestPairRelation:
    def test_construction(self):
        r = PairRelation.of(3, [(0, 1), (1, 0)])
        assert (0, 1) in r.pairs
        assert r.sorted_pairs() == [(0, 1), (1, 0)]

    def test_membership_and_size(self):
        r = PairRelation.of(3, [(0, 1), (1, 0), (0, 1)])
        assert (0, 1) in r and (1, 0) in r
        assert (1, 1) not in r and (0, 3) not in r
        assert len(r) == 2
        assert len(PairRelation.empty(3)) == 0 and len(PairRelation.full(3)) == 9

    def test_out_of_range_rejected(self):
        with pytest.raises(ElementOutOfRangeError, match=r"^pair \(0, 2\) outside universe of size 2$"):
            PairRelation.of(2, [(0, 2)])

    @pytest.mark.parametrize("pair", [(True, 0), (0, False), (1.0, 0), (0, "1"), (None, 0)])
    def test_coordinates_must_be_ints_not_bools(self, pair):
        # as Subset and Partition refuse them; True would equal 1 otherwise
        message = f"^{re.escape(f'pair ({pair[0]!r}, {pair[1]!r}) outside universe of size 2')}$"
        with pytest.raises(ElementOutOfRangeError, match=message):
            PairRelation(2, frozenset({pair}))

    def test_diagonal_and_full(self):
        assert PairRelation.diagonal(3).pairs == frozenset({(0, 0), (1, 1), (2, 2)})
        assert len(PairRelation.full(3).pairs) == 9

    def test_complement_involution(self):
        r = PairRelation.of(3, [(0, 1)])
        assert r.complement().complement() == r

    def test_equivalence_violation_reflexive(self):
        r = PairRelation.of(2, [(0, 0)])
        axiom, witness = r.equivalence_violation()
        assert axiom == "reflexive"
        assert witness == ((1, 1),)

    def test_equivalence_violation_symmetric(self):
        r = PairRelation.of(2, [(0, 0), (1, 1), (0, 1)])
        axiom, witness = r.equivalence_violation()
        assert axiom == "symmetric"
        assert witness == ((0, 1),)

    def test_equivalence_violation_transitive(self):
        r = PairRelation.of(
            3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)]
        )
        axiom, witness = r.equivalence_violation()
        assert axiom == "transitive"
        assert witness == ((0, 1), (1, 2))

    def test_diagonal_is_equivalence(self):
        assert PairRelation.diagonal(4).is_equivalence()
        assert PairRelation.full(4).is_equivalence()

    def test_is_ditset(self):
        # pairs across {0,1} vs {2}: complement is an equivalence
        r = PairRelation.of(3, [(0, 2), (2, 0), (1, 2), (2, 1)])
        assert r.is_ditset()
        assert not PairRelation.of(3, [(0, 1)]).is_ditset()


# each class with the largest n it is checked at and its whole set over n
_SET_CLASSES = [
    pytest.param(Subset, 3, lambda n: frozenset(range(n)), id="Subset"),
    pytest.param(
        PairRelation, 2, lambda n: frozenset(itertools.product(range(n), repeat=2)),
        id="PairRelation",
    ),
]


class TestSetAlgebra:
    """Subset (over U) and PairRelation (over U x U) share one set algebra."""

    @pytest.mark.parametrize("cls, n_max, whole", _SET_CLASSES)
    def test_matches_frozenset_algebra(self, cls, n_max, whole):
        for n in range(1, n_max + 1):
            everything = whole(n)
            elements = sorted(everything)
            sets = [
                frozenset(chosen)
                for size in range(len(elements) + 1)
                for chosen in itertools.combinations(elements, size)
            ]
            assert len(sets) == 2 ** len(everything)
            assert cls.empty(n) == cls(n, frozenset()) and cls.full(n) == cls(n, everything)
            for a in sets:
                x = cls(n, a)
                assert x.complement() == cls(n, everything - a)
                assert len(x) == len(a)
                assert [e in x for e in elements] == [e in a for e in elements]
                for b in sets:
                    y = cls(n, b)
                    assert x | y == x.union(y) == cls(n, a | b)
                    assert x & y == x.intersection(y) == cls(n, a & b)

    @pytest.mark.parametrize("cls, n_max, whole", _SET_CLASSES)
    def test_universe_mismatch(self, cls, n_max, whole):
        small, large = cls.full(2), cls.empty(3)
        for combine in (operator.or_, operator.and_, cls.union, cls.intersection):
            for a, b in ((small, large), (large, small)):
                with pytest.raises(UniverseMismatchError, match="^universe sizes differ: "):
                    combine(a, b)

    @pytest.mark.parametrize("a, b", [
        pytest.param(Subset.of(2, [0]), PairRelation.of(2), id="Subset-PairRelation"),
        pytest.param(PairRelation.of(2), Subset.of(2, [0]), id="PairRelation-Subset"),
    ])
    def test_subsets_of_u_and_of_u_squared_do_not_combine(self, a, b):
        message = f"^cannot combine {type(a).__name__} with {type(b).__name__}$"
        for combine in (operator.or_, operator.and_, type(a).union, type(a).intersection):
            with pytest.raises(TypeError, match=message):
                combine(a, b)
        if isinstance(a, PairRelation):
            with pytest.raises(TypeError, match=message):
                a.issubset(b)


class TestClosure:
    def test_empty_closes_to_diagonal(self):
        assert rst_closure(PairRelation.empty(3)) == PairRelation.diagonal(3)

    def test_single_pair(self):
        got = rst_closure(PairRelation.of(3, [(0, 1)]))
        want = PairRelation.of(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)])
        assert got == want

    def test_chain_collapses(self):
        got = rst_closure(PairRelation.of(3, [(0, 1), (1, 2)]))
        assert got == PairRelation.full(3)

    @given(pair_relations(max_n=6))
    def test_matches_fixpoint_oracle(self, r):
        assert rst_closure(r).pairs == oracles.closure_fixpoint(r.n, r.pairs)

    @given(pair_relations(max_n=6))
    def test_extensive(self, r):
        assert r.issubset(rst_closure(r))

    @given(pair_relations(max_n=6))
    def test_idempotent(self, r):
        once = rst_closure(r)
        assert rst_closure(once) == once

    @given(pair_relations(max_n=5))
    def test_monotone(self, r):
        sub = PairRelation.of(r.n, list(r.sorted_pairs())[: len(r.pairs) // 2])
        assert rst_closure(sub).issubset(rst_closure(r))

    def test_union_of_closed_sets_need_not_be_closed(self):
        # the equivalences for {{0,1},{2}} and {{0},{1,2}} union to a
        # relation containing (0,1) and (1,2) but not (0,2)
        e1 = PairRelation.of(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)])
        e2 = PairRelation.of(3, [(0, 0), (1, 1), (2, 2), (1, 2), (2, 1)])
        assert e1.is_equivalence() and e2.is_equivalence()
        union = e1 | e2
        assert not union.is_equivalence()
        assert rst_closure(union) != union


class TestInterior:
    def test_strips_unsupported_pairs(self):
        # {(0,2),(2,0)} alone cannot come from any partition: forcing 0|2
        # apart while gluing 0,1 and 1,2 together is contradictory
        assert interior(PairRelation.of(3, [(0, 2), (2, 0)])) == PairRelation.empty(3)

    def test_keeps_partition_dits(self):
        r = PairRelation.of(3, [(0, 2), (2, 0), (1, 2), (2, 1)])
        assert interior(r) == r

    def test_accepts_asymmetric_input(self):
        # arbitrary subsets of the square are fine as input
        got = interior(PairRelation.of(3, [(0, 1)]))
        assert got == PairRelation.empty(3)

    @given(pair_relations(max_n=6))
    def test_matches_fixpoint_oracle(self, r):
        assert interior(r).pairs == oracles.interior_fixpoint(r.n, r.pairs)

    @given(pair_relations(max_n=6))
    def test_intensive(self, r):
        assert interior(r).issubset(r)

    @given(pair_relations(max_n=6))
    def test_idempotent(self, r):
        once = interior(r)
        assert interior(once) == once

    @given(pair_relations(max_n=6))
    def test_result_is_ditset(self, r):
        assert interior(r).is_ditset()
