import itertools

import pytest
from hypothesis import given

import oracles
from ditkit import (
    Connective,
    EmptyBlockError,
    MissingElementError,
    NotEquivalenceError,
    OverlappingBlocksError,
    PairRelation,
    Partition,
    ResourceLimitError,
    UniverseMismatchError,
    UnknownConnectiveError,
    bell_number,
    discrete,
    dit,
    enumerate_partitions,
    hasse_cover_edges,
    indiscrete,
    indit,
    interior,
    join,
    join_via_ditsets,
    lift_connective,
    meet,
    meet_via_interior,
    partition_from_blocks,
    partition_from_equivalence,
    refines,
    refines_via_ditsets,
    rst_closure,
    subset_lattice_nodes,
)
from ditkit.partitions import CONNECTIVE_ARITY
from strategies import partitions


class TestConstruction:
    def test_assignment_must_be_restricted_growth(self):
        Partition(3, (0, 0, 1))
        with pytest.raises(ValueError):
            Partition(3, (1, 0, 0))
        with pytest.raises(ValueError):
            Partition(3, (0, 2, 1))

    def test_blocks_in_first_appearance_order(self):
        p = Partition(4, (0, 1, 0, 2))
        assert p.blocks() == ((0, 2), (1,), (3,))
        assert p.block_count() == 3
        assert p.block_of(2) == 0

    def test_str(self):
        assert str(Partition(3, (0, 0, 1))) == "0,1|2"
        assert str(discrete(3)) == "0|1|2"
        assert str(indiscrete(3)) == "0,1,2"

    def test_from_blocks(self):
        p = partition_from_blocks(4, [[3], [0, 2], [1]])
        assert p == Partition(4, (0, 1, 0, 2))

    def test_from_blocks_errors(self):
        with pytest.raises(EmptyBlockError):
            partition_from_blocks(2, [[0, 1], []])
        with pytest.raises(OverlappingBlocksError):
            partition_from_blocks(2, [[0, 1], [1]])
        with pytest.raises(MissingElementError):
            partition_from_blocks(3, [[0, 1]])
        with pytest.raises(Exception):
            partition_from_blocks(2, [[0, 5]])

    def test_discrete_indiscrete_coincide_at_one(self):
        assert discrete(1) == indiscrete(1)


class TestDitsets:
    def test_dit_example(self):
        p = Partition(3, (0, 0, 1))
        assert dit(p).pairs == frozenset({(0, 2), (2, 0), (1, 2), (2, 1)})

    def test_discrete_distinguishes_everything(self):
        d = dit(discrete(3))
        assert d == PairRelation.diagonal(3).complement()

    def test_indiscrete_distinguishes_nothing(self):
        assert dit(indiscrete(4)) == PairRelation.empty(4)

    @given(partitions(max_n=5))
    def test_dit_indit_complementary(self, p):
        assert dit(p) == indit(p).complement()
        assert indit(p).is_equivalence()

    @given(partitions(max_n=5))
    def test_dit_count_matches(self, p):
        assert p.dit_count() == len(dit(p).pairs)

    @given(partitions(max_n=5))
    def test_equivalence_round_trip(self, p):
        assert partition_from_equivalence(indit(p)) == p

    def test_from_equivalence_rejects_non_equivalence(self):
        with pytest.raises(NotEquivalenceError) as exc:
            partition_from_equivalence(PairRelation.of(2, [(0, 1)]))
        assert "reflexive" in str(exc.value)


class TestRefinement:
    def test_examples(self):
        fine = discrete(3)
        coarse = Partition(3, (0, 0, 1))
        assert refines(fine, coarse)
        assert not refines(coarse, fine)
        assert refines(coarse, coarse)

    @given(partitions(max_n=5), partitions(max_n=5))
    def test_agrees_with_ditset_route(self, p, q):
        if p.n != q.n:
            q = Partition(p.n, tuple(0 for _ in range(p.n)))
        assert refines(p, q) == refines_via_ditsets(p, q)

    @given(partitions(max_n=5))
    def test_bounds(self, p):
        assert refines(p, indiscrete(p.n))
        assert refines(discrete(p.n), p)

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatchError):
            refines(discrete(2), discrete(3))


def _pairs_same_n(n):
    return list(itertools.product(enumerate_partitions(n), repeat=2))


class TestJoinMeet:
    def test_crossing_example(self):
        p = Partition(3, (0, 0, 1))
        q = Partition(3, (0, 1, 1))
        assert meet(p, q) == indiscrete(3)
        assert join(p, q) == discrete(3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_routes_agree(self, n):
        for p, q in _pairs_same_n(n):
            assert join(p, q) == join_via_ditsets(p, q)
            assert meet(p, q) == meet_via_interior(p, q)

    @given(partitions(max_n=5), partitions(max_n=5))
    def test_lattice_laws(self, p, q):
        if q.n != p.n:
            q = discrete(p.n)
        assert join(p, q) == join(q, p)
        assert meet(p, q) == meet(q, p)
        assert join(p, p) == p
        assert meet(p, p) == p
        assert join(p, meet(p, q)) == p
        assert meet(p, join(p, q)) == p

    @given(partitions(max_n=4), partitions(max_n=4), partitions(max_n=4))
    def test_associativity(self, p, q, r):
        if q.n != p.n:
            q = discrete(p.n)
        if r.n != p.n:
            r = indiscrete(p.n)
        assert join(join(p, q), r) == join(p, join(q, r))
        assert meet(meet(p, q), r) == meet(p, meet(q, r))

    @given(partitions(max_n=5))
    def test_bounds_absorb(self, p):
        assert join(p, discrete(p.n)) == discrete(p.n)
        assert meet(p, indiscrete(p.n)) == indiscrete(p.n)
        assert join(p, indiscrete(p.n)) == p
        assert meet(p, discrete(p.n)) == p

    @given(partitions(max_n=5), partitions(max_n=5))
    def test_join_is_least_upper_bound_on_dits(self, p, q):
        if q.n != p.n:
            q = discrete(p.n)
        j = join(p, q)
        assert dit(p).issubset(dit(j))
        assert dit(q).issubset(dit(j))
        # union of dits is already the join's dits, no interior needed
        assert dit(j) == dit(p) | dit(q)


class TestLiftedConnectives:
    def test_negation_collapses_variable(self):
        p = Partition(3, (0, 0, 1))
        assert lift_connective(Connective.NOT, (p,)) == indiscrete(3)

    def test_implication_self_is_top(self):
        p = Partition(3, (0, 0, 1))
        assert lift_connective(Connective.IMPLIES, (p, p)) == discrete(3)

    def test_nullary(self):
        assert lift_connective(Connective.TOP, (), n=3) == discrete(3)
        assert lift_connective(Connective.BOTTOM, (), n=3) == indiscrete(3)

    def test_arity_mismatch(self):
        with pytest.raises(UnknownConnectiveError):
            lift_connective(Connective.NOT, (discrete(2), discrete(2)))
        with pytest.raises(UnknownConnectiveError):
            lift_connective("nand", (discrete(2), discrete(2)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_and_is_meet(self, n):
        for p, q in _pairs_same_n(n):
            assert lift_connective(Connective.AND, (p, q)) == meet(p, q)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_or_is_join(self, n):
        for p, q in _pairs_same_n(n):
            assert lift_connective(Connective.OR, (p, q)) == join(p, q)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("conn", list(Connective))
    def test_matches_interior_of_boolean_ditsets(self, conn, n):
        # the definition: the interior of the Boolean operation on the
        # operands' ditsets, by fixpoint up to n = 4 and by rst_closure at 5
        full = oracles.all_pairs(n)
        pool = [(p, dit(p).pairs) for p in enumerate_partitions(n)]
        for combo in itertools.product(pool, repeat=CONNECTIVE_ARITY[conn]):
            raw = _BOOLEAN[conn](full, *(pairs for _, pairs in combo))
            if n <= 4:
                want = oracles.interior_fixpoint(n, raw)
            else:
                want = interior(PairRelation(n, raw)).pairs
            got = lift_connective(conn, [p for p, _ in combo], n=n)
            assert dit(got).pairs == want, (conn, combo)


# The Boolean operation each connective applies to distinction sets,
# given the full pair set U x U.
_BOOLEAN = {
    Connective.NOT: lambda full, x: full - x,
    Connective.AND: lambda full, x, y: x & y,
    Connective.OR: lambda full, x, y: x | y,
    Connective.IMPLIES: lambda full, x, y: (full - x) | y,
    Connective.IFF: lambda full, x, y: (x & y) | ((full - x) & (full - y)),
    Connective.TOP: lambda full: full,
    Connective.BOTTOM: lambda full: frozenset(),
}


class TestEnumeration:
    @pytest.mark.parametrize(
        "n,want", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203), (7, 877), (8, 4140)]
    )
    def test_bell_numbers(self, n, want):
        assert bell_number(n) == want

    def test_lex_order_at_three(self):
        got = [p.assignment for p in enumerate_partitions(3)]
        assert got == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_counts_match_blockwise_oracle(self, n):
        ours = {p.blocks() for p in enumerate_partitions(n)}
        theirs = {
            tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
            for blocks in oracles.enumerate_blockwise(n)
        }
        assert len(ours) == bell_number(n)
        assert ours == theirs

    def test_resource_limit(self):
        with pytest.raises(ResourceLimitError) as exc:
            list(enumerate_partitions(11))
        assert "11" in str(exc.value)

    def test_subset_nodes(self):
        nodes = subset_lattice_nodes(3)
        assert len(nodes) == 8
        assert list(nodes[0]) == []
        assert list(nodes[7]) == [0, 1, 2]


class TestHasse:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_partition_covers_match_bruteforce(self, n):
        nodes = list(enumerate_partitions(n))
        index = {p: i for i, p in enumerate(nodes)}
        got = [(index[x], index[y]) for x, y in hasse_cover_edges("partition", n)]
        # below in the order means coarser, i.e. y refines x
        want = oracles.cover_edges_bruteforce(
            nodes, lambda x, y: refines(y, x)
        )
        assert got == want

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_subset_covers_match_bruteforce(self, n):
        nodes = subset_lattice_nodes(n)
        index = {s: i for i, s in enumerate(nodes)}
        got = [(index[x], index[y]) for x, y in hasse_cover_edges("subset", n)]
        want = oracles.cover_edges_bruteforce(
            nodes, lambda x, y: set(x) <= set(y)
        )
        assert got == want

    def test_counts_at_three(self):
        assert len(hasse_cover_edges("partition", 3)) == 6
        assert len(hasse_cover_edges("subset", 3)) == 12

    def test_subset_edge_count_formula(self):
        # adding one element to a subset: n * 2^(n-1) edges
        assert len(hasse_cover_edges("subset", 4)) == 4 * 2 ** 3

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            hasse_cover_edges("poset", 3)


class TestClosureInterplay:
    @given(partitions(max_n=5), partitions(max_n=5))
    def test_union_of_indits_closes_to_meet_indit(self, p, q):
        if q.n != p.n:
            q = discrete(p.n)
        closed = rst_closure(indit(p) | indit(q))
        assert closed == indit(meet(p, q))
