import itertools
import math
import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import given

import oracles
from ditkit import (
    Connective,
    ElementOutOfRangeError,
    EmptyBlockError,
    MissingElementError,
    NotEquivalenceError,
    OverlappingBlocksError,
    PairRelation,
    Partition,
    ResourceLimitError,
    Subset,
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
from ditkit import cli
from ditkit import partitions as partitions_module
from ditkit.limits import DEFAULT_LIMITS, Limits
from ditkit.partitions import CONNECTIVE_ARITY, _blocks_of, _dit_mask, _lattice, _rgs
from strategies import partitions, random_partition


class TestConstruction:
    def test_assignment_must_be_restricted_growth(self):
        Partition(3, (0, 0, 1))
        with pytest.raises(ValueError):
            Partition(3, (1, 0, 0))
        with pytest.raises(ValueError):
            Partition(3, (0, 2, 1))

    @pytest.mark.parametrize(
        "n, assignment, message",
        [
            (2, (0, True), "not a restricted-growth sequence at position 1"),
            (2, (False, 1), "restricted-growth sequence must start at 0"),
            (1, (False,), "restricted-growth sequence must start at 0"),
            (1, (0.0,), "restricted-growth sequence must start at 0"),
            (3, (0, 1, 1.0), "not a restricted-growth sequence at position 2"),
        ],
    )
    def test_labels_must_be_ints_not_bools(self, n, assignment, message):
        # bool and float labels compare equal to 0 and 1 but are refused,
        # like bool elements in partition_from_blocks
        with pytest.raises(ValueError, match=message):
            Partition(n, assignment)

    @pytest.mark.parametrize("assignment", [(0, 1), (0, 0, 1, 2)])
    def test_assignment_length_must_be_n(self, assignment):
        message = f"^assignment length {len(assignment)} != universe size 3$"
        with pytest.raises(ValueError, match=message):
            Partition(3, assignment)

    @pytest.mark.parametrize("u", [-1, 3, True, 1.5, "1"])
    def test_block_of_outside_the_universe(self, u):
        # True is refused too, although bool is an int subclass
        message = f"^element {re.escape(repr(u))} outside universe of size 3$"
        with pytest.raises(ElementOutOfRangeError, match=message):
            Partition(3, (0, 0, 1)).block_of(u)

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

    def test_universe_mismatch_is_joins_error(self):
        with pytest.raises(UniverseMismatchError) as by_join:
            join(discrete(2), discrete(3))
        with pytest.raises(UniverseMismatchError) as by_refines:
            refines(discrete(2), discrete(3))
        assert str(by_refines.value) == str(by_join.value)

    @pytest.mark.parametrize("combine", [
        pytest.param(lambda p, s: join(p, s), id="join"),
        pytest.param(lambda p, s: meet(s, p), id="meet"),
        pytest.param(lambda p, s: refines(p, s), id="refines"),
        pytest.param(lambda p, s: lift_connective(Connective.NOT, (s,)), id="lift_connective"),
        pytest.param(lambda p, s: join_via_ditsets(p, s), id="join_via_ditsets"),
        pytest.param(lambda p, s: meet_via_interior(s, p), id="meet_via_interior"),
        pytest.param(lambda p, s: refines_via_ditsets(p, s), id="refines_via_ditsets"),
    ])
    def test_operands_must_be_partitions(self, combine):
        # a subset of the same universe has an n but no blocks
        with pytest.raises(TypeError, match="^expected a Partition, got Subset$"):
            combine(Partition(2, (0, 0)), Subset.full(2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_pair_matches_block_containment(self, n):
        # the order read off the join against its definition on blocks
        every = oracles.enumerate_blockwise(n)
        for fine, coarse in itertools.product(every, repeat=2):
            inside = all(any(b <= c for c in coarse) for b in fine)
            p, q = partition_from_blocks(n, fine), partition_from_blocks(n, coarse)
            assert refines(p, q) == inside


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

    def test_arity_is_pinned(self):
        # tests that draw operand tuples from CONNECTIVE_ARITY would adapt
        # to a wrong derivation, so the mapping is stated here in full
        assert CONNECTIVE_ARITY == {
            Connective.NOT: 1,
            Connective.AND: 2,
            Connective.OR: 2,
            Connective.IMPLIES: 2,
            Connective.IFF: 2,
            Connective.TOP: 0,
            Connective.BOTTOM: 0,
        }

    def test_explicit_n_must_match_the_operands(self):
        message = "^explicit n=4 disagrees with operand universe 3$"
        with pytest.raises(UniverseMismatchError, match=message):
            lift_connective(Connective.AND, (discrete(3), indiscrete(3)), n=4)
        with pytest.raises(UniverseMismatchError, match=message):
            lift_connective(Connective.NOT, (discrete(3),), n=4)

    @pytest.mark.parametrize("conn", [Connective.TOP, Connective.BOTTOM])
    def test_nullary_needs_n(self, conn):
        with pytest.raises(ValueError, match="^universe size n is required for 0-ary connectives$"):
            lift_connective(conn, ())

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

    @pytest.mark.parametrize("n", [9, 12])
    @pytest.mark.parametrize("conn", list(Connective))
    def test_wide_masks_match_pair_relation_route(self, conn, n):
        # 36 and 66 pair bits, past one machine word at n = 12; seeded
        # draws, since enumerate_partitions refuses n > 10
        rng = random.Random(f"{conn.value}/{n}")
        full = oracles.all_pairs(n)
        for _ in range(25):
            ops = [random_partition(rng, n) for _ in range(CONNECTIVE_ARITY[conn])]
            raw = _BOOLEAN[conn](full, *(dit(p).pairs for p in ops))
            got = lift_connective(conn, ops, n=n)
            assert dit(got) == interior(PairRelation(n, raw)), (conn, ops)

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_dit_mask_layout_and_round_trip(self, n):
        # pair u < v is bit v*(v-1)//2 + u, set when u and v are split
        rng = random.Random(n)
        for _ in range(20):
            a = random_partition(rng, n).assignment
            mask = _dit_mask(a)
            bits = [(u, v) for v in range(n) for u in range(v) if mask >> v * (v - 1) // 2 + u & 1]
            assert bits == [(u, v) for v in range(n) for u in range(v) if a[u] != a[v]]
            assert mask < 1 << n * (n - 1) // 2
            assert tuple(_blocks_of(n, mask)) == a


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

    def test_bell_number_of_a_negative_n(self):
        with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
            bell_number(-1)

    @pytest.mark.parametrize("n", [2.5, 3.0, math.nan, True, False, "3", None])
    def test_bell_number_of_a_non_int(self, monkeypatch, n):
        # bools included, and refused before a Bell number is computed
        monkeypatch.setattr(partitions_module, "_bell_numbers", None)
        with pytest.raises(ValueError, match=f"^{re.escape(f'n must be an int, got {n!r}')}$"):
            bell_number(n)

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

    @pytest.mark.parametrize("n", range(1, 10))
    def test_generator_matches_lex_oracle(self, n):
        got = list(_rgs(n))
        assert got == oracles.rgs_lex(n)
        if n <= 6:  # rgs_lex grows by _rgs's own rule; this is every labelling, relabelled
            relabelled = {
                tuple(map(list(dict.fromkeys(labels)).index, labels))
                for labels in itertools.product(range(n), repeat=n)
            }
            assert got == sorted(relabelled)

    def test_enumeration_is_lazy(self):
        # Bell(12) is 4,213,597: an eager enumeration would take far more
        tracemalloc.start()
        try:
            head = list(itertools.islice(enumerate_partitions(12, Limits(max_lattice_n=12)), 5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tails = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]
        assert [p.assignment[-3:] for p in head] == tails
        assert peak < 1 << 20

    def test_resource_limit(self):
        with pytest.raises(ResourceLimitError) as exc:
            list(enumerate_partitions(11))
        assert "11" in str(exc.value)

    def test_subset_cap_message(self):
        message = "^enumerating 2\\*\\*11 subsets exceeds the cap n <= 10$"
        with pytest.raises(ResourceLimitError, match=message):
            subset_lattice_nodes(11)
        with pytest.raises(ResourceLimitError, match=message):
            hasse_cover_edges("subset", 11)

    def test_subset_nodes(self):
        nodes = subset_lattice_nodes(3)
        assert len(nodes) == 8
        assert list(nodes[0]) == []
        assert list(nodes[7]) == [0, 1, 2]


class TestHasse:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
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

    @pytest.mark.parametrize("kind, n, error", [
        ("poset", 3, ValueError), ("partition", 11, ResourceLimitError),
    ])
    def test_refused_before_any_node_is_built(self, monkeypatch, kind, n, error):
        def refuse(*args):
            raise AssertionError("a node was built before the check")

        monkeypatch.setattr(partitions_module, "enumerate_partitions", refuse)
        monkeypatch.setattr(partitions_module, "subset_lattice_nodes", refuse)
        with pytest.raises(error):
            hasse_cover_edges(kind, n)


class TestLatticeGrowth:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_merge_and_dict_reference(self, n):
        count, labels, covers = _lattice("partition", n, DEFAULT_LIMITS)
        nodes, edges = oracles.lattice_by_merging(n)
        partitions = list(enumerate_partitions(n))
        assert [p.assignment for p in partitions] == nodes
        assert count == len(partitions)
        assert list(labels) == [str(p) for p in partitions]
        rows = covers(list(range(count)))
        assert [(x, y) for x, ys in enumerate(rows) for y in ys] == edges

    @pytest.mark.parametrize("kind", ["partition", "subset"])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_covers_read_any_list_by_position(self, kind, n):
        count, _, covers = _lattice(kind, n, DEFAULT_LIMITS)
        rows = list(covers(list(range(count))))
        assert all(ys == sorted(set(ys)) for ys in rows)
        names = [str(i) for i in range(count)]
        assert list(covers(names)) == [[str(y) for y in ys] for ys in rows]
        nodes = list(enumerate_partitions(n) if kind == "partition" else subset_lattice_nodes(n))
        pairs = [(x, y) for x, ys in zip(nodes, covers(nodes)) for y in ys]
        assert pairs == hasse_cover_edges(kind, n)
        assert pairs == [(nodes[x], nodes[y]) for x, ys in enumerate(rows) for y in ys]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_subset_labels_are_str(self, n):
        count, labels, _ = _lattice("subset", n, DEFAULT_LIMITS)
        assert count == 2**n
        assert list(labels) == [str(s) for s in subset_lattice_nodes(n)]

    def test_growth_holds_no_merge_data_per_edge(self):
        # growing and draining n = 9 peaks at 0.57-0.59 MiB on Python
        # 3.10-3.13; growth that also listed each level's labels read
        # 0.77-0.81, two lists per node, of positions and of pairs,
        # 1.99-2.02, and a (position, bi, bj) tuple per edge in the last
        # level 5.15-5.36. The list the covers are read from is the
        # caller's, as the CLI's names are
        at = list(range(bell_number(9)))
        tracemalloc.start()
        try:
            _, _, covers = _lattice("partition", 9, DEFAULT_LIMITS)
            for _ in covers(at):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * 2**20

    @pytest.mark.parametrize("style", ["--json", "--dot"])
    def test_cli_at_nine_holds_each_level_no_longer_than_needed(self, monkeypatch, style):
        # after an untraced call, which loads modules and first-use caches,
        # the peak holds the names, the level below, one label a level of
        # the chain the labels are cut through, and one batch, but no list
        # of labels: 1.57-1.75 MiB on Python 3.10-3.13, where a list of
        # the level below's labels read 1.82-2.03, two lists per node
        # 2.75-2.95 and a list of all the labels 4.32-4.33. By the last
        # write the names and the level below are gone: 0.01-0.03 MiB,
        # where a list of labels kept by the CLI read 2.9 MiB as JSON and
        # 1.6 as DOT, and a covers callable kept alive the rest too (5.4
        # and 3.7 MiB)
        class NullSink:
            def write(self, text):
                self.traced = tracemalloc.get_traced_memory()[0]
                return len(text)

            def flush(self):
                pass

        sink = NullSink()
        monkeypatch.setattr(sys, "stdout", sink)
        argv = ["lattice", "--kind", "partition", "--n", "9", style]
        assert cli.main(argv) == 0
        tracemalloc.start()
        try:
            code = cli.main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2.0 * 2**20
        assert sink.traced < 0.1 * 2**20

    def test_first_labels_cut_only_their_parents(self, monkeypatch):
        # reading the first _NODES labels at n = 9 reads each level below
        # only as far as the parents of the labels it gave, and cuts no
        # label past them; a level gives what the level above reads
        grown, read, given = partitions_module._grown_labels, {}, {}

        def counted(labels, u):
            parents, children = read.setdefault(u, []), given.setdefault(u, [])
            for label in grown((parents.append(p) or p for p in labels), u):
                children.append(label)
                yield label

        monkeypatch.setattr(partitions_module, "_grown_labels", counted)
        _, labels, _ = _lattice("partition", 9, DEFAULT_LIMITS)
        first = list(itertools.islice(labels, cli._NODES))
        assert first == [str(p) for p in itertools.islice(enumerate_partitions(9), cli._NODES)]
        assert sorted(read) == list(range(1, 9)) and given[8] == first
        assert read[1] == ["0"] and all(read[u] == given[u - 1] for u in range(2, 9))
        for u in range(1, 9):
            # a parent of k blocks, k - 1 bars, has k + 1 children
            children = [label.count("|") + 2 for label in read[u]]
            assert sum(children[:-1]) < len(given[u]) <= sum(children)

    @pytest.mark.parametrize("kind", ["partition", "subset"])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_cover_edges_build_no_label(self, monkeypatch, kind, n):
        count, _, covers = _lattice(kind, n, DEFAULT_LIMITS)
        nodes = list(enumerate_partitions(n) if kind == "partition" else subset_lattice_nodes(n))
        want = [(nodes[x], nodes[y]) for x, ys in enumerate(covers(list(range(count)))) for y in ys]

        def refuse(*args):
            raise AssertionError("a label was built")

        def refused(*args):  # a generator, as _grown_labels is: it raises when read
            yield refuse()

        monkeypatch.setattr(partitions_module, "_grown_labels", refused)
        monkeypatch.setattr(partitions_module, "_subset_text", refuse)
        assert hasse_cover_edges(kind, n) == want

    def test_cover_edges_refused_before_growth(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("lattice grown before the cap check")

        monkeypatch.setattr(partitions_module, "_partition_lattice", refuse)
        with pytest.raises(ResourceLimitError, match=r"^enumerating Bell\(11\) = 678570 partitions"):
            hasse_cover_edges("partition", 11)

    def test_label_chain_holds_no_level(self, monkeypatch):
        # with growth stubbed out, the labels alone: draining n = 10 traces
        # 5-6 KiB on Python 3.10-3.13, where a list of the level below
        # would hold its 21,147 labels
        monkeypatch.setattr(partitions_module, "_partition_lattice", lambda n: None)
        for n in range(1, 10):
            _, labels, _ = _lattice("partition", n, DEFAULT_LIMITS)
            assert list(labels) == [str(p) for p in enumerate_partitions(n)]
        tracemalloc.start()
        try:
            _, labels, _ = _lattice("partition", 10, DEFAULT_LIMITS)
            for _ in labels:
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * 2**20

    def test_cap_fires_before_growth(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("lattice grown before the cap check")

        monkeypatch.setattr(partitions_module, "_partition_lattice", refuse)
        with pytest.raises(ResourceLimitError, match=r"Bell\(11\) = 678570 partitions"):
            _lattice("partition", 11, DEFAULT_LIMITS)


class TestClosureInterplay:
    @given(partitions(max_n=5), partitions(max_n=5))
    def test_union_of_indits_closes_to_meet_indit(self, p, q):
        if q.n != p.n:
            q = discrete(p.n)
        closed = rst_closure(indit(p) | indit(q))
        assert closed == indit(meet(p, q))
