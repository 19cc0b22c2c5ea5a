"""Partitions of a finite universe and the lattice they form.

A partition is stored as a restricted-growth sequence: position u holds
the block index of element u, with blocks numbered in order of first
appearance. The encoding is canonical, so structural equality is
partition equality, and sorting sequences lexicographically gives a
stable enumeration order, which one iterative generator walks.

The refinement order used throughout puts the all-singletons partition
(discrete) at the top and the one-block partition (indiscrete) at the
bottom: p is below q exactly when q distinguishes every pair p does.
Distinctions play the role for partitions that elements play for
subsets, which is what makes the truth-functional connectives liftable:
apply the subset operation to the distinction sets inside U x U, then
take the interior. Both steps run on masks with one bit per pair u < v:
_BOOLEAN on the operands' masks, then as blocks the components of the
pairs the result leaves undistinguished.

The lattice is built in rank space, where a partition's rank is its
position in lexicographic restricted-growth order. It grows one element
at a time: the children of a partition of {0, ..., u-1} (u joins each
block in turn, then a block of its own) are contiguous, so child c of
the node at rank x has rank off[x] + c, off summing block count + 1 over
the ranks before x. Every cover edge of the longer sequences is then
arithmetic on the ranks of an edge one level down, plus the edges that
merge u's own block into an earlier one; no partition is built, merged
or looked up per edge, and the edges come out in order. The last level
does no arithmetic per edge: its covers are slices of the caller's list.
The labels are grown apart, each level cut from the one below as it is read.
"""
from __future__ import annotations

import itertools
from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence
from enum import Enum

from .errors import (
    EmptyBlockError,
    MissingElementError,
    NotEquivalenceError,
    OverlappingBlocksError,
    ResourceLimitError,
    UniverseMismatchError,
    UnknownConnectiveError,
)
from .limits import DEFAULT_LIMITS, Limits
from .relations import (
    PairRelation,
    Subset,
    _check_element,
    _check_n,
    _check_same_universe,
    _components,
    _is_int,
    _Record,
    _subset_text,
    interior,
)


class Partition(_Record):
    """A set partition of {0, ..., n-1} in restricted-growth form."""

    n: int
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_n(self.n)
        assignment = tuple(self.assignment)
        object.__setattr__(self, "assignment", assignment)
        if len(assignment) != self.n:
            raise ValueError(
                f"assignment length {len(assignment)} != universe size {self.n}"
            )
        if not _is_int(assignment[0]) or assignment[0] != 0:
            raise ValueError("restricted-growth sequence must start at 0")
        peak = 0
        for i, a in enumerate(assignment[1:], start=1):
            # inline rather than _is_int: this runs for every label of every Partition
            if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a <= peak + 1:
                raise ValueError(f"not a restricted-growth sequence at position {i}")
            if a > peak:
                peak = a

    def block_count(self) -> int:
        return max(self.assignment) + 1

    def block_of(self, u: int) -> int:
        _check_element(u, self.n)
        return self.assignment[u]

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks in order of first appearance; elements ascending."""
        out: list[list[int]] = [[] for _ in range(self.block_count())]
        for u, b in enumerate(self.assignment):
            out[b].append(u)
        return tuple(tuple(block) for block in out)

    def dit_count(self) -> int:
        """Number of ordered pairs this partition distinguishes."""
        sizes = [0] * self.block_count()
        for b in self.assignment:
            sizes[b] += 1
        return self.n * self.n - sum(s * s for s in sizes)

    def __str__(self) -> str:
        return _partition_text(self)


def _partition_text(p: Partition, names: Sequence[str] | None = None) -> str:
    """The partition layout "0,1|2": blocks in order, elements by name if names are given."""
    text = str if names is None else names.__getitem__
    return "|".join([",".join(map(text, block)) for block in p.blocks()])


def _canonical_rgs(labels: Sequence[Hashable]) -> tuple[int, ...]:
    """Relabel arbitrary block labels into first-appearance order."""
    remap: dict[Hashable, int] = {}
    # from a list, not a generator: tuple() of a generator over-allocates
    # and shrinks, and the shrunk tuples pile up on CPython's free list
    return tuple([remap.setdefault(label, len(remap)) for label in labels])


def partition_from_blocks(n: int, blocks: Iterable[Iterable[int]]) -> Partition:
    """Build a partition from blocks that must tile {0, ..., n-1}."""
    _check_n(n)
    owner: dict[int, int] = {}
    for index, block in enumerate(blocks):
        items = list(block)
        if not items:
            raise EmptyBlockError(f"block {index} is empty")
        for u in items:
            _check_element(u, n)
            if u in owner:
                raise OverlappingBlocksError(f"element {u} appears more than once")
            owner[u] = index
    missing = [u for u in range(n) if u not in owner]
    if missing:
        raise MissingElementError(f"elements not covered by any block: {missing}")
    return Partition(n, _canonical_rgs([owner[u] for u in range(n)]))


def discrete(n: int) -> Partition:
    """All-singletons partition; top of the refinement order."""
    _check_n(n)
    return Partition(n, tuple(range(n)))


def indiscrete(n: int) -> Partition:
    """One-block partition; bottom of the refinement order."""
    _check_n(n)
    return Partition(n, (0,) * n)


def dit(p: Partition) -> PairRelation:
    """Ordered pairs whose endpoints lie in different blocks."""
    _check_operands(p)
    a = p.assignment
    return PairRelation(
        p.n,
        frozenset(
            (u, v) for u in range(p.n) for v in range(p.n) if a[u] != a[v]
        ),
    )


def indit(p: Partition) -> PairRelation:
    """Ordered pairs whose endpoints share a block: the equivalence
    relation of the partition, the complement of dit(p)."""
    return dit(p).complement()


def partition_from_equivalence(r: PairRelation) -> Partition:
    """Partition whose blocks are the classes of the equivalence r,
    which are its components, labelled by least element."""
    violation = r.equivalence_violation()
    if violation is not None:
        axiom, witness = violation
        raise NotEquivalenceError(axiom, witness)
    return Partition(r.n, tuple(_components(r.n, r.pairs)))


def _check_operands(*ops) -> None:
    for p in ops:
        if not isinstance(p, Partition):
            raise TypeError(f"expected a Partition, got {type(p).__name__}")
        _check_same_universe(ops[0], p)


def refines(p: Partition, q: Partition) -> bool:
    """True iff every block of p sits inside some block of q, that is
    iff their join is p."""
    return join(p, q) == p


def refines_via_ditsets(p: Partition, q: Partition) -> bool:
    """Same relation computed on the distinction sets: p refines q
    exactly when dit(q) is contained in dit(p)."""
    _check_operands(p, q)
    return dit(q).pairs <= dit(p).pairs


def join(p: Partition, q: Partition) -> Partition:
    """Least upper bound in refinement order: the partition of nonempty
    pairwise block intersections."""
    _check_operands(p, q)
    return Partition(p.n, _canonical_rgs(list(zip(p.assignment, q.assignment))))


def join_via_ditsets(p: Partition, q: Partition) -> Partition:
    """Join computed from distinction sets: dit of the join is the plain
    union dit(p) | dit(q), no interior required."""
    _check_operands(p, q)
    return partition_from_equivalence((dit(p) | dit(q)).complement())


def meet(p: Partition, q: Partition) -> Partition:
    """Greatest lower bound, the lifted AND: the interior of the
    intersection of the two distinction sets."""
    return lift_connective(Connective.AND, (p, q))


def meet_via_interior(p: Partition, q: Partition) -> Partition:
    """Meet computed from distinction sets: the interior of
    dit(p) & dit(q) is exactly the meet's distinction set."""
    _check_operands(p, q)
    inner = interior(dit(p) & dit(q))
    return partition_from_equivalence(inner.complement())


class Connective(Enum):
    NOT = "not"
    AND = "and"
    OR = "or"
    IMPLIES = "implies"
    IFF = "iff"
    TOP = "top"
    BOTTOM = "bottom"


# Each connective's subset operation on masks: it takes the all-ones mask,
# then its operands, so its arity is read off it. On points it is the
# connective itself, on distinctions the lift's first step.
_BOOLEAN = {
    Connective.NOT: lambda full, a: full ^ a,
    Connective.AND: lambda full, a, b: a & b,
    Connective.OR: lambda full, a, b: a | b,
    Connective.IMPLIES: lambda full, a, b: (full ^ a) | b,
    Connective.IFF: lambda full, a, b: full ^ a ^ b,
    Connective.TOP: lambda full: full,
    Connective.BOTTOM: lambda full: 0,
}
CONNECTIVE_ARITY = {conn: op.__code__.co_argcount - 1 for conn, op in _BOOLEAN.items()}


def _dit_mask(rgs: Sequence[int]) -> int:
    """The distinction mask of a restricted-growth sequence: the pair
    u < v is bit v*(v-1)//2 + u, set when u and v lie in different blocks."""
    members = [0] * len(rgs)  # block label -> the elements before v in it
    mask = 0
    for v, b in enumerate(rgs):
        mask |= ((1 << v) - 1 ^ members[b]) << v * (v - 1) // 2
        members[b] |= 1 << v
    return mask


def _blocks_of(n: int, mask: int) -> list[int]:
    """Restricted-growth labels of the interior of a pair mask: the
    components of the pairs it leaves undistinguished."""
    return _components(n, [(u, v) for v in range(1, n) for u in range(v)
                           if not mask >> v * (v - 1) // 2 + u & 1])


def lift_connective(
    conn: Connective, operands: Iterable[Partition], *, n: int | None = None
) -> Partition:
    """Interpret a truth-functional connective on partitions.

    By definition the result distinguishes the interior of the Boolean
    operation (_BOOLEAN) on the operands' distinction sets inside U x U.
    The universe size n is only needed for 0-ary ones.
    """
    if not isinstance(conn, Connective):
        raise UnknownConnectiveError(f"unknown connective {conn!r}")
    ops = tuple(operands)
    arity = CONNECTIVE_ARITY[conn]
    if len(ops) != arity:
        raise UnknownConnectiveError(
            f"connective {conn.value} takes {arity} operand(s), got {len(ops)}"
        )
    _check_operands(*ops)
    if ops:
        if n is not None and n != ops[0].n:
            raise UniverseMismatchError(
                f"explicit n={n} disagrees with operand universe {ops[0].n}"
            )
        n = ops[0].n
    elif n is None:
        raise ValueError("universe size n is required for 0-ary connectives")
    _check_n(n)
    full = (1 << n * (n - 1) // 2) - 1
    masks = [_dit_mask(p.assignment) for p in ops]
    return Partition(n, _blocks_of(n, _BOOLEAN[conn](full, *masks)))


def _bell_numbers() -> Iterator[int]:
    """Bell(0), Bell(1), ... read off the Bell triangle, whose rows start
    with the last entry of the row above and add its entries in turn:
    Bell(0..n) cost O(n**2) big additions in all."""
    row = [1]
    while True:
        yield row[0]
        row = list(itertools.accumulate(row, initial=row[-1]))


def bell_number(n: int) -> int:
    """Number of partitions of an n-element set."""
    if not _is_int(n):
        raise ValueError(f"n must be an int, got {n!r}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return next(itertools.islice(_bell_numbers(), n, None))


def _check_lattice_n(kind: str, n: int, limits: Limits) -> None:
    """Refuse a lattice kind, then a universe, before anything of its
    size is built."""
    if kind not in ("partition", "subset"):
        raise ValueError(f"kind must be 'subset' or 'partition', got {kind!r}")
    _check_n(n)
    if n > limits.max_lattice_n:
        if kind == "subset":
            what = f"2**{n} subsets"
        elif n <= 21:
            what = f"Bell({n}) = {bell_number(n)} partitions"
        else:  # Bell(22) > 10**15, and Bell(n) takes O(n**2) big additions
            what = f"Bell({n}) > 10**15 partitions"
        raise ResourceLimitError(
            f"enumerating {what} exceeds the cap n <= {limits.max_lattice_n}"
        )


def _rgs(n: int) -> Iterator[tuple[int, ...]]:
    """Restricted-growth sequences of length n >= 1 in lexicographic order
    (Knuth's Algorithm H, TAOCP Vol. 4A, 7.2.1.5): each step raises the
    last a[i] below b[i] = 1 + max(a[:i]) and zeroes the positions after."""
    a, b = [0] * n, [1] * n
    while True:
        yield tuple(a)
        j = n - 1
        while j > 0 and a[j] == b[j]:
            j -= 1
        if j == 0:
            return
        a[j] += 1
        top = b[j] + (a[j] == b[j])
        for i in range(j + 1, n):
            a[i], b[i] = 0, top


def enumerate_partitions(
    n: int, limits: Limits = DEFAULT_LIMITS
) -> Iterator[Partition]:
    """Yield every partition of {0, ..., n-1} exactly once, in
    lexicographic restricted-growth order.

    Each call returns a fresh, independently restartable stream.
    """
    _check_lattice_n("partition", n, limits)
    return (Partition(n, a) for a in _rgs(n))


def subset_lattice_nodes(n: int, limits: Limits = DEFAULT_LIMITS) -> list[Subset]:
    """All subsets of {0, ..., n-1} in ascending bitmask order."""
    _check_lattice_n("subset", n, limits)
    return [
        Subset(n, frozenset(u for u in range(n) if mask >> u & 1))
        for mask in range(2**n)
    ]


def hasse_cover_edges(kind: str, n: int, limits: Limits = DEFAULT_LIMITS) -> list:
    """Covering pairs (x, y) of the chosen lattice: x strictly below y
    with nothing strictly between.

    kind "subset" orders by inclusion; kind "partition" uses refinement
    order with the one-block partition at the bottom. Edges come back
    sorted by enumeration position of their endpoints.
    """
    _, _, covers = _lattice(kind, n, limits)  # refuses kind and n before a node is built
    enumerated = {"partition": enumerate_partitions, "subset": subset_lattice_nodes}[kind]
    nodes = list(enumerated(n, limits))
    return [(x, y) for x, ys in zip(nodes, covers(nodes)) for y in ys]


def _lattice(kind: str, n: int, limits: Limits) -> tuple[int, Iterator[str], Callable]:
    """The lattice's node count, its node labels in enumeration order, and
    covers(at), a generator that gives each node in turn the ascending
    positions of the nodes covering it, each read as its entry in the
    list at: so covers(nodes) gives nodes, and covers(names) names.

    Each label is its node's str(), made as it is read: a partition's is
    cut from its parent's by a chain of generators, one per level, and no
    level is held as a list. The size checks run before anything is built.
    """
    _check_lattice_n(kind, n, limits)
    if kind == "subset":
        labels = (_subset_text([u for u in range(n) if m >> u & 1]) for m in range(2**n))
        return 2**n, labels, _subset_covers(n)
    labels = iter(["0"])  # the one partition of {0}: _check_n holds n >= 1
    for u in range(1, n):
        labels = _grown_labels(labels, u)
    return bell_number(n), labels, _partition_lattice(n)


def _subset_covers(n: int) -> Callable:
    """covers(at) of the subset lattice: each bitmask m in turn, with the
    bits it lacks added one at a time."""
    return lambda at: ([at[m | 1 << u] for u in range(n) if not m >> u & 1]
                       for m in range(2**n))


def _partition_lattice(n: int) -> Callable:
    """covers(at) of the partition lattice of n, grown from n = 0 up.

    A level is held flat, with no list per node: a byte per node for its
    k + 1 children and a count of its upper covers, then the covers of all
    its nodes in turn, each as the position of its first child one level
    up, and two bytes a cover for the pair bi < bj of blocks it splits (a
    byte holds k + 2 to level 253; growing level 254, of Bell(254) nodes,
    raises). _grown_covers gives every level's covers: for the levels to
    n - 1 it reads them from the list of first child positions one level
    up, and they go straight into one flat list. Level n, with most of
    the nodes and edges, is not built: its covers are read from the
    caller's list. No label is made here; _lattice cuts them apart.
    """
    level = (b"\1", [0], b"", [])  # the one partition of no elements
    grown = [b""]  # grown[k + 1]: the children's k + 1, k times k + 1 and once k + 2
    for u in range(n - 1):
        grown.append(bytes([u + 1] * u + [u + 2]))  # level u has k <= u
        sizes = b"".join(map(grown.__getitem__, level[0]))
        rows = _grown_covers(level, list(itertools.accumulate(sizes, initial=0)))
        level = sizes, *_grown_pairs(level), list(itertools.chain.from_iterable(rows))
    return lambda at: _grown_covers(level, at)


def _grown_labels(labels: Iterable[str], u: int) -> Iterator[str]:
    """Each partition's children in order, each label cut from its parent's
    as it is read: u goes in at the end of each block in turn, then after
    a "|" as a block of its own."""
    tail, new = f",{u}", f"|{u}"
    for label in labels:
        end = -1
        for block in label.split("|"):
            end += len(block) + 1
            yield label[:end] + tail + label[end:]
        yield label + new


def _grown_covers(level: tuple[bytes, list[int], bytes, list[int]], at: list) -> Iterator[list]:
    """Upper covers one level up, for each child in enumeration order,
    from a level's flat storage, each cover's position y read as at[y].

    The children (x, c) of x sit at off[x] + c, where off sums k + 1
    over the nodes before x, and a cover y of x is kept as off[y]. So a
    cover y of x that merges bi < bj gives the cover (y, c) of (x,
    relabel(c)) for each c in 0..k(y), with relabel(c) = bi if c == bj
    else c - (c > bj). Read by source, child d of x gets (y, bi) and (y,
    bj) when d == bi and (y, d + (d >= bj)) otherwise: over d = 0..k, the
    column at[s : s + k + 2], s = off[y], without its entry bj, which row
    bi takes as well, after the column's own. The new singleton block k
    of (x, k) also merges into each earlier block d, covering (x, d):
    each row opens with at[off[x] + k], except that child's own row. Rows
    come out in ascending position, as (x, k) precedes every child of a y > x.
    """
    sizes, counts, codes, targets = level
    covers, s = zip(targets, *[iter(codes)] * 2), 0  # s: off[x]
    for size, m in zip(sizes, counts):  # size: k + 1
        columns, merged = [], []
        for j, (t, bi, bj) in zip(range(2, m + 2), covers):  # the range first: none past x's
            column = at[t : t + size + 1]
            merged.append((bi, j, column.pop(bj)))  # j: after the column in its row
            columns.append(column)
        rows = list(map(list, zip(itertools.repeat(at[s + size - 1], size), *columns)))
        s += size
        for bi, j, entry in reversed(merged):  # from the last column, so each j holds
            rows[bi].insert(j, entry)
        del rows[-1][0]
        yield from rows


def _grown_pairs(level: tuple[bytes, list[int], bytes, list[int]]) -> tuple[list[int], bytes]:
    """Each child's count of covers, and their pairs aligned with
    _grown_covers' rows: child d < k of x opens with the new pair (d, k),
    then has x's pairs, each pair with bi == d twice; child k has x's."""
    sizes, counts, codes, _ = level
    heads = [[bytes((d, k)) for d in range(k)] for k in range(max(sizes))]
    tally, pairs, c = [], bytearray(), 0
    for size, m in zip(sizes, counts):
        above, c = codes[c : c + 2 * m], c + 2 * m
        bis = above[::2]
        for d, head in enumerate(heads[size - 1]):
            pairs += head
            if d not in bis:
                pairs += above
                tally.append(m + 1)
                continue
            e, i = 0, bis.find(d)
            while i >= 0:
                pairs += above[e : 2 * i + 2]
                e, i = 2 * i, bis.find(d, i + 1)
            pairs += above[e:]
            tally.append(m + 1 + bis.count(d))
        pairs += above
        tally.append(m)
    return tally, bytes(pairs)
