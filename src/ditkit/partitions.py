"""Partitions of a finite universe and the lattice they form.

A partition is stored as a restricted-growth sequence: position u holds
the block index of element u, with blocks numbered in order of first
appearance. The encoding is canonical, so structural equality is
partition equality, and sorting sequences lexicographically gives a
stable enumeration order.

The refinement order used throughout puts the all-singletons partition
(discrete) at the top and the one-block partition (indiscrete) at the
bottom: p is below q exactly when q distinguishes every pair p does.
Distinctions play the role for partitions that elements play for
subsets, which is what makes the truth-functional connectives liftable:
apply the subset operation to the distinction sets inside U x U, then
take the interior. No pair set is built for that: a table says whether
the result distinguishes a pair from whether the operands do, and the
result's blocks are the components of the pairs it leaves undistinguished.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Iterable, Iterator, Sequence

from .errors import (
    ElementOutOfRangeError,
    EmptyBlockError,
    MissingElementError,
    NotEquivalenceError,
    OverlappingBlocksError,
    ResourceLimitError,
    UniverseMismatchError,
    UnknownConnectiveError,
)
from .limits import DEFAULT_LIMITS, Limits
from .relations import PairRelation, Subset, _check_n, _check_same_universe, interior


@dataclass(frozen=True)
class Partition:
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
        if assignment[0] != 0:
            raise ValueError("restricted-growth sequence must start at 0")
        peak = 0
        for i, a in enumerate(assignment[1:], start=1):
            if not isinstance(a, int) or not 0 <= a <= peak + 1:
                raise ValueError(f"not a restricted-growth sequence at position {i}")
            peak = max(peak, a)

    def block_count(self) -> int:
        return max(self.assignment) + 1

    def block_of(self, u: int) -> int:
        if not 0 <= u < self.n:
            raise ElementOutOfRangeError(f"element {u} outside universe of size {self.n}")
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
        return "|".join(",".join(str(u) for u in block) for block in self.blocks())


def _canonical_rgs(labels: Sequence[Hashable]) -> tuple[int, ...]:
    """Relabel arbitrary block labels into first-appearance order."""
    remap: dict[Hashable, int] = {}
    return tuple(remap.setdefault(label, len(remap)) for label in labels)


def partition_from_blocks(n: int, blocks: Iterable[Iterable[int]]) -> Partition:
    """Build a partition from blocks that must tile {0, ..., n-1}."""
    _check_n(n)
    owner: dict[int, int] = {}
    for index, block in enumerate(blocks):
        items = list(block)
        if not items:
            raise EmptyBlockError(f"block {index} is empty")
        for u in items:
            if not isinstance(u, int) or isinstance(u, bool) or not 0 <= u < n:
                raise ElementOutOfRangeError(
                    f"element {u!r} outside universe of size {n}"
                )
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
    a = p.assignment
    return PairRelation(
        p.n,
        frozenset(
            (u, v) for u in range(p.n) for v in range(p.n) if a[u] == a[v]
        ),
    )


def partition_from_equivalence(r: PairRelation) -> Partition:
    """Partition whose blocks are the classes of the equivalence r."""
    violation = r.equivalence_violation()
    if violation is not None:
        axiom, witness = violation
        raise NotEquivalenceError(axiom, witness)
    labels = []
    for u in range(r.n):
        labels.append(min(v for v in range(r.n) if (u, v) in r.pairs))
    return Partition(r.n, _canonical_rgs(labels))


def refines(p: Partition, q: Partition) -> bool:
    """True iff every block of p sits inside some block of q."""
    _check_same_universe(p, q)
    image: dict[int, int] = {}
    for u in range(p.n):
        b = p.assignment[u]
        c = q.assignment[u]
        if image.setdefault(b, c) != c:
            return False
    return True


def refines_via_ditsets(p: Partition, q: Partition) -> bool:
    """Same relation computed on the distinction sets: p refines q
    exactly when dit(q) is contained in dit(p)."""
    _check_same_universe(p, q)
    return dit(q).pairs <= dit(p).pairs


def join(p: Partition, q: Partition) -> Partition:
    """Least upper bound in refinement order: the partition of nonempty
    pairwise block intersections."""
    _check_same_universe(p, q)
    return Partition(p.n, _canonical_rgs(list(zip(p.assignment, q.assignment))))


def join_via_ditsets(p: Partition, q: Partition) -> Partition:
    """Join computed from distinction sets: dit of the join is the plain
    union dit(p) | dit(q), no interior required."""
    _check_same_universe(p, q)
    return partition_from_equivalence((dit(p) | dit(q)).complement())


def meet(p: Partition, q: Partition) -> Partition:
    """Greatest lower bound: connected components of the union of the
    two block equivalences, which is the lifted AND."""
    _check_same_universe(p, q)
    return Partition(p.n, _lift(Connective.AND, p.assignment, q.assignment))


def meet_via_interior(p: Partition, q: Partition) -> Partition:
    """Meet computed from distinction sets: the interior of
    dit(p) & dit(q) is exactly the meet's distinction set."""
    _check_same_universe(p, q)
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


CONNECTIVE_ARITY = {
    Connective.NOT: 1,
    Connective.AND: 2,
    Connective.OR: 2,
    Connective.IMPLIES: 2,
    Connective.IFF: 2,
    Connective.TOP: 0,
    Connective.BOTTOM: 0,
}


def lift_connective(
    conn: Connective, operands: Iterable[Partition], *, n: int | None = None
) -> Partition:
    """Interpret a truth-functional connective on partitions.

    By definition the result distinguishes the interior of the Boolean
    operation on the operands' distinction sets inside U x U; its blocks
    are the components of the pairs the distinction table leaves
    undistinguished. The universe size n is only needed for 0-ary ones.
    """
    if not isinstance(conn, Connective):
        raise UnknownConnectiveError(f"unknown connective {conn!r}")
    ops = tuple(operands)
    arity = CONNECTIVE_ARITY[conn]
    if len(ops) != arity:
        raise UnknownConnectiveError(
            f"connective {conn.value} takes {arity} operand(s), got {len(ops)}"
        )
    if ops:
        for other in ops[1:]:
            _check_same_universe(ops[0], other)
        if n is not None and n != ops[0].n:
            raise UniverseMismatchError(
                f"explicit n={n} disagrees with operand universe {ops[0].n}"
            )
        n = ops[0].n
    elif n is None:
        raise ValueError("universe size n is required for 0-ary connectives")
    _check_n(n)
    a = ops[0].assignment if ops else (0,) * n  # a 0-ary row is constant
    b = ops[1].assignment if arity == 2 else None
    return Partition(n, _lift(conn, a, b))


# _DISTINGUISHES[conn][x][y]: does the Boolean result distinguish a pair
# that the left operand distinguishes iff x and the right one iff y?
_DISTINGUISHES = {
    Connective.NOT: ((True, True), (False, False)),
    Connective.AND: ((False, False), (False, True)),
    Connective.OR: ((False, True), (True, True)),
    Connective.IMPLIES: ((True, True), (False, True)),
    Connective.IFF: ((True, False), (False, True)),
    Connective.TOP: ((True, True), (True, True)),
    Connective.BOTTOM: ((False, False), (False, False)),
}


def _lift(conn: Connective, a: tuple, b: tuple | None = None) -> tuple:
    """The lifted connective on restricted-growth tuples, blocks labelled
    by least element; a unary connective reads its operand twice."""
    row = _DISTINGUISHES[conn]
    b = a if b is None else b
    n = len(a)
    out = [-1] * n
    blocks = 0
    for first in range(n):
        if out[first] < 0:
            out[first], stack = blocks, [first]
            while stack:
                u = stack.pop()
                for v in range(first + 1, n):
                    if out[v] < 0 and not row[a[u] != a[v]][b[u] != b[v]]:
                        out[v] = blocks
                        stack.append(v)
            blocks += 1
    return tuple(out)


def bell_number(n: int) -> int:
    """Number of partitions of an n-element set."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def enumerate_partitions(
    n: int, limits: Limits = DEFAULT_LIMITS
) -> Iterator[Partition]:
    """Yield every partition of {0, ..., n-1} exactly once, in
    lexicographic restricted-growth order.

    Each call returns a fresh, independently restartable stream.
    """
    _check_n(n)
    if n > limits.max_lattice_n:
        raise ResourceLimitError(
            f"enumerating Bell({n}) = {bell_number(n)} partitions exceeds "
            f"the cap n <= {limits.max_lattice_n}"
        )

    def generate() -> Iterator[Partition]:
        prefix = [0] * n

        def rec(i: int, peak: int) -> Iterator[Partition]:
            if i == n:
                yield Partition(n, tuple(prefix))
                return
            for digit in range(peak + 2):
                prefix[i] = digit
                yield from rec(i + 1, max(peak, digit))

        yield from rec(1, 0)

    return generate()


def subset_lattice_nodes(n: int, limits: Limits = DEFAULT_LIMITS) -> list[Subset]:
    """All subsets of {0, ..., n-1} in ascending bitmask order."""
    _check_n(n)
    if n > limits.max_lattice_n:
        raise ResourceLimitError(
            f"enumerating 2**{n} subsets exceeds the cap n <= {limits.max_lattice_n}"
        )
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
    nodes, edges = _lattice(kind, n, limits)
    return [(nodes[ix], nodes[iy]) for ix, iy in edges]


def _lattice(kind: str, n: int, limits: Limits) -> tuple[list, list[tuple[int, int]]]:
    """The lattice's nodes in enumeration order and its cover edges as
    sorted pairs of node positions."""
    if kind == "partition":
        nodes = list(enumerate_partitions(n, limits))
        index = {p.assignment: i for i, p in enumerate(nodes)}
        # y covers x exactly when x is y with blocks bi < bj merged: bj's
        # elements join bi and the blocks after bj move down one label
        edges = [
            (index[tuple(bi if a == bj else a - (a > bj) for a in y.assignment)], iy)
            for iy, y in enumerate(nodes)
            for bi in range(y.block_count())
            for bj in range(bi + 1, y.block_count())
        ]
    elif kind == "subset":
        nodes = subset_lattice_nodes(n, limits)
        edges = [(m, m | 1 << u) for m in range(2**n) for u in range(n) if not m >> u & 1]
    else:
        raise ValueError(f"kind must be 'subset' or 'partition', got {kind!r}")
    edges.sort()
    return nodes, edges
