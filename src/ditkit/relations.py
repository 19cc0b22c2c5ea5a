"""Subsets of a finite universe and binary relations over it.

The universe is always {0, ..., n-1}. Subsets and pair relations carry
n so that complements can be taken inside the universe or inside its
full square U x U. Values are immutable and safe to share.

The closure implemented here is the reflexive-symmetric-transitive
closure: cl(S) is the smallest equivalence relation containing S. It is
not a topological closure, because a union of closed sets need not be
closed. Its complement-dual int(S) = cl(complement S) complemented is
the largest partition relation inside S; int accepts arbitrary pair
sets, symmetric or not.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .errors import ElementOutOfRangeError, UniverseMismatchError


class _Record:
    """Base of the toolkit's immutable records: plain classes, which
    cost next to nothing to define.

    A subclass annotates its fields in order, after any inherited ones.
    A class attribute of the same name is that field's default; every
    record that takes it shares the one object, so it is immutable. A
    record is built by position or keyword, then checked by
    __post_init__, and matched by position in a case pattern. Its repr
    is Name(field=value, ...). It equals only records of its own class
    with an equal _key(), the tuple of its fields unless the subclass
    overrides _key, and hashes as that key. Assignment and deletion
    raise AttributeError; pickle and copy store and restore the fields
    as they are, without running __init__.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = {name: cls.__dict__[name] for name in own if name in cls.__dict__}
        cls._fields += own
        cls._defaults = {**cls._defaults, **defaults}
        cls.__match_args__ = cls._fields

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for name, value in zip(self._fields, args):
            # not through self.__dict__, which would make every later
            # attribute read slower than on a plain instance
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values, in order, of a call by keyword, with defaults
        left out or with surplus arguments."""
        fields, call = cls._fields, f"{cls.__qualname__}()"
        if len(args) > len(fields):
            raise TypeError(f"{call} takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{call} got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{call} got multiple values for argument {key!r}")
            values[key] = value
        for key in fields:
            if key not in values:
                if key not in cls._defaults:
                    raise TypeError(f"{call} missing required argument {key!r}")
                values[key] = cls._defaults[key]
        return tuple(values[key] for key in fields)

    def __post_init__(self) -> None:
        pass

    def _key(self) -> tuple:
        """What == and hash read."""
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_n(n: int) -> None:
    if not _is_int(n) or n < 1:
        raise ValueError(f"universe size must be a positive integer, got {n!r}")


def _check_element(u, n: int) -> None:
    if not _is_int(u) or not 0 <= u < n:
        raise ElementOutOfRangeError(f"element {u!r} outside universe of size {n}")


def _check_same_universe(a, b) -> None:
    if a.n != b.n:
        raise UniverseMismatchError(f"universe sizes differ: {a.n} != {b.n}")


def _subset_text(members: Iterable[int], names: Sequence[str] | None = None) -> str:
    """The subset layout "{0,2}": members in the given order, by name if names are given."""
    return "{" + ",".join(map(str if names is None else names.__getitem__, members)) + "}"


class _UniverseSet(_Record):
    """One set algebra for subsets of U and of U x U: a frozen set, the
    record's second field, inside the whole set _whole(n) a subclass names."""

    n: int

    @classmethod
    def empty(cls, n: int):
        return cls(n, frozenset())

    @classmethod
    def full(cls, n: int):
        return cls(n, cls._whole(n))

    _elements = property(lambda self: getattr(self, self._fields[1]))

    def _elements_of(self, other: "_UniverseSet") -> frozenset:
        if other.__class__ is not self.__class__:
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        _check_same_universe(self, other)
        return other._elements

    def complement(self):
        return self.__class__(self.n, self._whole(self.n) - self._elements)

    def union(self, other: "_UniverseSet"):
        return self.__class__(self.n, self._elements | self._elements_of(other))

    def intersection(self, other: "_UniverseSet"):
        return self.__class__(self.n, self._elements & self._elements_of(other))

    __or__ = union
    __and__ = intersection

    def __contains__(self, element: object) -> bool:
        return element in self._elements

    def __len__(self) -> int:
        return len(self._elements)


class Subset(_UniverseSet):
    """Immutable subset of {0, ..., n-1}."""

    members: frozenset[int]

    def __post_init__(self) -> None:
        _check_n(self.n)
        members = frozenset(self.members)
        object.__setattr__(self, "members", members)
        for u in members:
            _check_element(u, self.n)

    @classmethod
    def of(cls, n: int, members: Iterable[int] = ()) -> "Subset":
        return cls(n, frozenset(members))

    @staticmethod
    def _whole(n: int) -> frozenset[int]:
        return frozenset(range(n))

    def is_full(self) -> bool:
        return len(self.members) == self.n

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.members))

    def __str__(self) -> str:
        return _subset_text(self)


Pair = tuple[int, int]


class PairRelation(_UniverseSet):
    """Immutable set of ordered pairs over {0, ..., n-1} x {0, ..., n-1}."""

    pairs: frozenset[Pair]

    def __post_init__(self) -> None:
        _check_n(self.n)
        pairs = frozenset((u, v) for u, v in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        for u, v in pairs:
            if not (_is_int(u) and _is_int(v) and 0 <= u < self.n and 0 <= v < self.n):
                raise ElementOutOfRangeError(
                    f"pair ({u!r}, {v!r}) outside universe of size {self.n}"
                )

    @classmethod
    def of(cls, n: int, pairs: Iterable[Pair] = ()) -> "PairRelation":
        return cls(n, frozenset(pairs))

    @staticmethod
    def _whole(n: int) -> frozenset[Pair]:
        return frozenset((u, v) for u in range(n) for v in range(n))

    @classmethod
    def diagonal(cls, n: int) -> "PairRelation":
        return cls(n, frozenset((u, u) for u in range(n)))

    def issubset(self, other: "PairRelation") -> bool:
        return self.pairs <= self._elements_of(other)

    def sorted_pairs(self) -> list[Pair]:
        return sorted(self.pairs)

    def equivalence_violation(self) -> tuple[str, tuple] | None:
        """First violated equivalence axiom with a witness, or None.

        Axioms are checked in the order reflexive, symmetric, transitive,
        scanning elements and pairs in ascending order, so the reported
        witness is deterministic.
        """
        for u in range(self.n):
            if (u, u) not in self.pairs:
                return ("reflexive", ((u, u),))
        for u, v in self.sorted_pairs():
            if (v, u) not in self.pairs:
                return ("symmetric", ((u, v),))
        successors: dict[int, list[int]] = {}
        for u, v in self.sorted_pairs():
            successors.setdefault(u, []).append(v)
        for u, v in self.sorted_pairs():
            for w in successors.get(v, ()):
                if (u, w) not in self.pairs:
                    return ("transitive", ((u, v), (v, w)))
        return None

    def is_equivalence(self) -> bool:
        return self.equivalence_violation() is None

    def is_ditset(self) -> bool:
        """True iff this is some partition's set of distinctions.

        Equivalently: the complement is an equivalence relation, which
        forces anti-reflexivity and symmetry here.
        """
        return self.complement().is_equivalence()


def _components(n: int, pairs: Iterable[Pair]) -> list[int]:
    """The restricted-growth labels of the connected components of the
    graph on {0, ..., n-1} whose edges are the pairs: components are
    numbered in order of their least element."""
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        neighbours[u].append(v)
        neighbours[v].append(u)
    labels = [-1] * n
    count = 0
    for root in range(n):
        if labels[root] < 0:
            labels[root] = count
            stack = [root]
            while stack:
                for w in neighbours[stack.pop()]:
                    if labels[w] < 0:
                        labels[w] = count
                        stack.append(w)
            count += 1
    return labels


def rst_closure(s: PairRelation) -> PairRelation:
    """Smallest equivalence relation containing s: the union of
    block x block over the connected components of s's pairs. cl(empty)
    is the diagonal."""
    blocks: dict[int, list[int]] = {}
    for u, label in enumerate(_components(s.n, s.pairs)):
        blocks.setdefault(label, []).append(u)
    return PairRelation(s.n, frozenset((u, v) for b in blocks.values() for u in b for v in b))


def interior(s: PairRelation) -> PairRelation:
    """Largest partition relation contained in s: cl of the complement,
    complemented. Defined for arbitrary pair sets; the result is always
    anti-reflexive, symmetric, and closed under the duality."""
    return rst_closure(s.complement()).complement()
