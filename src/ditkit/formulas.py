"""Propositional formulas: syntax tree, text parser, evaluation.

Connectives from loosest to tightest binding: <-> , -> , | , & , ~ .
Implication associates to the right, the other binary connectives to
the left. Tokens are ~ & | -> <-> T F ( ) plus variable names matching
[A-Za-z][A-Za-z0-9_]* (T and F themselves are the constants).

A tree compiles to a postfix program, its nodes with every child before
its parent, and one stack evaluator runs that program over an algebra:
bitmasks over n points for subset semantics (n = 1 is the truth table),
or restricted-growth tuples for partitions, every connective lifted
through distinction sets.
Parsing, compiling, evaluating and printing all use explicit stacks, so
no formula is too deep for them.
"""
from __future__ import annotations

import functools
import operator
import random
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

from .errors import (
    FormulaSyntaxError,
    UnbalancedParensError,
    UnboundVariableError,
    UniverseMismatchError,
    UniverseTooSmallError,
)
from .partitions import Connective, Partition, _lift
from .relations import Subset, _check_n


class Formula:
    """Base class for formula nodes; instances are immutable. Equality,
    hashing and repr read the postfix program, so they work at any depth."""

    def _key(self) -> tuple:
        return tuple(
            (type(node), getattr(node, "name", None), getattr(node, "value", None))
            for node in _compile(self)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        program = _compile(self)
        env = {name: f"Var(name={name!r})" for name in _variables(program)}
        return _evaluate(program, _REPR, env)

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True, eq=False, repr=False)
class Var(Formula):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Const(Formula):
    value: bool  # True is the top constant T, False the bottom constant F


@dataclass(frozen=True, eq=False, repr=False)
class Not(Formula):
    child: Formula


@dataclass(frozen=True, eq=False, repr=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Iff(Formula):
    left: Formula
    right: Formula


_CONNECTIVE = {
    Not: Connective.NOT,
    And: Connective.AND,
    Or: Connective.OR,
    Implies: Connective.IMPLIES,
    Iff: Connective.IFF,
}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("<->", i):
            tokens.append(("IFF", "<->", i))
            i += 3
        elif text.startswith("->", i):
            tokens.append(("IMPLIES", "->", i))
            i += 2
        elif ch == "~":
            tokens.append(("NOT", "~", i))
            i += 1
        elif ch == "&":
            tokens.append(("AND", "&", i))
            i += 1
        elif ch == "|":
            tokens.append(("OR", "|", i))
            i += 1
        elif ch == "(":
            tokens.append(("LPAREN", "(", i))
            i += 1
        elif ch == ")":
            tokens.append(("RPAREN", ")", i))
            i += 1
        elif ch.isalpha():
            j = i + 1
            while j < length and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            if name == "T":
                tokens.append(("CONST", "T", i))
            elif name == "F":
                tokens.append(("CONST", "F", i))
            else:
                tokens.append(("VAR", name, i))
            i = j
        else:
            raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", length))
    return tokens


_BINARY_TOKEN = {"IFF": Iff, "IMPLIES": Implies, "OR": Or, "AND": And}
_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5}
_ATOM_PREC = 6


def _reduce(operators: list, operands: list[Formula]) -> None:
    shape = operators.pop()
    if shape is Not:
        operands.append(Not(operands.pop()))
    else:
        right = operands.pop()
        operands.append(shape(operands.pop(), right))


def parse(text: str) -> Formula:
    """Parse formula text; raises FormulaSyntaxError with a position.

    Operator precedence on explicit stacks, so nesting depth is bounded
    by memory, not by the interpreter's recursion limit.
    """
    operands: list[Formula] = []
    operators: list = []  # Not, binary node classes, and None for an open '('
    open_parens = 0
    expect_operand = True
    for kind, lexeme, position in _tokenize(text):
        if expect_operand:
            if kind == "NOT":
                operators.append(Not)
            elif kind == "LPAREN":
                operators.append(None)
                open_parens += 1
            elif kind in ("VAR", "CONST"):
                operands.append(Var(lexeme) if kind == "VAR" else Const(lexeme == "T"))
                expect_operand = False
            elif kind == "END":
                raise FormulaSyntaxError("unexpected end of input", position)
            else:
                raise FormulaSyntaxError(f"unexpected {lexeme!r}", position)
        elif kind in _BINARY_TOKEN:
            shape = _BINARY_TOKEN[kind]
            # implication is right-associative: an equal-strength '->' stays stacked
            bar = _PREC[shape] + (shape is Implies)
            while operators and operators[-1] is not None and _PREC[operators[-1]] >= bar:
                _reduce(operators, operands)
            operators.append(shape)
            expect_operand = True
        elif kind == "RPAREN" and open_parens:
            while operators[-1] is not None:
                _reduce(operators, operands)
            operators.pop()
            open_parens -= 1
        elif kind == "RPAREN":
            raise UnbalancedParensError("unmatched ')'", position)
        elif open_parens:
            # anything else while a '(' is open is reported against that '('
            raise UnbalancedParensError("expected ')'", position)
        elif kind != "END":
            raise FormulaSyntaxError(f"unexpected {lexeme!r} after formula", position)
    while operators:
        _reduce(operators, operands)
    return operands[0]


def _compile(f: Formula) -> tuple[Formula, ...]:
    """The nodes of f in postfix order: every child before its parent,
    left subtree before right."""
    preorder = []
    stack = [f]
    while stack:
        node = stack.pop()
        preorder.append(node)
        if isinstance(node, Not):
            stack.append(node.child)
        elif isinstance(node, (And, Or, Implies, Iff)):
            stack += (node.left, node.right)
    # node, right subtree, left subtree, reversed: left, right, node
    return tuple(reversed(preorder))


def _variables(program: tuple[Formula, ...]) -> tuple[str, ...]:
    return tuple(sorted({node.name for node in program if type(node) is Var}))


class _Algebra(NamedTuple):
    """Values for the two constants and an operation per connective node."""

    top: object
    bottom: object
    ops: Mapping[type, Callable]


def _evaluate(program: tuple[Formula, ...], algebra: _Algebra, env: Mapping[str, object]):
    """Run a postfix program on one stack; env gives each variable's value."""
    stack: list = []
    push, pop, ops = stack.append, stack.pop, algebra.ops
    for node in program:
        kind = type(node)
        if kind is Var:
            try:
                push(env[node.name])
            except KeyError:
                raise UnboundVariableError(f"variable {node.name!r} has no value") from None
        elif kind is Const:
            push(algebra.top if node.value else algebra.bottom)
        elif kind is Not:
            push(ops[Not](pop()))
        else:
            right = pop()
            push(ops[kind](pop(), right))
    return stack[0]


def _bitmask_algebra(n: int) -> _Algebra:
    """Subsets of n points as n-bit masks; at n = 1 this is the truth table."""
    full = (1 << n) - 1
    return _Algebra(
        full,
        0,
        {
            Not: lambda a: full ^ a,
            And: operator.and_,
            Or: operator.or_,
            Implies: lambda a, b: (full ^ a) | b,
            Iff: lambda a, b: full ^ a ^ b,
        },
    )


def _partition_algebra(n: int) -> _Algebra:
    """Partitions of n points as restricted-growth tuples, every
    connective lifted through distinction sets."""
    return _Algebra(
        tuple(range(n)),
        (0,) * n,
        {shape: functools.partial(_lift, conn) for shape, conn in _CONNECTIVE.items()},
    )


def _wrap(child: tuple[str, int], bar: int) -> str:
    text, prec = child
    return text if prec >= bar else f"({text})"


def _render_binary(shape: type, left: tuple[str, int], right: tuple[str, int]) -> tuple[str, int]:
    prec = _PREC[shape]
    # an equal-strength child needs parentheses on the side the
    # connective does not associate to: the left one for '->'
    right_assoc = shape is Implies
    left_text = _wrap(left, prec + right_assoc)
    right_text = _wrap(right, prec + (not right_assoc))
    return f"{left_text} {_OP_TEXT[shape]} {right_text}", prec


_OP_TEXT = {Iff: "<->", Implies: "->", Or: "|", And: "&"}
# Text paired with the binding strength of its outermost connective.
_TEXT = _Algebra(
    ("T", _ATOM_PREC),
    ("F", _ATOM_PREC),
    {
        Not: lambda child: ("~" + _wrap(child, _PREC[Not]), _PREC[Not]),
        **{shape: functools.partial(_render_binary, shape) for shape in _OP_TEXT},
    },
)


# The dataclass repr of a tree, e.g. Not(child=Var(name='p')).
_REPR = _Algebra(
    "Const(value=True)",
    "Const(value=False)",
    {
        Not: "Not(child={})".format,
        **{shape: f"{shape.__name__}(left={{}}, right={{}})".format for shape in _OP_TEXT},
    },
)


def format_formula(f: Formula) -> str:
    """Render to concrete syntax; parse(format_formula(f)) rebuilds f."""
    program = _compile(f)
    env = {name: (name, _ATOM_PREC) for name in _variables(program)}
    return _evaluate(program, _TEXT, env)[0]


def formula_to_json(f: Formula) -> dict:
    """Plain-dict syntax tree: node kind plus children."""
    stack: list[dict] = []
    for node in _compile(f):
        kind = type(node)
        if kind is Var:
            stack.append({"kind": "var", "name": node.name})
        elif kind is Const:
            stack.append({"kind": "const", "value": "T" if node.value else "F"})
        else:
            arity = 1 if kind is Not else 2
            children = stack[-arity:]
            del stack[-arity:]
            stack.append({"kind": _CONNECTIVE[kind].value, "children": children})
    return stack[0]


def free_variables(f: Formula) -> tuple[str, ...]:
    """Variable names occurring in f, sorted, without duplicates."""
    return _variables(_compile(f))


@dataclass(frozen=True)
class SubsetAssignment:
    """Maps variable names to subsets of a shared universe."""

    n: int
    values: Mapping[str, Subset]

    def __post_init__(self) -> None:
        _check_n(self.n)
        values = dict(self.values)
        object.__setattr__(self, "values", values)
        for name, subset in values.items():
            if subset.n != self.n:
                raise UniverseMismatchError(
                    f"value for {name!r} lives on n={subset.n}, expected {self.n}"
                )


@dataclass(frozen=True)
class PartitionAssignment:
    """Maps variable names to partitions of a shared universe."""

    n: int
    values: Mapping[str, Partition]

    def __post_init__(self) -> None:
        _check_n(self.n)
        values = dict(self.values)
        object.__setattr__(self, "values", values)
        for name, partition in values.items():
            if partition.n != self.n:
                raise UniverseMismatchError(
                    f"value for {name!r} lives on n={partition.n}, expected {self.n}"
                )


def _members(n: int, mask: int) -> frozenset[int]:
    return frozenset(u for u in range(n) if mask >> u & 1)


def eval_subset(f: Formula, assignment: SubsetAssignment) -> Subset:
    """Evaluate under subset semantics; the result is a subset of the
    assignment's universe."""
    n = assignment.n
    env = {name: sum(1 << u for u in s.members) for name, s in assignment.values.items()}
    return Subset(n, _members(n, _evaluate(_compile(f), _bitmask_algebra(n), env)))


def eval_partition(f: Formula, assignment: PartitionAssignment) -> Partition:
    """Evaluate under partition semantics via lifted connectives."""
    if assignment.n < 2:
        raise UniverseTooSmallError(
            f"partition semantics needs n >= 2, got n={assignment.n}"
        )
    env = {name: p.assignment for name, p in assignment.values.items()}
    return Partition(assignment.n, _evaluate(_compile(f), _partition_algebra(assignment.n), env))


def random_formula(
    rng: random.Random,
    variables: tuple[str, ...] = ("p", "q", "r"),
    max_depth: int = 8,
) -> Formula:
    """Draw a random formula tree, fully determined by rng's state."""
    roll = rng.random()
    if max_depth <= 0 or roll < 0.32:
        if rng.random() < 0.12:
            return Const(rng.random() < 0.5)
        return Var(rng.choice(list(variables)))
    if roll < 0.47:
        return Not(random_formula(rng, variables, max_depth - 1))
    shape = rng.choice((And, Or, Implies, Iff))
    return shape(
        random_formula(rng, variables, max_depth - 1),
        random_formula(rng, variables, max_depth - 1),
    )
