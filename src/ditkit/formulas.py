"""Propositional formulas: syntax tree, text parser, evaluation.

Connectives from loosest to tightest binding: <-> , -> , | , & , ~ .
Implication associates to the right, the other binary connectives to
the left. Tokens are ~ & | -> <-> T F ( ) plus variable names: a letter
(str.isalpha), then letters, digits or '_' (str.isalnum), so 'é', 'p²'
and 'ǅ' are names and '½p' is not; T and F themselves are the constants.
Whitespace is what str.isspace accepts, the no-break space included.

A tree compiles to a postfix program, its nodes with every child before
its parent, and one stack evaluator runs that program over an algebra:
a dict from node class to meaning, where Const means the pair (F, T).
One algebra serves both semantics, partition logic being subset logic
on distinction sets plus the interior: a value holds one int per pair
u < v of the universe, each bit one assignment's distinction of that
pair. &, -> and <-> are partitions._BOOLEAN pair by pair, then the
interior; | is the pairwise union, already a distinction set, and ~a
splits every pair where a splits none, and none elsewhere. Subsets of
n points are its one-pair case, n bits wide.
Parsing, compiling, evaluating and printing all use explicit stacks, so
no formula is too deep for them.
"""
from __future__ import annotations

import functools
import re
from collections.abc import Callable, Mapping

from .errors import (
    FormulaSyntaxError,
    UnbalancedParensError,
    UnboundVariableError,
    UniverseMismatchError,
    UniverseTooSmallError,
)
from .partitions import _BOOLEAN, CONNECTIVE_ARITY, Connective, Partition, _blocks_of, _dit_mask
from .relations import Subset, _check_n, _Record


class Formula(_Record):
    """Base class for formula nodes; instances are immutable. Equality,
    hashing and repr read the postfix program, so they work at any depth."""

    def _key(self) -> tuple:
        return tuple(
            (type(node), getattr(node, "name", None), getattr(node, "value", None))
            for node in _compile(self)
        )

    def __repr__(self) -> str:
        program = _compile(self)
        env = {name: f"Var(name={name!r})" for name in _variables(program)}
        return _evaluate(program, _REPR, env)

    def __str__(self) -> str:
        return format_formula(self)


class Var(Formula):
    name: str


class Const(Formula):
    value: bool  # True is the top constant T, False the bottom constant F


# A connective node states its Connective, token and binding strength (higher binds tighter).
class Not(Formula):
    child: Formula
    _connective, _symbol, _prec = Connective.NOT, "~", 5


class _Binary(Formula):
    left: Formula
    right: Formula


class And(_Binary):
    """left & right"""
    _connective, _symbol, _prec = Connective.AND, "&", 4


class Or(_Binary):
    """left | right"""
    _connective, _symbol, _prec = Connective.OR, "|", 3


class Implies(_Binary):
    """left -> right"""
    _connective, _symbol, _prec = Connective.IMPLIES, "->", 2


class Iff(_Binary):
    """left <-> right"""
    _connective, _symbol, _prec = Connective.IFF, "<->", 1


_BINARIES = (And, Or, Implies, Iff)
_CONNECTIVES = (Not, *_BINARIES)


# An operator, a word, or any other visible character; whitespace
# between tokens is skipped.
_TOKEN = re.compile(r"(<->|->|[~&|()])|(\w+)|(\S)")
_OPERATOR_TOKEN = {"(": "LPAREN", ")": "RPAREN"} | {
    shape._symbol: shape._connective.name for shape in _CONNECTIVES
}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, lexeme, position) for each token, then ("END", "", len(text)).
    The whole text is read before parsing starts, so a bad character is
    reported ahead of any grammar error."""
    tokens = []
    for match in _TOKEN.finditer(text):
        lexeme, position = match.group(), match.start()
        if match.lastindex == 1:
            kind = _OPERATOR_TOKEN[lexeme]
        elif match.lastindex == 2 and lexeme[0].isalpha():
            kind = "CONST" if lexeme in ("T", "F") else "VAR"
        else:
            raise FormulaSyntaxError(f"unexpected character {lexeme[0]!r}", position)
        tokens.append((kind, lexeme, position))
    tokens.append(("END", "", len(text)))
    return tokens


_BINARY_TOKEN = {shape._connective.name: shape for shape in _BINARIES}
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
            bar = shape._prec + (shape is Implies)
            while operators and operators[-1] is not None and operators[-1]._prec >= bar:
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
    if not isinstance(f, Formula):
        raise TypeError(f"expected a Formula, got {type(f).__name__}")
    preorder = []
    stack = [f]
    while stack:
        node = stack.pop()
        preorder.append(node)
        if isinstance(node, Not):
            stack.append(node.child)
        elif isinstance(node, _Binary):
            stack += (node.left, node.right)
    # node, right subtree, left subtree, reversed: left, right, node
    return tuple(reversed(preorder))


def _variables(program: tuple[Formula, ...]) -> tuple[str, ...]:
    return tuple(sorted({node.name for node in program if type(node) is Var}))


def _evaluate(program: tuple[Formula, ...], algebra: dict, env: Mapping[str, object]):
    """Run a postfix program on one stack; env gives each variable's value."""
    stack: list = []
    push, pop = stack.append, stack.pop
    for node in program:
        kind = type(node)
        if kind is Var:
            try:
                push(env[node.name])
            except KeyError:
                raise UnboundVariableError(f"variable {node.name!r} has no value") from None
        elif kind is Const:
            push(algebra[Const][node.value])
        elif kind is Not:
            push(algebra[Not](pop()))
        else:
            right = pop()
            push(algebra[kind](pop(), right))
    return stack[0]


def _partition_algebra(n: int, width: int) -> dict:
    """Partitions of n points, width assignments at once: one int per pair
    u < v, in _dit_mask order, with bit t set when assignment t splits it.
    &, -> and <-> are _BOOLEAN pair by pair, then Warshall's closure of
    the unsplit pairs (at n = 2 there is one pair, so no closure); | and
    ~ have closed forms that need none (Ellerman, "The Logic of
    Partitions", 2010)."""
    full = (1 << width) - 1
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    at = {pair: e for e, (u, v) in enumerate(pairs) for pair in ((u, v), (v, u))}
    # for each point k in turn, u and v become joined where u, k and k, v are
    steps = [(at[u, v], at[u, k], at[k, v]) for k in range(n) for u, v in pairs if k not in (u, v)]

    def lift(op: Callable) -> Callable:
        def lifted(*values: tuple[int, ...]) -> tuple[int, ...]:
            same = [full ^ op(full, *column) for column in zip(*values)]
            for uv, uk, kv in steps:
                same[uv] |= same[uk] & same[kv]
            return tuple([full ^ s for s in same])

        return lifted

    return {
        Const: ((0,) * len(pairs), (full,) * len(pairs)),
        **{shape: lift(_BOOLEAN[shape._connective]) for shape in (And, Implies, Iff)},
        # a union of distinction sets is one; ~a is the discrete partition
        # where a is the indiscrete one, and the indiscrete one elsewhere
        Or: lambda a, b: tuple([x | y for x, y in zip(a, b)]),
        Not: lambda a: (full ^ functools.reduce(int.__or__, a, 0),) * len(pairs),
    }


def _pair_text(mask: int, pairs: int) -> str:
    """A distinction mask as one row of a value's text: character e is bit e."""
    return format(mask, f"0{pairs}b")[::-1]


def _pair_columns(texts: list[str], pairs: int) -> list[tuple[int, ...]]:
    """Each text, rows of _pair_text, as one int per pair e: bit t is character e of row t."""
    return [tuple([int(t[e::pairs][::-1], 2) for e in range(pairs)]) for t in texts]


def _wrap(child: tuple[str, int], bar: int) -> str:
    text, prec = child
    return text if prec >= bar else f"({text})"


def _render_binary(shape: type, left: tuple[str, int], right: tuple[str, int]) -> tuple[str, int]:
    prec = shape._prec
    # an equal-strength child needs parentheses on the side the
    # connective does not associate to: the left one for '->'
    right_assoc = shape is Implies
    left_text = _wrap(left, prec + right_assoc)
    right_text = _wrap(right, prec + (not right_assoc))
    return f"{left_text} {shape._symbol} {right_text}", prec


# Text paired with the binding strength of its outermost connective.
_TEXT = {
    Const: (("F", _ATOM_PREC), ("T", _ATOM_PREC)),
    Not: lambda child: (Not._symbol + _wrap(child, Not._prec), Not._prec),
    **{shape: functools.partial(_render_binary, shape) for shape in _BINARIES},
}


# The record repr of a tree, e.g. Not(child=Var(name='p')).
_REPR = {
    Const: ("Const(value=False)", "Const(value=True)"),
    Not: "Not(child={})".format,
    **{shape: f"{shape.__name__}(left={{}}, right={{}})".format for shape in _BINARIES},
}


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
            arity = CONNECTIVE_ARITY[kind._connective]
            stack[-arity:] = [{"kind": kind._connective.value, "children": stack[-arity:]}]
    return stack[0]


def free_variables(f: Formula) -> tuple[str, ...]:
    """Variable names occurring in f, sorted, without duplicates."""
    return _variables(_compile(f))


class _Assignment(_Record):
    n: int
    values: Mapping[str, Subset | Partition]

    def __post_init__(self) -> None:
        _check_n(self.n)
        values = dict(self.values)
        object.__setattr__(self, "values", values)
        for name, value in values.items():
            if value.n != self.n:
                raise UniverseMismatchError(
                    f"value for {name!r} lives on n={value.n}, expected {self.n}"
                )


class SubsetAssignment(_Assignment):
    """Maps variable names to subsets of a shared universe."""


class PartitionAssignment(_Assignment):
    """Maps variable names to partitions of a shared universe."""


def eval_subset(f: Formula, assignment: SubsetAssignment) -> Subset:
    """Evaluate under subset semantics; the result is a subset of the
    assignment's universe."""
    n = assignment.n
    env = {name: (sum(1 << u for u in s.members),) for name, s in assignment.values.items()}
    (mask,) = _evaluate(_compile(f), _partition_algebra(2, n), env)
    return Subset(n, frozenset(u for u in range(n) if mask >> u & 1))


def eval_partition(f: Formula, assignment: PartitionAssignment) -> Partition:
    """Evaluate under partition semantics via lifted connectives."""
    if assignment.n < 2:
        raise UniverseTooSmallError(
            f"partition semantics needs n >= 2, got n={assignment.n}"
        )
    n, pairs = assignment.n, assignment.n * (assignment.n - 1) // 2
    texts = [_pair_text(_dit_mask(p.assignment), pairs) for p in assignment.values.values()]
    env = dict(zip(assignment.values, _pair_columns(texts, pairs)))
    value = _evaluate(_compile(f), _partition_algebra(n, 1), env)
    return Partition(n, _blocks_of(n, sum(bit << e for e, bit in enumerate(value))))


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
    shape = rng.choice(_BINARIES)
    return shape(
        random_formula(rng, variables, max_depth - 1),
        random_formula(rng, variables, max_depth - 1),
    )
