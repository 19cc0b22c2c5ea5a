"""Independent brute-force reference implementations.

Everything here favors obviousness over speed and stays off the
library's code paths: closure by fixpoint saturation, enumeration by
recursive block insertion, covering pairs by scanning for strictly
intermediate elements or by merging two blocks and looking the result
up by value, orbits of pairs of partitions by applying every
permutation of the universe, a distinction-set evaluator that composes
raw set operations with the fixpoint interior at every node, and recursive
two-valued and frozenset evaluators with the truth-table, subset and
partition scans built on them, the block of switch settings by a
per-switch scan of every variant, a comparison's agreement as a test
on the sets of its final states, the selectionist run with one
weight per variant, and the formula lexer as a character loop. The
three verdict scans also come in a bottom-up form for many formulas at
once, which builds each subformula's values from its children's over
every assignment of a universe, with the same evaluators.

One reference does use the library: the scalar partition scan, which
evaluates the library's value tuples one at a time on distinction
masks, as the library did before its bit-sliced scan; it checks the
slicing, not the orbit reduction or the lift.
"""
from __future__ import annotations

import functools
import itertools
import operator

from ditkit import formulas, validity
from ditkit.errors import FormulaSyntaxError
from ditkit.formulas import And, Const, Iff, Implies, Not, Or, Var
from ditkit.mechanisms import Trace, TraceStep, generative_block, selection_survivors
from ditkit.partitions import _BOOLEAN, Partition, _blocks_of, _dit_mask

Pair = tuple[int, int]


def all_pairs(n: int) -> frozenset[Pair]:
    return frozenset((u, v) for u in range(n) for v in range(n))


def closure_fixpoint(n: int, pairs: frozenset[Pair]) -> frozenset[Pair]:
    """Reflexive-symmetric-transitive closure by naive saturation."""
    rel = set(pairs) | {(u, u) for u in range(n)}
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            if (b, a) not in rel:
                rel.add((b, a))
                changed = True
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return frozenset(rel)


def interior_fixpoint(n: int, pairs: frozenset[Pair]) -> frozenset[Pair]:
    return all_pairs(n) - closure_fixpoint(n, all_pairs(n) - pairs)


Blocks = frozenset[frozenset[int]]


def enumerate_blockwise(n: int) -> list[Blocks]:
    """Every partition of {0..n-1} as a set of blocks, by recursive
    insertion of each element into existing or fresh blocks."""
    partitions: list[list[list[int]]] = [[[0]]]
    for u in range(1, n):
        extended = []
        for blocks in partitions:
            for i in range(len(blocks)):
                extended.append(
                    [block + [u] if j == i else list(block) for j, block in enumerate(blocks)]
                )
            extended.append([list(block) for block in blocks] + [[u]])
        partitions = extended
    return [frozenset(frozenset(block) for block in blocks) for blocks in partitions]


def dit_pairs(n: int, blocks: Blocks) -> frozenset[Pair]:
    owner = {}
    for block in blocks:
        for u in block:
            owner[u] = block
    return frozenset((u, v) for u in range(n) for v in range(n) if owner[u] is not owner[v])


def leq_partition(n: int, x: Blocks, y: Blocks) -> bool:
    """x below y in refinement order: y distinguishes everything x does."""
    return dit_pairs(n, x) <= dit_pairs(n, y)


def cover_edges_bruteforce(nodes: list, leq) -> list[tuple[int, int]]:
    """Covering pairs by scanning for strictly intermediate elements."""
    edges = []
    for ix, x in enumerate(nodes):
        for iy, y in enumerate(nodes):
            if ix == iy or not leq(x, y) or leq(y, x):
                continue
            between = any(
                iz not in (ix, iy) and leq(x, z) and leq(z, y) and not leq(z, x) and not leq(y, z)
                for iz, z in enumerate(nodes)
            )
            if not between:
                edges.append((ix, iy))
    return sorted(edges)


def rgs_lex(n: int) -> list[tuple[int, ...]]:
    """Restricted-growth sequences of length n in lexicographic order,
    each prefix extended by every digit it allows."""
    out = [(0,)]
    for _ in range(1, n):
        out = [a + (d,) for a in out for d in range(max(a) + 2)]
    return out


def lattice_by_merging(n: int) -> tuple[list[tuple[int, ...]], list[tuple[int, int]]]:
    """The partition lattice as restricted-growth nodes in lexicographic
    order, and its cover edges as sorted pairs of node positions: y
    covers x exactly when x is y with blocks bi < bj merged, so bj's
    elements join bi and the blocks after bj move down one label; each
    merged sequence is looked up by value."""
    nodes = rgs_lex(n)
    index = {a: i for i, a in enumerate(nodes)}
    edges = [
        (index[tuple(bi if a == bj else a - (a > bj) for a in y)], iy)
        for iy, y in enumerate(nodes)
        for bi in range(max(y) + 1)
        for bj in range(bi + 1, max(y) + 1)
    ]
    return nodes, sorted(edges)


def orbit_least_pairs(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The least pair of each orbit of pairs of partitions under all n!
    relabellings of {0..n-1}, in product order of rgs_lex(n): a pair
    is kept when no pair before it reaches it by some permutation."""
    def relabelled(x: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
        first: dict[int, int] = {}
        return tuple(first.setdefault(x[v], len(first)) for v in perm)

    perms = list(itertools.permutations(range(n)))
    least, reached = [], set()
    for pair in itertools.product(rgs_lex(n), repeat=2):
        if pair not in reached:
            least.append(pair)
            reached.update((relabelled(pair[0], p), relabelled(pair[1], p)) for p in perms)
    return least


def eval_ditwise(
    f, n: int, env_dits: dict[str, frozenset[Pair]], interior=interior_fixpoint
) -> frozenset[Pair]:
    """Evaluate a formula straight on distinction sets: the Boolean set
    operation at each node, followed by the interior, by default the
    fixpoint one; interior(n, pairs) may be swapped for a faster route."""
    full = all_pairs(n)
    if isinstance(f, Var):
        return env_dits[f.name]
    if isinstance(f, Const):
        raw = (full - {(u, u) for u in range(n)}) if f.value else frozenset()
        return interior(n, raw)
    if isinstance(f, Not):
        return interior(n, full - eval_ditwise(f.child, n, env_dits, interior))
    left = eval_ditwise(f.left, n, env_dits, interior)
    right = eval_ditwise(f.right, n, env_dits, interior)
    if isinstance(f, And):
        raw = left & right
    elif isinstance(f, Or):
        raw = left | right
    elif isinstance(f, Implies):
        raw = (full - left) | right
    elif isinstance(f, Iff):
        raw = (left & right) | ((full - left) & (full - right))
    else:
        raise TypeError(f"unknown node {f!r}")
    return interior(n, raw)


def eval_bool(f, env: dict[str, bool]) -> bool:
    """Two-valued evaluation by structural recursion, short-circuiting."""
    if isinstance(f, Var):
        return env[f.name]
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Not):
        return not eval_bool(f.child, env)
    if isinstance(f, And):
        return eval_bool(f.left, env) and eval_bool(f.right, env)
    if isinstance(f, Or):
        return eval_bool(f.left, env) or eval_bool(f.right, env)
    if isinstance(f, Implies):
        return not eval_bool(f.left, env) or eval_bool(f.right, env)
    if isinstance(f, Iff):
        return eval_bool(f.left, env) == eval_bool(f.right, env)
    raise TypeError(f"unknown node {f!r}")


def eval_members(f, n: int, env: dict[str, frozenset[int]]) -> frozenset[int]:
    """Subset evaluation on frozensets of elements, by structural recursion."""
    full = frozenset(range(n))
    if isinstance(f, Var):
        return env[f.name]
    if isinstance(f, Const):
        return full if f.value else frozenset()
    if isinstance(f, Not):
        return full - eval_members(f.child, n, env)
    left = eval_members(f.left, n, env)
    right = eval_members(f.right, n, env)
    if isinstance(f, And):
        return left & right
    if isinstance(f, Or):
        return left | right
    if isinstance(f, Implies):
        return (full - left) | right
    if isinstance(f, Iff):
        return full - (left ^ right)
    raise TypeError(f"unknown node {f!r}")


def _variables(f) -> list[str]:
    if isinstance(f, Var):
        return [f.name]
    if isinstance(f, Const):
        return []
    if isinstance(f, Not):
        return _variables(f.child)
    return _variables(f.left) + _variables(f.right)


def _members_text(members) -> str:
    return "{" + ",".join(str(u) for u in sorted(members)) + "}"


def truth_verdict_json(f) -> dict:
    """The truth-table verdict as Verdict.to_json_dict gives it: rows in
    itertools.product order over the sorted variables, False first."""
    names = sorted(set(_variables(f)))
    for row in itertools.product((False, True), repeat=len(names)):
        env = dict(zip(names, row))
        if not eval_bool(f, env):
            cx = {"n": 1, "assignment": env, "value": False}
            return {"valid": False, "n_checked": [1, 1], "counterexample": cx}
    return {"valid": True, "n_checked": [1, 1], "counterexample": None}


def subset_verdict_json(f, n_max: int) -> dict:
    """The subset verdict by a frozenset scan: universes 1..n_max, each
    variable over all subsets built by growing from the empty set, tried
    in ascending bitmask order."""
    names = sorted(set(_variables(f)))
    for n in range(1, n_max + 1):
        pool = [frozenset()]
        for u in range(n):
            pool += [members | {u} for members in pool]  # ascending bitmask order
        for combo in itertools.product(pool, repeat=len(names)):
            env = dict(zip(names, combo))
            value = eval_members(f, n, env)
            if len(value) != n:
                cx = {
                    "n": n,
                    "assignment": {name: _members_text(m) for name, m in env.items()},
                    "value": _members_text(value),
                }
                return {"valid": False, "n_checked": [1, n], "counterexample": cx}
    return {"valid": True, "n_checked": [1, n_max], "counterexample": None}


def _blocks_text(n: int, dits: frozenset[Pair]) -> str:
    """Blocks of the partition with these distinctions, each listed from
    its least element, in order of least element."""
    blocks, seen = [], set()
    for u in range(n):
        if u not in seen:
            block = [v for v in range(n) if (u, v) not in dits]
            seen.update(block)
            blocks.append(",".join(map(str, block)))
    return "|".join(blocks)


def partition_verdict_json(f, n_max: int) -> dict:
    """The partition verdict by a distinction-set scan: universes 2..n_max,
    each variable over the digit strings that obey the growth rule (start
    at 0, never more than one past the largest digit so far), tried in
    itertools.product order, evaluated by eval_ditwise."""
    names = sorted(set(_variables(f)))
    for n in range(2, n_max + 1):
        pool = [
            digits
            for digits in itertools.product(range(n), repeat=n)
            if all(d <= max(digits[:i], default=-1) + 1 for i, d in enumerate(digits))
        ]
        dits = {
            digits: frozenset((u, v) for u, v in all_pairs(n) if digits[u] != digits[v])
            for digits in pool
        }
        top = dits[tuple(range(n))]
        for combo in itertools.product(pool, repeat=len(names)):
            env = {name: dits[digits] for name, digits in zip(names, combo)}
            value = eval_ditwise(f, n, env)
            if value != top:
                cx = {
                    "n": n,
                    "assignment": {name: _blocks_text(n, dits) for name, dits in env.items()},
                    "value": _blocks_text(n, value),
                }
                return {"valid": False, "n_checked": [2, n], "counterexample": cx}
    return {"valid": True, "n_checked": [2, n_max], "counterexample": None}


def _scalar_partition_algebra(n: int) -> dict:
    """Partitions of n points as distinction masks, one assignment at a
    time: _BOOLEAN on the operands' masks, then the interior as
    _dit_mask(_blocks_of(...)), with no memo."""
    full = (1 << n * (n - 1) // 2) - 1

    def lift(op):
        return lambda *masks: _dit_mask(_blocks_of(n, op(full, *masks)))

    lifted = {shape: lift(_BOOLEAN[shape._connective]) for shape in (Not, And, Or, Implies, Iff)}
    return {Const: (0, full), **lifted}


def scalar_partition_scan(f, n_max: int) -> tuple[dict, int]:
    """The verdict dict of partition_tautology(f, n_max) and its
    assignments_checked, by evaluating the value tuples of
    validity._orbit_representatives one at a time, in order."""
    program = formulas._compile(f)
    names = formulas._variables(program)
    checked = 0
    for n in range(2, n_max + 1):
        algebra, pool = _scalar_partition_algebra(n), rgs_lex(n)
        for combo in validity._orbit_representatives(pool, len(names)):
            checked += 1
            env = {name: _dit_mask(x) for name, x in zip(names, combo)}
            value = formulas._evaluate(program, algebra, env)
            if value != algebra[Const][True]:
                assignment = {name: str(Partition(n, x)) for name, x in zip(names, combo)}
                value = str(Partition(n, _blocks_of(n, value)))
                cx = {"n": n, "assignment": assignment, "value": value}
                return {"valid": False, "n_checked": [2, n], "counterexample": cx}, checked
    return {"valid": True, "n_checked": [2, n_max], "counterexample": None}, checked


_A, _B = Var("a"), Var("b")


def _verdicts_bottom_up(formulas, first: int, n_max: int, universe) -> list[dict]:
    """The verdict dicts of a scan over universes first..n_max, for many
    formulas at once. universe(n) gives the pool of values a variable
    takes on universe n, in scan order; the evaluator of a formula over
    such values; the value that passes; and the text of a value.

    On each universe, the assignments give every variable of every
    formula a value, in itertools.product order over the sorted names.
    A formula's first failing one there, restricted to its own variables,
    is the first failing one of its own scan. Each distinct subformula's
    values over those assignments are computed once, as positions in the
    pool, from its children's values and one table per connective, which
    the evaluator fills from a formula over Var("a") and Var("b")."""
    names = sorted({name for f in formulas for name in _variables(f)})
    verdicts: list[dict | None] = [None] * len(formulas)
    for n in range(first, n_max + 1):
        pending = [i for i, verdict in enumerate(verdicts) if verdict is None]
        if not pending:
            break
        pool, evaluate, top, text = universe(n)
        position = {value: i for i, value in enumerate(pool)}
        rows = list(itertools.product(range(len(pool)), repeat=len(names)))

        def table(node, i, j=0):
            return position[evaluate(node, {"a": pool[i], "b": pool[j]})]

        indices = range(len(pool))
        negation = [table(Not(_A), i) for i in indices]
        binary = {
            shape: [[table(shape(_A, _B), i, j) for j in indices] for i in indices]
            for shape in (And, Or, Implies, Iff)
        }
        memo: dict = {}

        def values(f) -> list[int]:
            if f not in memo:
                if isinstance(f, Var):
                    k = names.index(f.name)
                    memo[f] = [row[k] for row in rows]
                elif isinstance(f, Const):
                    memo[f] = [position[evaluate(f, {})]] * len(rows)
                elif isinstance(f, Not):
                    memo[f] = [negation[i] for i in values(f.child)]
                else:
                    op = binary[type(f)]
                    memo[f] = [op[i][j] for i, j in zip(values(f.left), values(f.right))]
            return memo[f]

        passing = position[top]
        for i in pending:
            f = formulas[i]
            row = next((r for r, v in enumerate(values(f)) if v != passing), None)
            if row is not None:
                own = sorted(set(_variables(f)))
                assignment = {name: text(pool[rows[row][names.index(name)]]) for name in own}
                cx = {"n": n, "assignment": assignment, "value": text(pool[values(f)[row]])}
                verdicts[i] = {"valid": False, "n_checked": [first, n], "counterexample": cx}
    return [
        verdict or {"valid": True, "n_checked": [first, n_max], "counterexample": None}
        for verdict in verdicts
    ]


def truth_verdicts_json(formulas) -> list[dict]:
    """truth_verdict_json of each formula, computed bottom-up."""
    return _verdicts_bottom_up(formulas, 1, 1, lambda n: ((False, True), eval_bool, True, bool))


def subset_verdicts_json(formulas, n_max: int) -> list[dict]:
    """subset_verdict_json(f, n_max) of each formula, computed bottom-up
    over the same pool and frozenset evaluator."""

    def universe(n: int):
        pool = [frozenset()]
        for u in range(n):
            pool += [members | {u} for members in pool]  # ascending bitmask order

        def evaluate(f, env):
            return eval_members(f, n, env)

        return pool, evaluate, frozenset(range(n)), _members_text

    return _verdicts_bottom_up(formulas, 1, n_max, universe)


def partition_verdicts_json(formulas, n_max: int) -> list[dict]:
    """partition_verdict_json(f, n_max) of each formula, computed
    bottom-up over the same pool and distinction-set evaluator."""

    def universe(n: int):
        pool = [
            frozenset((u, v) for u, v in all_pairs(n) if digits[u] != digits[v])
            for digits in itertools.product(range(n), repeat=n)
            if all(d <= max(digits[:i], default=-1) + 1 for i, d in enumerate(digits))
        ]

        def evaluate(f, env):
            return eval_ditwise(f, n, env)

        top = all_pairs(n) - {(u, u) for u in range(n)}
        return pool, evaluate, top, functools.partial(_blocks_text, n)

    return _verdicts_bottom_up(formulas, 2, n_max, universe)


def switch_block(k: int, settings: dict[int, int]) -> frozenset[int]:
    """Variants of the 2**k whose digit b_i is settings[i] for every set
    switch i, tested one variant and one switch at a time."""
    block = []
    for v in range(2**k):
        for i, value in settings.items():
            if (v >> (i - 1)) & 1 != value:
                break
        else:
            block.append(v)
    return frozenset(block)


def comparison_agrees(result) -> bool:
    """A comparison's agreement as a set test on both final states: the
    selectionist survivors and the generative block are each the target
    alone."""
    target = frozenset({result.target})
    return selection_survivors(result.selectionist) == generative_block(result.generative) == target


def selection_trace(k: int, fitness, extinction_threshold: float, max_steps: int) -> Trace:
    """The selectionist run with a weight for every variant, updated,
    culled and snapshotted one variant at a time. Each total adds the
    weights left to right, as sum() did before Python 3.12 compensated it."""
    size = 2**k
    labels = [format(v, f"0{k}b") for v in range(size)]
    weights = [1.0 / size] * size
    extinct: set[int] = set()
    argmax = fitness.argmax_set()

    def snapshot() -> dict:
        return {
            "weights": dict(zip(labels, weights)),
            "extinct": [labels[v] for v in sorted(extinct)],
        }

    steps = [TraceStep(0, None, snapshot())]
    t = 0
    while len(extinct) + len(argmax) < size and t < max_steps:
        t += 1
        weights = [w * s for w, s in zip(weights, fitness.scores)]
        total = functools.reduce(operator.add, weights)
        weights = [w / total for w in weights]
        # extinct weights stay 0.0, so below holds them and any new ones
        below = {v for v, w in enumerate(weights) if w < extinction_threshold}
        if below != extinct:
            extinct = below
            weights = [0.0 if v in extinct else w for v, w in enumerate(weights)]
            total = functools.reduce(operator.add, weights)
            weights = [w / total for w in weights]
        steps.append(TraceStep(t, {"kind": "amplify"}, snapshot()))
    return Trace("selectionist", k, tuple(steps))


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """The lexer as a character loop: (kind, lexeme, position) tokens,
    then ("END", "", len(text)), or FormulaSyntaxError at the first
    character that starts no token."""
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
