"""Independent brute-force reference implementations.

Everything here favors obviousness over speed and stays off the
library's code paths: closure by fixpoint saturation, enumeration by
recursive block insertion, covering pairs by scanning for strictly
intermediate elements, a distinction-set evaluator that composes raw
set operations with the fixpoint interior at every node, and recursive
two-valued and frozenset evaluators with the truth-table, subset and
partition scans built on them.
"""
from __future__ import annotations

import itertools

from ditkit.formulas import And, Const, Iff, Implies, Not, Or, Var

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


def eval_ditwise(f, n: int, env_dits: dict[str, frozenset[Pair]]) -> frozenset[Pair]:
    """Evaluate a formula straight on distinction sets: the Boolean set
    operation at each node, followed by the fixpoint interior."""
    full = all_pairs(n)
    if isinstance(f, Var):
        return env_dits[f.name]
    if isinstance(f, Const):
        raw = (full - {(u, u) for u in range(n)}) if f.value else frozenset()
        return interior_fixpoint(n, raw)
    if isinstance(f, Not):
        return interior_fixpoint(n, full - eval_ditwise(f.child, n, env_dits))
    left = eval_ditwise(f.left, n, env_dits)
    right = eval_ditwise(f.right, n, env_dits)
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
    return interior_fixpoint(n, raw)


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
