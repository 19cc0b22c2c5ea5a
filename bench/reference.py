"""Reference semantics for checking ditkit's answers, written apart from it.

Nothing here imports ditkit. Formulas are nested tuples:

    ("var", name)  ("const", bool)  ("not", a)  (op, a, b)

with op one of "and", "or", "implies", "iff". A subset of {0..n-1} is
an int bitmask. A partition is a restricted-growth tuple (element u
holds the index of its block, blocks numbered by first appearance).

A partition connective is computed on pairs, straight from its
definition: the Boolean rule decides for each ordered pair (u, v)
whether the result distinguishes it, and the interior of that pair set
is the partition whose blocks are the connected components of the pairs
left undistinguished.

Scans use ditkit's documented enumeration order (variables sorted by
name, itertools.product over the value pool, subsets by ascending
bitmask, partitions in lexicographic restricted-growth order), so the
first failure found here is the minimal counterexample ditkit must
report.
"""
from __future__ import annotations

import itertools
from math import comb

BINARY = ("and", "or", "implies", "iff")
SYMBOL = {"and": "&", "or": "|", "implies": "->", "iff": "<->"}

# Whether the result distinguishes a pair, given whether each operand does.
RULE = {
    "not": lambda a: not a,
    "and": lambda a, b: a and b,
    "or": lambda a, b: a or b,
    "implies": lambda a, b: (not a) or b,
    "iff": lambda a, b: a == b,
}


def variables(f) -> tuple[str, ...]:
    names: set[str] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if node[0] == "var":
            names.add(node[1])
        elif node[0] != "const":
            stack.extend(node[1:])
    return tuple(sorted(names))


def text(f, top: bool = True) -> str:
    """ditkit's concrete syntax, every binary subterm parenthesised."""
    kind = f[0]
    if kind == "var":
        return f[1]
    if kind == "const":
        return "T" if f[1] else "F"
    if kind == "not":
        return "~" + text(f[1], top=False)
    body = f"{text(f[1], top=False)} {SYMBOL[kind]} {text(f[2], top=False)}"
    return body if top else f"({body})"


def connectives(f) -> int:
    if f[0] in ("var", "const"):
        return 0
    return 1 + sum(connectives(child) for child in f[1:])


# ---------------------------------------------------------------- truth


def eval_truth(f, env: dict[str, bool]) -> bool:
    kind = f[0]
    if kind == "var":
        return env[f[1]]
    if kind == "const":
        return f[1]
    if kind == "not":
        return not eval_truth(f[1], env)
    return RULE[kind](eval_truth(f[1], env), eval_truth(f[2], env))


def truth_scan(f):
    """(checked, first falsifying row or None) over all rows."""
    names = variables(f)
    for checked, row in enumerate(itertools.product((False, True), repeat=len(names)), 1):
        env = dict(zip(names, row))
        if not eval_truth(f, env):
            return checked, env
    return 2 ** len(names), None


# --------------------------------------------------------------- subset


def eval_subset(f, n: int, env: dict[str, int]) -> int:
    full = (1 << n) - 1
    kind = f[0]
    if kind == "var":
        return env[f[1]]
    if kind == "const":
        return full if f[1] else 0
    if kind == "not":
        return full & ~eval_subset(f[1], n, env)
    a = eval_subset(f[1], n, env)
    b = eval_subset(f[2], n, env)
    if kind == "and":
        return a & b
    if kind == "or":
        return a | b
    if kind == "implies":
        return (full & ~a) | b
    return full & ~(a ^ b)


def subset_scan(f, n_max: int):
    """(checked, None) if valid on n = 1..n_max, else
    (checked, (n, {var: mask}, value mask)) at the first failure."""
    names = variables(f)
    checked = 0
    for n in range(1, n_max + 1):
        full = (1 << n) - 1
        for combo in itertools.product(range(1 << n), repeat=len(names)):
            checked += 1
            env = dict(zip(names, combo))
            value = eval_subset(f, n, env)
            if value != full:
                return checked, (n, env, value)
    return checked, None


def subset_text(mask: int) -> str:
    """ditkit's subset text, e.g. {0,2}."""
    return "{" + ",".join(str(u) for u in range(mask.bit_length()) if mask >> u & 1) + "}"


# ------------------------------------------------------------ partition


def partitions(n: int) -> list[tuple[int, ...]]:
    """Every restricted-growth sequence of length n, lexicographically."""
    out: list[tuple[int, ...]] = []

    def grow(prefix: list[int], peak: int) -> None:
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for digit in range(peak + 2):
            grow(prefix + [digit], max(peak, digit))

    grow([0], 0)
    return out


def components(n: int, joined) -> tuple[int, ...]:
    """Restricted-growth labels of the components of the graph on
    {0..n-1} whose edges are the pairs (u, v) with joined(u, v)."""
    label = [-1] * n
    count = 0
    for start in range(n):
        if label[start] >= 0:
            continue
        label[start] = count
        stack = [start]
        while stack:
            u = stack.pop()
            for v in range(n):
                if label[v] < 0 and (joined(u, v) or joined(v, u)):
                    label[v] = count
                    stack.append(v)
        count += 1
    return tuple(label)


def lift(conn: str, ops: tuple[tuple[int, ...], ...], n: int) -> tuple[int, ...]:
    """A connective on partitions: the rule on each pair's distinctions,
    then the interior of the distinguished pairs."""
    if conn == "top":
        return tuple(range(n))
    if conn == "bottom":
        return (0,) * n
    rule = RULE[conn]
    return components(n, lambda u, v: not rule(*(p[u] != p[v] for p in ops)))


def join(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Least upper bound in refinement order: blocks are the nonempty
    intersections of a block of p with a block of q."""
    labels: dict[tuple[int, int], int] = {}
    return tuple(labels.setdefault(pair, len(labels)) for pair in zip(p, q))


def meet(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Greatest lower bound: components of "shares a block in p or in q"."""
    return components(len(p), lambda u, v: p[u] == p[v] or q[u] == q[v])


def eval_partition(f, n: int, env: dict[str, tuple[int, ...]], memo: dict):
    """f's value at n; memo keeps lifts already computed at n."""
    kind = f[0]
    if kind == "var":
        return env[f[1]]
    if kind == "const":
        return lift("top" if f[1] else "bottom", (), n)
    ops = tuple(eval_partition(child, n, env, memo) for child in f[1:])
    key = (kind, ops)
    if key not in memo:
        memo[key] = lift(kind, ops, n)
    return memo[key]


def partition_scan(f, n_max: int):
    """(checked, None) if f is discrete under every assignment on
    n = 2..n_max, else (checked, (n, {var: rgs}, value)) at the first
    failure."""
    names = variables(f)
    checked = 0
    for n in range(2, n_max + 1):
        top = tuple(range(n))
        memo: dict = {}
        for combo in itertools.product(partitions(n), repeat=len(names)):
            checked += 1
            env = dict(zip(names, combo))
            value = eval_partition(f, n, env, memo)
            if value != top:
                return checked, (n, env, value)
    return checked, None


def indistinct_pairs(rgs: tuple[int, ...]) -> int:
    """Ordered pairs (u, v), u = v included, that share a block."""
    return sum(rgs.count(b) ** 2 for b in set(rgs))


def partition_text(rgs: tuple[int, ...]) -> str:
    """ditkit's partition text: blocks by first element, e.g. 0,2|1."""
    blocks: dict[int, list[int]] = {}
    for u, b in enumerate(rgs):
        blocks.setdefault(b, []).append(u)
    return "|".join(",".join(map(str, block)) for block in blocks.values())


def parse_partition_text(body: str) -> frozenset[frozenset[int]]:
    return frozenset(frozenset(int(u) for u in block.split(",")) for block in body.split("|"))


# -------------------------------------------------------------- lattice


def bell(n: int) -> int:
    return sum(stirling2(n, k) for k in range(n + 1))


def stirling2(n: int, k: int) -> int:
    """Partitions of an n-set into exactly k blocks."""
    row = [1] + [0] * k  # S(0, j)
    for m in range(1, n + 1):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def partition_lattice_counts(n: int) -> tuple[int, int]:
    """(nodes, cover edges) of the partition lattice on n elements: a
    partition with k blocks is covered once per pair of blocks merged."""
    edges = sum(stirling2(n, k) * comb(k, 2) for k in range(n + 1))
    return bell(n), edges


def partition_assignments(n_max: int, arity: int) -> int:
    """Assignments a full partition scan of n = 2..n_max evaluates."""
    return sum(bell(n) ** arity for n in range(2, n_max + 1))
