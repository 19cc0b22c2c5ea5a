"""Text exchange formats.

Partition text: blocks joined with '|', elements with ',' ("0,1|2"),
or the explicit restricted-growth form "rgs:0,0,1". Subset text:
"{0,2}"; braces are optional on input and the empty subset is "{}".
Variant text: k binary digits b_k..b_1 ("010"), switch k first.
Optional element names replace the integers at this layer only; the
library itself always works on 0..n-1.
"""
from __future__ import annotations

import re
from collections.abc import Iterator

from .errors import TextFormatError
from .partitions import Partition, partition_from_blocks
from .relations import Subset

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def parse_names(text: str) -> tuple[str, ...]:
    """Parse a comma-separated element name list; names must be
    identifier-like and unique."""
    names = tuple(tok.strip() for tok in text.split(","))
    for name in names:
        if not _NAME_RE.match(name):
            raise TextFormatError(f"bad element name {name!r}")
    if len(set(names)) != len(names):
        raise TextFormatError("element names must be unique")
    return names


def _render_element(u: int, names: tuple[str, ...] | None) -> str:
    return names[u] if names is not None else str(u)


def _parse_element(token: str, n: int, names: tuple[str, ...] | None) -> int:
    token = token.strip()
    if not token:
        raise TextFormatError("empty element token")
    if names is not None:
        try:
            return names.index(token)
        except ValueError:
            raise TextFormatError(f"unknown element name {token!r}") from None
    try:
        return int(token)
    except ValueError:
        raise TextFormatError(f"element {token!r} is not an integer") from None


def _check_names(names: tuple[str, ...] | None, n: int) -> None:
    if names is not None and len(names) != n:
        raise TextFormatError(f"{len(names)} names given for universe of size {n}")


def format_partition(p: Partition, names: tuple[str, ...] | None = None) -> str:
    _check_names(names, p.n)
    return "|".join(
        ",".join(_render_element(u, names) for u in block) for block in p.blocks()
    )


def parse_partition(
    text: str, n: int, names: tuple[str, ...] | None = None
) -> Partition:
    _check_names(names, n)
    body = text.strip()
    if not body:
        raise TextFormatError("empty partition text")
    if body.startswith("rgs:"):
        tokens = body[4:].split(",")
        try:
            digits = tuple(int(tok.strip()) for tok in tokens)
        except ValueError:
            raise TextFormatError(f"bad rgs digits in {text!r}") from None
        if len(digits) != n:
            raise TextFormatError(f"rgs length {len(digits)} != n={n}")
        try:
            return Partition(n, digits)
        except ValueError as exc:
            raise TextFormatError(str(exc)) from None
    blocks = [
        [_parse_element(tok, n, names) for tok in chunk.split(",")]
        for chunk in body.split("|")
    ]
    return partition_from_blocks(n, blocks)


def format_subset(s: Subset, names: tuple[str, ...] | None = None) -> str:
    _check_names(names, s.n)
    return "{" + ",".join(_render_element(u, names) for u in s) + "}"


def parse_subset(text: str, n: int, names: tuple[str, ...] | None = None) -> Subset:
    _check_names(names, n)
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1].strip()
    if not body:
        return Subset.empty(n)
    members = [_parse_element(tok, n, names) for tok in body.split(",")]
    return Subset.of(n, members)


def _int_pairs(text: str, noun: str, sep: str, shape: str) -> Iterator[tuple[int, int]]:
    """The items of a comma list of integer pairs a<sep>b, in order.
    Lazily, so a caller's check on one item runs before the next is read:
    the first bad item decides the error."""
    body = text.strip()
    if not body:
        return
    for item in body.split(","):
        halves = item.split(sep)
        if len(halves) != 2:
            raise TextFormatError(f"bad {noun} {item!r}, expected {shape!r}")
        try:
            pair = int(halves[0]), int(halves[1])
        except ValueError:
            raise TextFormatError(f"bad {noun} {item!r}, expected integers") from None
        yield pair


def parse_pair_list(text: str) -> list[tuple[int, int]]:
    """Parse "0-1,1-2" into [(0, 1), (1, 2)]."""
    return list(_int_pairs(text, "pair", "-", "u-v"))


def parse_int_list(text: str) -> list[int]:
    body = text.strip()
    if not body:
        return []
    try:
        return [int(tok.strip()) for tok in body.split(",")]
    except ValueError:
        raise TextFormatError(f"bad integer list {text!r}") from None


def parse_answers(text: str) -> list[int]:
    """Parse "0,1,0" into designated sides, each 0 or 1."""
    answers = parse_int_list(text)
    for a in answers:
        if a not in (0, 1):
            raise TextFormatError(f"answers must be 0 or 1, got {a}")
    return answers


def parse_events(text: str) -> list[tuple[int, int]]:
    """Parse "1=0,2=1" into switch-setting events [(1, 0), (2, 1)]."""
    events = []
    for switch, value in _int_pairs(text, "event", "=", "switch=value"):
        if value not in (0, 1):
            raise TextFormatError(f"switch value must be 0 or 1, got {value}")
        events.append((switch, value))
    return events


def _variant_number(text: str, k: int, *, strip: bool, error: type[Exception]) -> int:
    """The variant text format: exactly k binary digits b_k..b_1, the
    first for switch k and the last for switch 1."""
    body = text.strip() if strip else text
    if len(body) != k or any(ch not in "01" for ch in body):
        raise error(f"variant must be {k} binary digits, got {text!r}")
    return int(body, 2)


def parse_variant(text: str, k: int) -> int:
    """Parse a k-digit bitstring b_k..b_1 into its variant number."""
    return _variant_number(text, k, strip=True, error=TextFormatError)


def format_variant(v: int, k: int) -> str:
    return format(v, f"0{k}b")
