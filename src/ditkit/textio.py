"""Text exchange formats.

Partition text: blocks joined with '|', elements with ',' ("0,1|2"),
or the explicit restricted-growth form "rgs:0,0,1". Subset text:
"{0,2}"; braces are optional on input and the empty subset is "{}".
Variant text: k binary digits b_k..b_1 ("010"), switch k first.
Optional element names replace the integers at this layer only; the
library itself always works on 0..n-1.

JSON: the one writer of traces, comparisons, verdicts and CLI error
lines, streaming the bytes of json.dumps(x, sort_keys=True) in chunks.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator

from .errors import TextFormatError
from .relations import Subset, _subset_text

TYPE_CHECKING = False
if TYPE_CHECKING:  # for annotations; only the partition formats import it
    from .partitions import Partition


def parse_names(text: str) -> tuple[str, ...]:
    """Parse a comma-separated element name list; names must be
    identifier-like and unique."""
    names = tuple(tok.strip() for tok in text.split(","))
    for name in names:
        if not (name.isascii() and name.isidentifier()):
            raise TextFormatError(f"bad element name {name!r}")
    if len(set(names)) != len(names):
        raise TextFormatError("element names must be unique")
    return names


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
    from .partitions import _check_operands, _partition_text

    _check_operands(p)
    _check_names(names, p.n)
    return _partition_text(p, names)


def parse_partition(
    text: str, n: int, names: tuple[str, ...] | None = None
) -> Partition:
    from .partitions import Partition, partition_from_blocks

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
    return _subset_text(s, names)


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


def _json_chunks(obj) -> Iterator[str]:
    """Yield the text of json.dumps(obj, sort_keys=True) in pieces.

    Lists, and dicts whose keys are all str, are walked, and their str,
    int, float, bool and None items are written as json's encoder writes
    them. A list of strings that need no escapes is joined in pieces of
    at most _PIECE strings. A value whose type defines _chunks() writes
    itself, as a selectionist snapshot's weights do from its run's
    pieces, compact or filled into a read-only dict. Anything else (a
    dict with a key that is not a str, an instance of another subclass)
    goes to json.dumps whole. The walk keeps only the ids of the
    containers on its path, as json's markers do, so a cycle raises
    json's ValueError. It holds no chunk once it is yielded: a value
    that appears twice is written twice."""
    return _walk(obj, set())


def _to_json(self) -> str:
    """json.dumps(self.to_json_dict(), sort_keys=True), joined from its chunks."""
    return "".join(_json_chunks(self.to_json_dict()))


def _float_text(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


# the ASCII characters that json's encoder escapes: the controls, '"', '\\' and DEL
_ESCAPED = bytes(range(0x20)) + b'"\\\x7f'


def _unescaped(s: str, quotes: int = 0) -> bool:
    """Whether s is ASCII and, of the characters json's encoder escapes,
    holds `quotes` double quotes and nothing else. One bytes translate
    over the text, about three times faster than str.isprintable()."""
    return s.isascii() and len(s.encode().translate(None, _ESCAPED)) == len(s) - quotes


def _str_text(s: str) -> str:
    """s as json's encoder writes it: in quotes as it is when json
    escapes nothing in it, else through _json's encoder, which is
    imported on first use."""
    if _unescaped(s):
        return '"' + s + '"'
    from _json import encode_basestring_ascii

    return encode_basestring_ascii(s)


# a leaf's text by exact type, as json's encoder writes it
_LEAVES = {
    str: _str_text,
    int: int.__repr__,
    float: _float_text,
    bool: ("false", "true").__getitem__,
    type(None): lambda _: "null",
}


def _walk(obj, path: set[int]) -> Iterator[str]:
    """_json_chunks(obj) inside a walk: path holds the ids of the
    containers being walked."""
    kind = type(obj)
    if kind in _LEAVES:
        yield _LEAVES[kind](obj)
    elif kind is list:
        chunks = _label_chunks(obj) if obj and type(obj[0]) is str else None
        yield from chunks or _members(obj, "[", zip(_separators(), obj), "]", path)
    elif kind is dict and set(map(type, obj)) <= {str}:
        keys = sorted(obj)
        prefixes = map("{}{}: ".format, _separators(), map(_str_text, keys))
        yield from _members(obj, "{", zip(prefixes, map(obj.__getitem__, keys)), "}", path)
    else:  # a value that writes itself, or else json.dumps writes it
        yield from obj._chunks() if hasattr(kind, "_chunks") else (_encode(obj),)


def _separators() -> Iterator[str]:
    return itertools.chain(("",), itertools.repeat(", "))


def _members(
    container, opening: str, items: Iterable[tuple[str, object]], closing: str, path: set[int]
) -> Iterator[str]:
    """The text of a walked list or dict: opening, each value after its
    prefix, then closing."""
    if id(container) in path:
        raise ValueError("Circular reference detected")
    path.add(id(container))
    yield opening
    for prefix, value in items:
        yield prefix
        yield from _walk(value, path)
    path.remove(id(container))
    yield closing


_PIECE = 256  # labels per piece, so that no chunk of labels passes about 10 KB


def _label_chunks(items: list) -> list[str] | None:
    """The text of a list of strings in chunks, each of at most _PIECE
    items joined by '", "'; None if an item is not a str or needs an
    escape. A chunk of m items needs none when it is ASCII and json
    escapes nothing in it but the 2 * (m - 1) quotes of its separators."""
    # each piece but the last ends in "", so that the chunks write the items in turn
    pieces = [items[a:a + _PIECE] + [""] for a in range(0, len(items), _PIECE)]
    pieces[-1].pop()
    try:
        chunks = list(map('", "'.join, pieces))
    except TypeError:  # an item that is not a str
        return None
    for chunk, piece in zip(chunks, pieces):
        if not _unescaped(chunk, 2 * (len(piece) - 1)):
            return None
    return ['["', *chunks, '"]']


def _encode(obj) -> str:
    """json.dumps(obj, sort_keys=True); json is imported on first use,
    so a document that needs no fallback never loads it."""
    import json

    return json.dumps(obj, sort_keys=True)
