"""Command-line front end.

Exit codes: 0 success (or formula valid), 1 formula invalid with a
counterexample printed, 2 usage or parse problem, 3 evaluation or
domain problem, or stdout closed by its reader, 4 size or budget cap
exceeded. Errors go to stderr as one JSON line
{"error": ..., "message": ...}.

The options are stated once, in _COMMANDS. _parse reads a plain call
from that table: top-level flags first, then the command word (and the
scenario word under sim), then that command's flags and positionals in
any order, every flag spelled in full and followed by its value. Any
other argv, -h among them, goes to the argparse parser that
build_parser makes from the same table, so argparse alone prints help
and usage errors, and a plain call never imports it.

Each handler imports the modules its subcommand needs, so a call loads
no other: taut never loads mechanisms, compare and sim load neither
formulas nor validity, nor partitions but for sim identify, and lattice
loads partitions alone. json only reads a config file: lattice writes
its JSON itself, without _json, and the rest goes through textio's JSON
writer (taut --json, sim, compare, error lines); taut prints a
counterexample with str(), without textio.

A CLI process ends one way. When main is the program, called at the top
level of __main__ with the process's own argv (the ditkit script,
python -m ditkit.cli, bench/cli_child.py), it registers _exit_now with
atexit once per process: it flushes stdout and stderr and ends the
process with os._exit and main's status, which such a program exits
with. That skips module teardown, the last collections and every
atexit hook registered before main. It steps aside for the
interpreter's own exit when an uncaught exception followed main, when
a trace function or a sys.monitoring tool is set (coverage saves its
data from atexit), or when a flush fails. Any other caller registers
nothing and keeps the interpreter's own exit. On Python 3.11.7 it took
bench/run.py's lattice-cli latency from 48.5 to 47.1 ms.
"""
from __future__ import annotations

import io
import itertools
import os
import sys
from collections.abc import Iterable, Iterator
from types import SimpleNamespace

from .errors import (
    DitkitError,
    FormulaSyntaxError,
    ResourceLimitError,
    TextFormatError,
    TooManyVariablesError,
)
from .limits import DEFAULT_LIMITS, Limits

TYPE_CHECKING = False
if TYPE_CHECKING:  # for annotations; a plain call never imports argparse
    import argparse

_USAGE_ERRORS = (FormulaSyntaxError, TextFormatError, ValueError)
_RESOURCE_ERRORS = (ResourceLimitError, TooManyVariablesError)

_LIMIT_FLAGS = Limits._fields

_BLOCK = io.DEFAULT_BUFFER_SIZE  # buffered stdout writes blocks of this size too

_exit_status = None  # main's last status as the program, once _exit_now is registered


def main(argv: list[str] | None = None) -> int:
    global _exit_status
    caller = sys._getframe(1)
    program = (
        (argv is None or argv == sys.argv[1:])
        and caller.f_code.co_name == "<module>"
        and caller.f_globals is getattr(sys.modules.get("__main__"), "__dict__", None)
    )
    code = _run(sys.argv[1:] if argv is None else argv)
    if program:
        if _exit_status is None:
            import atexit

            atexit.register(_exit_now)
        _exit_status = code
    return code


def _exit_now() -> None:
    """End the program with main's status, skipping module teardown, unless
    an uncaught exception, a tracer or a failing flush needs the
    interpreter's own exit."""
    monitoring = getattr(sys, "monitoring", None)  # 3.12 and later, tool ids 0-5
    if (
        getattr(sys, "last_exc", getattr(sys, "last_value", None)) is not None
        or sys.gettrace() is not None
        or monitoring and any(map(monitoring.get_tool, range(6)))
    ):
        return  # exit 1 after the traceback; a tracer (coverage) saves from atexit
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        return
    os._exit(_exit_status)


def _run(argv: list[str]) -> int:
    args = _parse(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv, SimpleNamespace())
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    try:
        limits = _load_limits(args)
        code = args.handler(args, limits)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except _RESOURCE_ERRORS as exc:
        return _fail(4, exc)
    except _USAGE_ERRORS as exc:
        return _fail(2, exc)
    except (DitkitError, ArithmeticError) as exc:  # an underflowing run divides by zero
        return _fail(3, exc)
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull so the flush at
        # interpreter exit does not fail again; exit 1 means "invalid".
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 3


def _fail(code: int, exc: Exception) -> int:
    from .textio import _json_chunks

    line = {"error": type(exc).__name__, "message": str(exc)}
    print("".join(_json_chunks(line)), file=sys.stderr)
    return code


def _load_limits(args: SimpleNamespace) -> Limits:
    limits = DEFAULT_LIMITS
    if args.config:
        import json

        try:
            with open(args.config, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, UnicodeError) as exc:
            raise TextFormatError(f"cannot read config: {exc}") from None
        except (json.JSONDecodeError, RecursionError) as exc:
            raise TextFormatError(f"bad JSON in config: {exc}") from None
        if not isinstance(data, dict):
            raise TextFormatError("config must be a JSON object of limit settings")
        limits = Limits.from_mapping(data)
    overrides = {
        name: getattr(args, name)
        for name in _LIMIT_FLAGS
        if getattr(args, name, None) is not None
    }
    return limits.replaced(**overrides) if overrides else limits


def build_parser() -> argparse.ArgumentParser:
    """The argparse form of _COMMANDS, each parser and argument added in
    table order, so its help and usage errors keep their bytes."""
    import argparse

    words = {}  # path -> the subparsers action that reads the word after it
    for path, (text, handler, arguments) in _COMMANDS.items():
        if path:
            parser = words[path[:-1]].add_parser(path[-1], help=text)
        else:
            parser = root = argparse.ArgumentParser(prog="ditkit", description=text)
        group = None
        for name, spec in arguments:
            if spec.get("exclusive"):
                group = group or parser.add_mutually_exclusive_group()
                group.add_argument(name, **{k: v for k, v in spec.items() if k != "exclusive"})
            else:
                parser.add_argument(name, **spec)
        if handler is not None:
            parser.set_defaults(handler=handler)
        if path in _WORD_DESTS:
            words[path] = parser.add_subparsers(dest=_WORD_DESTS[path], required=True)
    return root


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse makes of a plain call, or None for argv in
    any other form and for argv that argparse refuses. A flag's value is
    the next item, which may not start with "-"; a value is converted
    and checked as argparse does, by the flag's type and choices."""
    values: dict[str, object] = {}
    path: tuple[str, ...] = ()
    flags, positionals = _arguments(path, values)
    seen: set[str] = set()
    items = iter(argv)
    for item in items:
        if item in flags:
            seen.add(item)
            dest, spec = flags[item]
            if spec.get("action") == "store_true":
                values[dest] = True
                continue
            item = next(items, "-")  # a missing value is refused like a dash
        elif item.startswith("-"):
            return None
        elif path in _WORD_DESTS:
            if not _complete(flags, seen) or path + (item,) not in _COMMANDS:
                return None
            values[_WORD_DESTS[path]] = item
            path += (item,)
            flags, positionals = _arguments(path, values)
            seen = set()
            continue
        elif positionals:
            dest, spec = positionals.pop(0)
        else:
            return None
        if item.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(item)
        except ValueError:
            return None
        choices = spec.get("choices")
        if choices is not None and value not in choices:
            return None
        values[dest] = [*values[dest], value] if spec.get("action") == "append" else value
    if path in _WORD_DESTS or positionals or not _complete(flags, seen):
        return None
    values["handler"] = _COMMANDS[path][1]
    return SimpleNamespace(**values)


def _arguments(path: tuple[str, ...], values: dict[str, object]) -> tuple[dict, list]:
    """Set the defaults of the arguments of path in values, as argparse
    does; return its flags, each mapped to its dest and spec, and its
    positionals as (dest, spec) in order."""
    flags, positionals = {}, []
    for name, spec in _COMMANDS[path][2]:
        if name.startswith("-"):
            dest = name.lstrip("-").replace("-", "_")
            flags[name] = dest, spec
            switch = spec.get("action") == "store_true"
            values[dest] = spec.get("default", False if switch else None)
        else:
            positionals.append((name, spec))
            values[name] = None
    return flags, positionals


def _complete(flags: dict, seen: set[str]) -> bool:
    """Whether the flags seen include every required one and at most one
    of the mutually exclusive ones."""
    required = all(flag in seen for flag, (_, spec) in flags.items() if spec.get("required"))
    return required and sum(1 for flag in seen if flags[flag][1].get("exclusive")) <= 1


def _split_assignment(item: str) -> tuple[str, str]:
    name, separator, value = item.partition("=")
    name = name.strip()
    if not separator or not name:
        raise TextFormatError(f"bad --assign {item!r}, expected VAR=VALUE")
    return name, value


def _check_relation_n(n: int, limits: Limits) -> None:
    if n > limits.max_relation_n:
        raise ResourceLimitError(f"n={n} exceeds the relation cap {limits.max_relation_n}")


def cmd_eval(args: SimpleNamespace, limits: Limits) -> int:
    from .formulas import PartitionAssignment, SubsetAssignment, eval_partition, eval_subset, parse
    from .textio import format_partition, format_subset, parse_names, parse_partition, parse_subset

    read, assignment, evaluate, render = {
        "subset": (parse_subset, SubsetAssignment, eval_subset, format_subset),
        "partition": (parse_partition, PartitionAssignment, eval_partition, format_partition),
    }[args.logic]
    _check_relation_n(args.n, limits)
    names = parse_names(args.names) if args.names else None
    formula = parse(args.formula)
    bindings = dict(_split_assignment(item) for item in args.assign)
    values = {var: read(text, args.n, names) for var, text in bindings.items()}
    print(render(evaluate(formula, assignment(args.n, values)), names))
    return 0


def _render_taut_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def cmd_taut(args: SimpleNamespace, limits: Limits) -> int:
    from .formulas import parse
    from .validity import partition_tautology, subset_valid, truth_table_tautology

    formula = parse(args.formula)
    if args.logic == "truth":
        verdict = truth_table_tautology(formula, limits)
    elif args.logic == "subset":
        verdict = subset_valid(formula, 3 if args.max_n is None else args.max_n, limits)
    else:
        verdict = partition_tautology(formula, 4 if args.max_n is None else args.max_n, limits)
    if args.json:
        print(verdict.to_json())
    elif verdict.valid:
        low, high = verdict.universes_checked
        print("valid" if args.logic == "truth" else f"valid (n={low}..{high})")
    else:
        example = verdict.counterexample
        print(f"invalid (n={example.n})")
        for var in sorted(example.assignment):
            print(f"assign {var} = {_render_taut_value(example.assignment[var])}")
        print(f"value = {_render_taut_value(example.value)}")
    return 0 if verdict.valid else 1


def cmd_lattice(args: SimpleNamespace, limits: Limits) -> int:
    """Stream the lattice to stdout a node at a time. The bytes are
    those of json.dumps(payload, sort_keys=True), whose first key is
    "edges", or of the DOT listing with one line per node and edge."""
    from .partitions import _lattice

    count, labels, covers = _lattice(args.kind, args.n, limits)
    names = list(map(str, range(count)))  # each node's position as text
    rows = covers(names)  # each cover as its name
    if args.dot:
        chunks = _dot_chunks(names, labels, rows)
    else:
        chunks = _lattice_json_chunks(args.kind, args.n, names, labels, rows)
    # the writer alone holds them, so the level below goes with the last
    # row, the names with the writer's last use, and the label chain,
    # which holds one label a level, with the writer
    del covers, names, rows, labels
    _emit(chunks)
    return 0


_NODES = 256  # node lines or labels per chunk


def _dot_chunks(
    names: list[str], labels: Iterator[str], rows: Iterator[list[str]]
) -> Iterator[str]:
    yield "digraph lattice {\n  rankdir=BT;\n"
    for a in range(0, len(names), _NODES):
        # names first, so zip takes no label past the slice: it would be lost
        nodes = map(' [label="'.join, zip(names[a:a + _NODES], labels))
        yield '  n' + '"];\n  n'.join(nodes) + '"];\n'
    for ys, name in zip(rows, names):  # rows first, so zip runs the covers out
        if ys:
            edge = f"  n{name} -> n"
            yield edge + f";\n{edge}".join(ys) + ";\n"
    yield "}\n"


def _lattice_json_chunks(
    kind: str, n: int, names: list[str], labels: Iterator[str], rows: Iterator[list[str]]
) -> Iterator[str]:
    yield '{"edges": ['
    separator = ""
    for ys, name in zip(rows, names):  # rows first, so zip runs the covers out
        if ys:
            yield f"{separator}[{name}, " + f"], [{name}, ".join(ys) + "]"
            separator = ", "
    del names  # not held while the nodes are written
    # kind is a choices word and labels hold digits, ',', '|' and braces; json escapes none.
    # No label is empty, so a chunk is empty only once the labels have run out
    separator = f'], "kind": "{kind}", "n": {n}, "nodes": ["'
    for nodes in iter(lambda: '", "'.join(itertools.islice(labels, _NODES)), ""):
        yield separator + nodes
        separator = '", "'
    yield '"]}\n'


def _emit(chunks: Iterable[str]) -> None:
    """Write chunks to stdout in batches of at least _BLOCK characters,
    the last batch aside, so that a write-through stdout (python -u,
    PYTHONUNBUFFERED) makes one system call per batch, not one per
    chunk."""
    write = sys.stdout.write
    pending: list[str] = []
    size = 0
    for chunk in chunks:
        pending.append(chunk)
        size += len(chunk)
        if size >= _BLOCK:
            write("".join(pending))
            pending, size = [], 0
    if pending:
        write("".join(pending))


def _write_json(document: dict) -> None:
    """Stream a JSON document to stdout, with the bytes of
    print(json.dumps(document, sort_keys=True))."""
    from .textio import _json_chunks

    _emit(itertools.chain(_json_chunks(document), ("\n",)))


def cmd_sim_select(args: SimpleNamespace, limits: Limits) -> int:
    from .mechanisms import Fitness, _check_switch_bits, _selection
    from .textio import parse_variant

    _check_switch_bits(args.k, limits)
    source = args.fitness.strip()
    if source.startswith("peak@"):
        target = parse_variant(source[len("peak@"):], args.k)
        fitness = Fitness.peaked(args.k, target, args.margin)
    else:
        try:
            with open(source, encoding="utf-8") as handle:
                fitness = Fitness.from_text(args.k, handle.read())
        except (OSError, UnicodeError) as exc:
            raise TextFormatError(f"cannot read fitness file: {exc}") from None
    threshold = args.threshold if args.threshold is not None else 0.5 / 2**args.k
    trace = _selection(args.k, fitness, threshold, args.max_steps, limits)
    _write_json(trace.to_json_dict())  # each state is written from its compact form
    return 0


def cmd_sim_generate(args: SimpleNamespace, limits: Limits) -> int:
    from .mechanisms import _check_switch_bits, _generation
    from .textio import parse_events

    _check_switch_bits(args.k, limits)
    events = parse_events(args.events)
    trace = _generation(args.k, events, args.overwrite)
    _write_json(trace.to_json_dict())  # each block is written from its bank's settings
    return 0


def cmd_sim_identify(args: SimpleNamespace, limits: Limits) -> int:
    from .mechanisms import identify
    from .textio import format_partition, parse_names, parse_pair_list

    _check_relation_n(args.n, limits)
    names = parse_names(args.names) if args.names else None
    partition = identify(args.n, parse_pair_list(args.pairs))
    print(format_partition(partition, names))
    return 0


def cmd_sim_create(args: SimpleNamespace, limits: Limits) -> int:
    from .mechanisms import create
    from .textio import parse_int_list

    _check_relation_n(args.n, limits)
    trace = create(args.n, parse_int_list(args.elements))
    _write_json(trace.to_json_dict())
    return 0


def cmd_sim_twentyq(args: SimpleNamespace, limits: Limits) -> int:
    from .mechanisms import _check_switch_bits, twenty_questions
    from .textio import format_variant, parse_answers

    _check_switch_bits(args.k, limits)
    block = twenty_questions(args.k, parse_answers(args.answers))
    rendered = sorted(format_variant(v, args.k) for v in block)
    _write_json({"k": args.k, "block": rendered})
    return 0


def cmd_compare(args: SimpleNamespace, limits: Limits) -> int:
    from .mechanisms import _check_switch_bits, _comparison
    from .textio import parse_variant

    _check_switch_bits(args.k, limits)
    target = parse_variant(args.target, args.k)
    result = _comparison(args.k, target, args.margin, args.threshold, args.max_steps, limits)
    _write_json(result.to_json_dict())  # each state is written from its compact form
    return 0


# The CLI's arguments, stated once; build_parser and _parse both read
# them. Each command path maps to its help (the description, for the
# top level), its handler and its arguments in the order build_parser
# adds them. An argument is its name (a flag, or a positional without
# dashes) and the keyword arguments of add_argument, except "exclusive",
# which puts it in the path's one mutually exclusive group. A path in
# _WORD_DESTS has no handler: a word naming a path under it follows.
_K = ("--k", dict(type=int, required=True))
_N = ("--n", dict(type=int, required=True))
_NAMES = ("--names", dict(help="comma-separated element names"))

_COMMANDS: dict[tuple[str, ...], tuple] = {
    (): (
        "Dual subset/partition logic and mechanism simulation on finite universes.",
        None,
        (
            ("--config", dict(metavar="FILE", help="JSON file of limit settings")),
            *(
                (f"--{name.replace('_', '-')}",
                 dict(type=int, default=None, help=f"override the {name} limit"))
                for name in _LIMIT_FLAGS
            ),
        ),
    ),
    ("eval",): ("evaluate a formula under an assignment", cmd_eval, (
        ("formula", {}),
        ("--logic", dict(choices=("subset", "partition"), required=True)),
        ("--n", dict(type=int, required=True, help="universe size")),
        ("--assign", dict(action="append", default=[], metavar="VAR=VALUE",
                          help="variable assignment; repeatable")),
        _NAMES,
    )),
    ("taut",): ("check validity, exit 1 with counterexample", cmd_taut, (
        ("formula", {}),
        ("--logic", dict(choices=("truth", "subset", "partition"), required=True)),
        ("--max-n", dict(type=int, default=None, help="largest universe to scan")),
        ("--json", dict(action="store_true", help="emit the verdict as JSON")),
    )),
    ("lattice",): ("nodes and cover edges of a lattice", cmd_lattice, (
        ("--kind", dict(choices=("subset", "partition"), required=True)),
        _N,
        ("--json", dict(action="store_true", help="JSON output (default)", exclusive=True)),
        ("--dot", dict(action="store_true", help="Graphviz DOT output", exclusive=True)),
    )),
    ("sim",): ("run a mechanism and emit its trace", None, ()),
    ("sim", "select"): ("selectionist amplification", cmd_sim_select, (
        _K,
        ("--fitness", dict(
            required=True,
            help="peak@BITS for peaked fitness, otherwise a 'variant score' file",
        )),
        ("--margin", dict(type=float, default=1.0, help="peak margin")),
        ("--threshold", dict(type=float, default=None)),
        ("--max-steps", dict(type=int, default=1000)),
    )),
    ("sim", "generate"): ("switch-setting experience", cmd_sim_generate, (
        _K,
        ("--events", dict(default="", help='e.g. "1=0,2=1,3=0"')),
        ("--overwrite", dict(action="store_true", help="allow resetting switches")),
    )),
    ("sim", "identify"): ("glue elements into blocks", cmd_sim_identify, (
        _N,
        ("--pairs", dict(default="", help='e.g. "0-1,1-2"')),
        _NAMES,
    )),
    ("sim", "create"): ("build a subset element by element", cmd_sim_create, (
        _N,
        ("--elements", dict(default="", help='e.g. "2,0"')),
    )),
    ("sim", "twentyq"): ("follow designated blocks down the tree", cmd_sim_twentyq, (
        _K,
        ("--answers", dict(default="", help='e.g. "0,1,0"')),
    )),
    ("compare",): ("selectionist vs generative runs at one target", cmd_compare, (
        _K,
        ("--target", dict(required=True, help="target variant bitstring")),
        ("--margin", dict(type=float, default=1.0)),
        ("--threshold", dict(type=float, default=None)),
        ("--max-steps", dict(type=int, default=None)),
    )),
}
# the dest of the word that picks a path under each path that has them
_WORD_DESTS = {(): "command", ("sim",): "scenario"}


if __name__ == "__main__":
    sys.exit(main())
