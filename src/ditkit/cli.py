"""Command-line front end.

Exit codes: 0 success (or formula valid), 1 formula invalid with a
counterexample printed, 2 usage or parse problem, 3 evaluation or
domain problem, or stdout closed by its reader, 4 size or budget cap
exceeded. Errors go to stderr as one JSON line
{"error": ..., "message": ...}.

Each handler imports the modules its subcommand needs, so a call loads
no other: taut never loads mechanisms, compare and sim never load
formulas or validity, and lattice loads partitions alone.
"""
from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import sys
from collections.abc import Iterable, Iterator

from .errors import (
    DitkitError,
    FormulaSyntaxError,
    ResourceLimitError,
    TextFormatError,
    TooManyVariablesError,
)
from .limits import DEFAULT_LIMITS, Limits

_USAGE_ERRORS = (FormulaSyntaxError, TextFormatError, ValueError)
_RESOURCE_ERRORS = (ResourceLimitError, TooManyVariablesError)

_LIMIT_FLAGS = Limits._fields

_BLOCK = io.DEFAULT_BUFFER_SIZE  # buffered stdout writes blocks of this size too


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
    except DitkitError as exc:
        return _fail(3, exc)
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull so the flush at
        # interpreter exit does not fail again; exit 1 means "invalid".
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 3


def _fail(code: int, exc: Exception) -> int:
    line = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(line, sort_keys=True), file=sys.stderr)
    return code


def _load_limits(args: argparse.Namespace) -> Limits:
    settings: dict[str, int] = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise TextFormatError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise TextFormatError(f"bad JSON in config: {exc}") from None
        if not isinstance(data, dict):
            raise TextFormatError("config must be a JSON object of limit settings")
        settings.update(data)
    limits = Limits.from_mapping(settings) if settings else DEFAULT_LIMITS
    overrides = {
        name: getattr(args, name)
        for name in _LIMIT_FLAGS
        if getattr(args, name, None) is not None
    }
    return limits.replaced(**overrides) if overrides else limits


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ditkit",
        description="Dual subset/partition logic and mechanism simulation "
        "on finite universes.",
    )
    parser.add_argument("--config", metavar="FILE", help="JSON file of limit settings")
    for name in _LIMIT_FLAGS:
        parser.add_argument(
            f"--{name.replace('_', '-')}",
            type=int,
            default=None,
            help=f"override the {name} limit",
        )
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("eval", help="evaluate a formula under an assignment")
    cmd.add_argument("formula")
    cmd.add_argument("--logic", choices=("subset", "partition"), required=True)
    cmd.add_argument("--n", type=int, required=True, help="universe size")
    cmd.add_argument(
        "--assign",
        action="append",
        default=[],
        metavar="VAR=VALUE",
        help="variable assignment; repeatable",
    )
    cmd.add_argument("--names", help="comma-separated element names")
    cmd.set_defaults(handler=cmd_eval)

    cmd = commands.add_parser("taut", help="check validity, exit 1 with counterexample")
    cmd.add_argument("formula")
    cmd.add_argument("--logic", choices=("truth", "subset", "partition"), required=True)
    cmd.add_argument("--max-n", type=int, default=None, help="largest universe to scan")
    cmd.add_argument("--json", action="store_true", help="emit the verdict as JSON")
    cmd.set_defaults(handler=cmd_taut)

    cmd = commands.add_parser("lattice", help="nodes and cover edges of a lattice")
    cmd.add_argument("--kind", choices=("subset", "partition"), required=True)
    cmd.add_argument("--n", type=int, required=True)
    style = cmd.add_mutually_exclusive_group()
    style.add_argument("--json", action="store_true", help="JSON output (default)")
    style.add_argument("--dot", action="store_true", help="Graphviz DOT output")
    cmd.set_defaults(handler=cmd_lattice)

    sim = commands.add_parser("sim", help="run a mechanism and emit its trace")
    scenarios = sim.add_subparsers(dest="scenario", required=True)

    cmd = scenarios.add_parser("select", help="selectionist amplification")
    cmd.add_argument("--k", type=int, required=True)
    cmd.add_argument(
        "--fitness",
        required=True,
        help="peak@BITS for peaked fitness, otherwise a 'variant score' file",
    )
    cmd.add_argument("--margin", type=float, default=1.0, help="peak margin")
    cmd.add_argument("--threshold", type=float, default=None)
    cmd.add_argument("--max-steps", type=int, default=1000)
    cmd.set_defaults(handler=cmd_sim_select)

    cmd = scenarios.add_parser("generate", help="switch-setting experience")
    cmd.add_argument("--k", type=int, required=True)
    cmd.add_argument("--events", default="", help='e.g. "1=0,2=1,3=0"')
    cmd.add_argument("--overwrite", action="store_true", help="allow resetting switches")
    cmd.set_defaults(handler=cmd_sim_generate)

    cmd = scenarios.add_parser("identify", help="glue elements into blocks")
    cmd.add_argument("--n", type=int, required=True)
    cmd.add_argument("--pairs", default="", help='e.g. "0-1,1-2"')
    cmd.add_argument("--names", help="comma-separated element names")
    cmd.set_defaults(handler=cmd_sim_identify)

    cmd = scenarios.add_parser("create", help="build a subset element by element")
    cmd.add_argument("--n", type=int, required=True)
    cmd.add_argument("--elements", default="", help='e.g. "2,0"')
    cmd.set_defaults(handler=cmd_sim_create)

    cmd = scenarios.add_parser("twentyq", help="follow designated blocks down the tree")
    cmd.add_argument("--k", type=int, required=True)
    cmd.add_argument("--answers", default="", help='e.g. "0,1,0"')
    cmd.set_defaults(handler=cmd_sim_twentyq)

    cmd = commands.add_parser(
        "compare", help="selectionist vs generative runs at one target"
    )
    cmd.add_argument("--k", type=int, required=True)
    cmd.add_argument("--target", required=True, help="target variant bitstring")
    cmd.add_argument("--margin", type=float, default=1.0)
    cmd.add_argument("--threshold", type=float, default=None)
    cmd.add_argument("--max-steps", type=int, default=None)
    cmd.set_defaults(handler=cmd_compare)

    return parser


def _split_assignment(item: str) -> tuple[str, str]:
    name, separator, value = item.partition("=")
    name = name.strip()
    if not separator or not name:
        raise TextFormatError(f"bad --assign {item!r}, expected VAR=VALUE")
    return name, value


def _parse_name_table(args: argparse.Namespace) -> tuple[str, ...] | None:
    from .textio import parse_names

    names = getattr(args, "names", None)
    return parse_names(names) if names else None


def _check_relation_n(n: int, limits: Limits) -> None:
    if n > limits.max_relation_n:
        raise ResourceLimitError(f"n={n} exceeds the relation cap {limits.max_relation_n}")


def cmd_eval(args: argparse.Namespace, limits: Limits) -> int:
    from .formulas import (
        PartitionAssignment,
        SubsetAssignment,
        eval_partition,
        eval_subset,
        parse,
    )
    from .textio import format_partition, format_subset, parse_partition, parse_subset

    _check_relation_n(args.n, limits)
    names = _parse_name_table(args)
    formula = parse(args.formula)
    bindings = dict(_split_assignment(item) for item in args.assign)
    if args.logic == "subset":
        values = {
            var: parse_subset(text, args.n, names) for var, text in bindings.items()
        }
        result = eval_subset(formula, SubsetAssignment(args.n, values))
        print(format_subset(result, names))
    else:
        values = {
            var: parse_partition(text, args.n, names) for var, text in bindings.items()
        }
        result = eval_partition(formula, PartitionAssignment(args.n, values))
        print(format_partition(result, names))
    return 0


def _render_taut_value(value) -> str:
    from .validity import _render_value

    if isinstance(value, bool):
        return "1" if value else "0"
    return _render_value(value)


def cmd_taut(args: argparse.Namespace, limits: Limits) -> int:
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


def cmd_lattice(args: argparse.Namespace, limits: Limits) -> int:
    """Stream the lattice to stdout a node at a time. The bytes are
    those of json.dumps(payload, sort_keys=True), whose first key is
    "edges", or of the DOT listing with one line per node and edge."""
    from .partitions import _lattice

    labels, covers = _lattice(args.kind, args.n, limits)
    if args.dot:
        _emit(_dot_chunks(labels, covers))
    else:
        _emit(_lattice_json_chunks(args.kind, args.n, labels, covers))
    return 0


def _dot_chunks(labels: list[str], covers: Iterator[list[int]]) -> Iterator[str]:
    yield "digraph lattice {\n  rankdir=BT;\n"
    for i, text in enumerate(labels):
        yield f'  n{i} [label="{text}"];\n'
    for x, ys in enumerate(covers):
        if ys:
            yield f"  n{x} -> n" + f";\n  n{x} -> n".join(map(str, ys)) + ";\n"
    yield "}\n"


def _lattice_json_chunks(
    kind: str, n: int, labels: list[str], covers: Iterator[list[int]]
) -> Iterator[str]:
    yield '{"edges": ['
    separator = ""
    for x, ys in enumerate(covers):
        if ys:
            yield f"{separator}[{x}, " + f"], [{x}, ".join(map(str, ys)) + "]"
            separator = ", "
    tail = {"kind": kind, "n": n, "nodes": labels}
    yield "], " + json.dumps(tail, sort_keys=True)[1:] + "\n"


def _emit(chunks: Iterable[str]) -> None:
    """Write chunks to stdout in blocks of at least _BLOCK characters, so
    that a write-through stdout (python -u, PYTHONUNBUFFERED) makes one
    system call per block, not one per chunk. A chunk of a block or more
    is written as it is, after the batch pending before it, so it is
    never copied; the batch stays under two blocks."""
    write = sys.stdout.write
    pending: list[str] = []
    size = 0
    for chunk in chunks:
        if len(chunk) >= _BLOCK:
            if pending:
                write("".join(pending))
                pending, size = [], 0
            write(chunk)
        else:
            pending.append(chunk)
            size += len(chunk)
            if size >= _BLOCK:
                write("".join(pending))
                pending, size = [], 0
    if pending:
        write("".join(pending))


def _write_json(document: dict) -> None:
    """Stream a trace or comparison to stdout, with the bytes of
    print(json.dumps(document, sort_keys=True))."""
    from .mechanisms import _json_chunks

    _emit(itertools.chain(_json_chunks(document), ("\n",)))


def cmd_sim_select(args: argparse.Namespace, limits: Limits) -> int:
    from .mechanisms import Fitness, _check_switch_bits, run_selectionist
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
        except OSError as exc:
            raise TextFormatError(f"cannot read fitness file: {exc}") from None
    threshold = args.threshold if args.threshold is not None else 0.5 / 2**args.k
    trace = run_selectionist(args.k, fitness, threshold, args.max_steps, limits)
    _write_json(trace.to_json_dict())
    return 0


def cmd_sim_generate(args: argparse.Namespace, limits: Limits) -> int:
    from .mechanisms import _check_switch_bits, run_generative
    from .textio import parse_events

    _check_switch_bits(args.k, limits)
    events = parse_events(args.events)
    trace = run_generative(args.k, events, overwrite=args.overwrite)
    _write_json(trace.to_json_dict())
    return 0


def cmd_sim_identify(args: argparse.Namespace, limits: Limits) -> int:
    from .mechanisms import identify
    from .textio import format_partition, parse_pair_list

    _check_relation_n(args.n, limits)
    names = _parse_name_table(args)
    partition = identify(args.n, parse_pair_list(args.pairs))
    print(format_partition(partition, names))
    return 0


def cmd_sim_create(args: argparse.Namespace, limits: Limits) -> int:
    from .mechanisms import create
    from .textio import parse_int_list

    trace = create(args.n, parse_int_list(args.elements))
    _write_json(trace.to_json_dict())
    return 0


def cmd_sim_twentyq(args: argparse.Namespace, limits: Limits) -> int:
    from .mechanisms import _check_switch_bits, twenty_questions
    from .textio import format_variant, parse_answers

    _check_switch_bits(args.k, limits)
    block = twenty_questions(args.k, parse_answers(args.answers))
    rendered = sorted(format_variant(v, args.k) for v in block)
    print(json.dumps({"k": args.k, "block": rendered}, sort_keys=True))
    return 0


def cmd_compare(args: argparse.Namespace, limits: Limits) -> int:
    from .mechanisms import _check_switch_bits, compare_mechanisms
    from .textio import parse_variant

    _check_switch_bits(args.k, limits)
    target = parse_variant(args.target, args.k)
    result = compare_mechanisms(
        args.k,
        target,
        args.margin,
        extinction_threshold=args.threshold,
        max_steps=args.max_steps,
        limits=limits,
    )
    _write_json(result.to_json_dict())
    return 0


if __name__ == "__main__":
    sys.exit(main())
