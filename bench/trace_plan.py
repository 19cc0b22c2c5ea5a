"""The traced run's measurements: inputs, expected results, metrics.

Every measurement takes its inputs from the seed's workload inputs, or
from the seed's library formulas (inputs.library_formulas) for the
in-process calls no workload makes, and runs in its own interpreter
(layers.py). Expected results come from the reference, so a traced run
also checks what it times.
"""
from __future__ import annotations

import itertools

import checks
import inputs
import reference as ref

CONNECTIVES = ("not", "and", "or", "implies", "iff")

# metric -> unit. A metric's value is the summed duration of its spans
# over their summed work, in the unit.
METRICS = {
    "validity.partition_tautology.us_per_assignment": "us",
    "validity.subset_valid.us_per_assignment": "us",
    "validity.truth_table_tautology.us_per_row": "us",
    "formulas.parse.us_per_formula": "us",
    "formulas.eval_partition.us_per_call": "us",
    "formulas.eval_subset.us_per_call": "us",
    **{f"partitions.lift_connective.{c}.us_per_call": "us" for c in CONNECTIVES},
    "partitions.lift_connective.implies.repeat_us_per_call": "us",
    "partitions.dit.us_per_call": "us",
    "partitions.join.us_per_call": "us",
    "partitions.meet.us_per_call": "us",
    "relations.interior.us_per_call": "us",
    "partitions.Partition.us_per_call": "us",
    "partitions.enumerate_partitions.us_per_partition": "us",
    "partitions.hasse_cover_edges.us_per_edge": "us",
    "textio.format_partition.us_per_call": "us",
    "cli.main.s_per_call": "s",
    "mechanisms.run_selectionist.us_per_step": "us",
    "mechanisms.run_generative.us_per_event": "us",
    "mechanisms.compare_mechanisms.s_per_call": "s",
}
SCALE = {"us": 1e6, "s": 1.0}
VERDICTS = "validity.verdicts"

TAUT_FORMULAS = 2  # full partition scans timed per traced run
LIBRARY_FORMULAS = 200
SAMPLE = 20  # results compared with the reference per measurement
UNIVERSE_N = inputs.TAUT_MAX_N  # taut-cli's largest universe
LIBRARY_N = inputs.LIBRARY_MAX_N


def _dit_count(p) -> int:
    return len(p) ** 2 - ref.indistinct_pairs(p)


def plan(seed: int, seconds: int) -> list[dict]:
    """Specs for layers.py, each with the result it must give."""
    taut = [ref.text(op["formula"]) for op in inputs.operations("taut-cli", seed, seconds)]
    library = inputs.library_formulas(seed, LIBRARY_FORMULAS)
    texts = [ref.text(f) for f in library]
    targets = [op["target"] for op in inputs.operations("mechanisms-cli", seed, seconds)][:3]
    pool = ref.partitions(UNIVERSE_N)
    pairs = list(itertools.product(pool, repeat=2))[:SAMPLE]
    lattice = ref.partitions(inputs.LATTICE_N)
    two_var = taut[:TAUT_FORMULAS]
    subset_full = sum(
        ref.eval_subset(f, LIBRARY_N, dict(zip(("p", "q", "r"), combo))) == (1 << LIBRARY_N) - 1
        for f in library[:SAMPLE]
        for combo in itertools.product(range(1 << LIBRARY_N), repeat=3)
    )
    k = inputs.COMPARE_K
    mechanism = {"k": k, "targets": targets, "margin": float(inputs.COMPARE_MARGIN)}
    specs = [
        ("validity.partition_tautology.us_per_assignment",
         {"formulas": two_var, "max_n": UNIVERSE_N, "budget": inputs.TAUT_BUDGET,
          "work": [ref.partition_assignments(UNIVERSE_N, 2)] * len(two_var)},
         [True] * len(two_var)),
        ("validity.subset_valid.us_per_assignment",
         {"formulas": texts, "max_n": LIBRARY_N,
          "work": [ref.subset_scan(f, LIBRARY_N)[0] for f in library]},
         [ref.subset_scan(f, LIBRARY_N)[1] is None for f in library]),
        ("validity.truth_table_tautology.us_per_row",
         {"formulas": texts, "work": [ref.truth_scan(f)[0] for f in library]},
         [ref.truth_scan(f)[1] is None for f in library]),
        ("formulas.parse.us_per_formula", {"formulas": texts, "repeats": 5}, len(texts)),
        ("formulas.eval_partition.us_per_call", {"formulas": taut[:4], "n": 4}, 0),
        ("formulas.eval_subset.us_per_call", {"formulas": texts[:SAMPLE], "n": LIBRARY_N}, subset_full),
        *[
            (f"partitions.lift_connective.{c}.us_per_call", {"n": UNIVERSE_N, "sample": SAMPLE},
             [list(ref.lift(c, ops, UNIVERSE_N))
              for ops in itertools.product(pool, repeat=1 if c == "not" else 2)][:SAMPLE])
            for c in CONNECTIVES
        ],
        ("partitions.lift_connective.implies.repeat_us_per_call",
         {"n": LIBRARY_N, "sample": SAMPLE, "repeats": 200},
         [list(ref.lift("implies", ops, LIBRARY_N))
          for ops in itertools.product(ref.partitions(LIBRARY_N), repeat=2)][:SAMPLE]),
        ("partitions.dit.us_per_call", {"n": UNIVERSE_N, "repeats": 20},
         sum(_dit_count(p) for p in pool)),
        ("partitions.join.us_per_call", {"n": UNIVERSE_N, "sample": SAMPLE},
         [list(ref.join(p, q)) for p, q in pairs]),
        ("partitions.meet.us_per_call", {"n": UNIVERSE_N, "sample": SAMPLE},
         [list(ref.meet(p, q)) for p, q in pairs]),
        ("relations.interior.us_per_call", {"n": UNIVERSE_N, "sample": SAMPLE},
         [_dit_count(ref.meet(p, q)) for p, q in pairs]),
        ("partitions.Partition.us_per_call",
         {"n": inputs.LATTICE_N, "rgs": lattice, "repeats": 3}, len(lattice)),
        ("partitions.enumerate_partitions.us_per_partition",
         {"n": inputs.LATTICE_N, "repeats": 3}, len(lattice)),
        ("partitions.hasse_cover_edges.us_per_edge",
         {"n": inputs.LATTICE_N, "edges": ref.partition_lattice_counts(inputs.LATTICE_N)[1]},
         ref.partition_lattice_counts(inputs.LATTICE_N)[1]),
        ("textio.format_partition.us_per_call", {"n": inputs.LATTICE_N, "sample": SAMPLE},
         [ref.partition_text(p) for p in lattice[:SAMPLE]]),
        ("cli.main.s_per_call",
         {"argv": [["lattice", "--kind", "partition", "--n", str(inputs.LATTICE_N), style]
                   for style in ("--json", "--dot")]},
         [0, 0]),
        ("mechanisms.run_selectionist.us_per_step", {**mechanism, "max_steps": 1000},
         [[t] for t in targets]),
        ("mechanisms.run_generative.us_per_event", mechanism, [[t] for t in targets]),
        ("mechanisms.compare_mechanisms.s_per_call", mechanism, [True] * len(targets)),
        # Not a metric: the library formulas' verdicts in all three
        # logics, counterexamples included, for checks.verdicts.
        (VERDICTS, {"formulas": texts, "max_n": LIBRARY_N, "trees": library}, None),
    ]
    return [dict(spec, measure=name, expect=expect) for name, spec, expect in specs]


def check(spec: dict, result) -> list[str]:
    if spec["measure"] == VERDICTS:
        problems = []
        for formula, line in zip(spec["trees"], result):
            problems += checks.verdicts(formula, line, spec["max_n"])
        if len(result) != len(spec["trees"]):
            problems.append(f"{VERDICTS}: {len(result)} of {len(spec['trees'])} verdicts")
        return problems
    if result != spec["expect"]:
        return [f"{spec['measure']}: result {str(result)[:200]} != {str(spec['expect'])[:200]}"]
    return []


def metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    busy: dict[str, float] = {}
    work: dict[str, int] = {}
    for name, start, end, _parent, units in spans:
        if name in METRICS:
            busy[name] = busy.get(name, 0.0) + end - start
            work[name] = work.get(name, 0) + units
    return {
        name: (busy[name] / work[name] * SCALE[METRICS[name]], METRICS[name])
        for name in METRICS
        if work.get(name)
    }
