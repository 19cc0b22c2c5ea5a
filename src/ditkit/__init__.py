"""Finite-universe toolkit for the dual logics of subsets and
partitions, plus executable universal-to-particular mechanism models.

Every name below is loaded on first use (PEP 562), so importing the
package, or one of its modules, loads only what is asked for.
"""

_EXPORTS = {
    "errors": (
        "AlreadySetError",
        "DitkitError",
        "ElementOutOfRangeError",
        "EmptyBlockError",
        "FormulaSyntaxError",
        "InvalidFitnessError",
        "InvalidThresholdError",
        "MissingElementError",
        "NonPositiveFitnessError",
        "NotEquivalenceError",
        "OverlappingBlocksError",
        "ResourceLimitError",
        "SwitchIndexError",
        "TextFormatError",
        "TooManyVariablesError",
        "UnbalancedParensError",
        "UnboundVariableError",
        "UniverseMismatchError",
        "UniverseTooSmallError",
        "UnknownConnectiveError",
    ),
    "formulas": (
        "And",
        "Const",
        "Formula",
        "Iff",
        "Implies",
        "Not",
        "Or",
        "PartitionAssignment",
        "SubsetAssignment",
        "Var",
        "eval_partition",
        "eval_subset",
        "format_formula",
        "formula_to_json",
        "free_variables",
        "parse",
        "random_formula",
    ),
    "limits": ("DEFAULT_LIMITS", "Limits"),
    "mechanisms": (
        "Fitness",
        "MechanismComparison",
        "Scheme",
        "SchemeRelation",
        "SwitchBank",
        "SwitchState",
        "Trace",
        "TraceStep",
        "VariantSpace",
        "compare_mechanisms",
        "consistent_block",
        "create",
        "dual",
        "generative_block",
        "identify",
        "opposite",
        "replay",
        "run_generative",
        "run_selectionist",
        "scheme_relations",
        "selection_survivors",
        "set_switch",
        "switch_partition",
        "twenty_questions",
    ),
    "partitions": (
        "Connective",
        "Partition",
        "bell_number",
        "discrete",
        "dit",
        "enumerate_partitions",
        "hasse_cover_edges",
        "indiscrete",
        "indit",
        "join",
        "join_via_ditsets",
        "lift_connective",
        "meet",
        "meet_via_interior",
        "partition_from_blocks",
        "partition_from_equivalence",
        "refines",
        "refines_via_ditsets",
        "subset_lattice_nodes",
    ),
    "relations": ("PairRelation", "Subset", "interior", "rst_closure"),
    "textio": (),
    "validity": (
        "Counterexample",
        "Verdict",
        "partition_tautology",
        "subset_valid",
        "truth_table_tautology",
    ),
}
# Each public name and the module that defines it; a module is its own source.
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SOURCE.update((module, module) for module in _EXPORTS)

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    source = _SOURCE.get(name)
    if source is None:
        # so that `from ditkit import cli` goes on to import the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{source}")
    value = module if source == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
