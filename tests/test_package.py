"""The package's public surface: every name the package exported when
it imported all of its modules eagerly, now loaded on first use."""
import importlib
import inspect
import os
import pathlib
import re
import subprocess
import sys
import types

import pytest

import ditkit

# sorted(ditkit.__all__) before names were loaded lazily: 91 names from
# the modules plus the 8 modules themselves
_PUBLIC = [
    "AlreadySetError", "And", "Connective", "Const", "Counterexample", "DEFAULT_LIMITS",
    "DitkitError", "ElementOutOfRangeError", "EmptyBlockError", "Fitness", "Formula",
    "FormulaSyntaxError", "Iff", "Implies", "InvalidFitnessError", "InvalidThresholdError",
    "Limits", "MechanismComparison", "MissingElementError", "NonPositiveFitnessError", "Not",
    "NotEquivalenceError", "Or", "OverlappingBlocksError", "PairRelation", "Partition",
    "PartitionAssignment", "ResourceLimitError", "Scheme", "SchemeRelation", "Subset",
    "SubsetAssignment", "SwitchBank", "SwitchIndexError", "SwitchState", "TextFormatError",
    "TooManyVariablesError", "Trace", "TraceStep", "UnbalancedParensError",
    "UnboundVariableError", "UniverseMismatchError", "UniverseTooSmallError",
    "UnknownConnectiveError", "Var", "VariantSpace", "Verdict", "bell_number",
    "compare_mechanisms", "consistent_block", "create", "discrete", "dit", "dual",
    "enumerate_partitions", "errors", "eval_partition", "eval_subset", "format_formula",
    "formula_to_json", "formulas", "free_variables", "generative_block", "hasse_cover_edges",
    "identify", "indiscrete", "indit", "interior", "join", "join_via_ditsets",
    "lift_connective", "limits", "mechanisms", "meet", "meet_via_interior", "opposite",
    "parse", "partition_from_blocks", "partition_from_equivalence", "partition_tautology",
    "partitions", "random_formula", "refines", "refines_via_ditsets", "relations", "replay",
    "rst_closure", "run_generative", "run_selectionist", "scheme_relations",
    "selection_survivors", "set_switch", "subset_lattice_nodes", "subset_valid",
    "switch_partition", "textio", "truth_table_tautology", "twenty_questions", "validity",
]
_MODULES = {"errors", "formulas", "limits", "mechanisms", "partitions", "relations", "textio",
            "validity"}


def test_all_is_unchanged():
    assert len(_PUBLIC) == 99 and sorted(ditkit.__all__) == _PUBLIC == ditkit.__all__


@pytest.mark.parametrize("name", _PUBLIC)
def test_name_resolves_both_ways(name):
    namespace: dict = {}
    exec(f"from ditkit import {name}", namespace)
    value = getattr(ditkit, name)
    assert namespace[name] is value and name in dir(ditkit)
    if name in _MODULES:
        assert value is importlib.import_module(f"ditkit.{name}")
    else:
        assert value is getattr(importlib.import_module(value.__module__), name)
        assert value.__module__.startswith("ditkit.")


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="module 'ditkit' has no attribute 'no_such_name'"):
        ditkit.no_such_name
    with pytest.raises(ImportError):
        exec("from ditkit import no_such_name", {})


def test_fresh_import_is_lazy_and_complete():
    # in a fresh interpreter: dir() lists every name before any is loaded,
    # each resolves on first use, and `from ditkit import cli` still finds
    # the submodule, which is not a lazy name
    src = pathlib.Path(ditkit.__file__).parent.parent
    code = (
        "import sys, ditkit\n"
        "listed = set(ditkit.__all__) <= set(dir(ditkit))\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('ditkit.'))\n"
        "values = [getattr(ditkit, name) for name in ditkit.__all__]\n"
        "from ditkit import cli\n"
        "print(listed, loaded, len(values), cli.__name__)\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)), check=True,
    )
    assert child.stdout == "True [] 99 ditkit.cli\n"


# A parameter annotated with one of these types refuses a str.
_TYPED = re.compile(r"\b(Partition|Formula)\b")


def _typed_callables() -> dict[str, tuple]:
    """Each public function with a parameter annotated Partition or
    Formula, by module and name, with those parameters, each with its
    type and whether it is the type itself or a collection of it: the
    package's names, and the public functions of its modules."""
    found = {}
    for name in ditkit.__all__:
        value = getattr(ditkit, name)
        members = vars(value).items() if isinstance(value, types.ModuleType) else [(name, value)]
        for member, obj in members:
            if member.startswith("_") or not inspect.isfunction(obj):
                continue
            params = inspect.signature(obj).parameters.values()
            typed = {p.name: (m[1], m[0] == p.annotation)
                     for p in params if (m := _TYPED.search(str(p.annotation)))}
            if typed and obj.__module__.startswith("ditkit."):
                found[f"{obj.__module__[len('ditkit.'):]}.{obj.__name__}"] = (obj, typed)
    return found


def _rows() -> dict[str, dict]:
    """Valid arguments for each function of _typed_callables()."""
    from ditkit import Connective, Partition, PartitionAssignment, Subset, SubsetAssignment, parse

    p, f = Partition(2, (0, 1)), parse("p -> p")
    pair = {"p": p, "q": p}
    return {
        "partitions.dit": {"p": p},
        "partitions.indit": {"p": p},
        "partitions.join": pair,
        "partitions.join_via_ditsets": pair,
        "partitions.meet": pair,
        "partitions.meet_via_interior": pair,
        "partitions.refines": pair,
        "partitions.refines_via_ditsets": pair,
        "partitions.lift_connective": {"conn": Connective.AND, "operands": (p, p)},
        "textio.format_partition": {"p": p},
        "formulas.eval_partition": {"f": f, "assignment": PartitionAssignment(2, {"p": p})},
        "formulas.eval_subset": {"f": f, "assignment": SubsetAssignment(2, {"p": Subset.full(2)})},
        "formulas.format_formula": {"f": f},
        "formulas.formula_to_json": {"f": f},
        "formulas.free_variables": {"f": f},
        "validity.truth_table_tautology": {"f": f},
        "validity.subset_valid": {"f": f, "n_max": 2},
        "validity.partition_tautology": {"f": f, "n_max": 3},
    }


def test_every_typed_parameter_has_a_row():
    # a public function added later with a Partition or Formula parameter
    # needs a row in _rows()
    assert sorted(_typed_callables()) == sorted(_rows())


@pytest.mark.parametrize("name", sorted(_rows()))
def test_text_is_refused_where_a_type_is_annotated(name):
    # a str in place of a Partition or Formula, or of one in a collection
    # of them, is refused with TypeError, where dit, indit and
    # format_partition used to fail inside with an AttributeError
    function, typed = _typed_callables()[name]
    arguments = _rows()[name]
    function(**arguments)  # the row's own arguments are accepted
    for param, (kind, bare) in typed.items():
        given = arguments[param]
        texts = ["p -> p"] if bare else [(*given[:i], "p -> p", *given[i + 1:])
                                         for i in range(len(given))]
        for text in texts:
            with pytest.raises(TypeError, match=f"^expected a {kind}, got str$"):
                function(**{**arguments, param: text})
