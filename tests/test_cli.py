import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ditkit
from ditkit import mechanisms, validity
from ditkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_partition_logic(self, capsys):
        code, out, _ = run(
            capsys, "eval", "p | ~p", "--logic", "partition", "--n", "3",
            "--assign", "p=0,1|2",
        )
        assert code == 0
        assert out.strip() == "0,1|2"

    def test_partition_self_implication(self, capsys):
        code, out, _ = run(
            capsys, "eval", "p -> p", "--logic", "partition", "--n", "3",
            "--assign", "p=0,1|2",
        )
        assert code == 0
        assert out.strip() == "0|1|2"

    def test_subset_logic(self, capsys):
        code, out, _ = run(
            capsys, "eval", "p | ~p", "--logic", "subset", "--n", "3",
            "--assign", "p={0}",
        )
        assert code == 0
        assert out.strip() == "{0,1,2}"

    def test_unbound_variable_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "eval", "p & q", "--logic", "subset", "--n", "2",
            "--assign", "p={0}",
        )
        assert code == 3
        payload = json.loads(err)
        assert payload["error"] == "UnboundVariableError"

    def test_parse_error(self, capsys):
        code, _, err = run(
            capsys, "eval", "p &", "--logic", "subset", "--n", "2",
        )
        assert code == 2
        assert "position 3" in json.loads(err)["message"]

    def test_universe_over_limit(self, capsys):
        code, _, err = run(
            capsys, "eval", "T", "--logic", "subset", "--n", "99",
        )
        assert code == 4
        assert json.loads(err)["error"] == "ResourceLimitError"


class TestTaut:
    def test_partition_invalid_text(self, capsys):
        code, out, _ = run(
            capsys, "taut", "p | ~p", "--logic", "partition", "--max-n", "3",
        )
        assert code == 1
        lines = out.strip().splitlines()
        assert lines[0] == "invalid (n=3)"
        assert lines[1] == "assign p = 0,1|2"
        assert lines[2] == "value = 0,1|2"

    def test_partition_valid_text(self, capsys):
        code, out, _ = run(
            capsys, "taut", "p -> p", "--logic", "partition", "--max-n", "4",
        )
        assert code == 0
        assert out.strip() == "valid (n=2..4)"

    def test_truth_table(self, capsys):
        code, out, _ = run(capsys, "taut", "((p -> q) -> p) -> p", "--logic", "truth")
        assert code == 0
        assert out.strip() == "valid"

    def test_truth_counterexample_renders_bits(self, capsys):
        code, out, _ = run(capsys, "taut", "p -> q", "--logic", "truth")
        assert code == 1
        lines = out.strip().splitlines()
        assert "assign p = 1" in lines
        assert "assign q = 0" in lines
        assert lines[-1] == "value = 0"

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "taut", "p | ~p", "--logic", "partition", "--max-n", "3", "--json",
        )
        assert code == 1
        assert json.loads(out) == {
            "valid": False,
            "n_checked": [2, 3],
            "counterexample": {"n": 3, "assignment": {"p": "0,1|2"}, "value": "0,1|2"},
        }


class TestLattice:
    def test_partition_json(self, capsys):
        code, out, _ = run(capsys, "lattice", "--kind", "partition", "--n", "3", "--json")
        assert code == 0
        got = json.loads(out)
        assert got["nodes"] == ["0,1,2", "0,1|2", "0,2|1", "0|1,2", "0|1|2"]
        assert got["edges"] == [[0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 4]]

    def test_subset_json_counts(self, capsys):
        code, out, _ = run(capsys, "lattice", "--kind", "subset", "--n", "3", "--json")
        assert code == 0
        got = json.loads(out)
        assert len(got["nodes"]) == 8
        assert len(got["edges"]) == 12

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "lattice", "--kind", "partition", "--n", "3", "--dot")
        assert code == 0
        assert out.startswith("digraph")
        assert 'label="0,1,2"' in out
        assert "n0 -> n1" in out

    def test_over_limit(self, capsys):
        code, _, err = run(capsys, "lattice", "--kind", "partition", "--n", "99", "--json")
        assert code == 4
        assert json.loads(err)["error"] == "ResourceLimitError"

    def test_limit_can_be_raised(self, capsys):
        code, out, _ = run(
            capsys, "--max-lattice-n", "11",
            "lattice", "--kind", "subset", "--n", "11", "--json",
        )
        assert code == 0
        assert len(json.loads(out)["nodes"]) == 2048


class TestSim:
    def test_select(self, capsys):
        code, out, _ = run(
            capsys, "sim", "select", "--k", "3", "--fitness", "peak@010",
            "--margin", "1.0", "--threshold", "0.0625",
        )
        assert code == 0
        got = json.loads(out)
        assert got["mechanism"] == "selectionist"
        assert got["final"]["weights"]["010"] == 1.0

    def test_generate(self, capsys):
        code, out, _ = run(
            capsys, "sim", "generate", "--k", "3", "--events", "1=0,2=1,3=0",
        )
        assert code == 0
        got = json.loads(out)
        assert got["final"]["block"] == ["010"]
        assert [len(s["state"]["block"]) for s in got["steps"]] == [8, 4, 2, 1]

    def test_identify(self, capsys):
        code, out, _ = run(
            capsys, "sim", "identify", "--n", "4", "--pairs", "0-1,1-2",
        )
        assert code == 0
        assert out.strip() == "0,1,2|3"

    def test_identify_names(self, capsys):
        code, out, _ = run(
            capsys, "sim", "identify", "--n", "3", "--pairs", "0-1",
            "--names", "a,b,c",
        )
        assert code == 0
        assert out.strip() == "a,b|c"

    def test_create(self, capsys):
        code, out, _ = run(capsys, "sim", "create", "--n", "3", "--elements", "2,0,2")
        assert code == 0
        got = json.loads(out)
        assert got["final"]["members"] == [0, 2]

    def test_twentyq(self, capsys):
        code, out, _ = run(capsys, "sim", "twentyq", "--k", "3", "--answers", "0,1,0")
        assert code == 0
        assert json.loads(out) == {"k": 3, "block": ["010"]}

    def test_bad_events(self, capsys):
        code, _, err = run(capsys, "sim", "generate", "--k", "2", "--events", "1=9")
        assert code == 2
        assert json.loads(err)["error"] == "TextFormatError"


class TestCompare:
    def test_agreement(self, capsys):
        code, out, _ = run(capsys, "compare", "--k", "3", "--target", "010")
        assert code == 0
        got = json.loads(out)
        assert got["agreement"] is True
        assert got["target"] == "010"
        assert got["generative"]["final"]["block"] == ["010"]

    def test_bad_target(self, capsys):
        code, _, err = run(capsys, "compare", "--k", "3", "--target", "999")
        assert code == 2
        assert json.loads(err)["error"] == "TextFormatError"


class TestArgHandling:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required(self, capsys):
        assert run(capsys, "eval", "p")[0] == 2

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "limits.json"
        cfg.write_text(json.dumps({"max_lattice_n": 2}))
        code, _, err = run(
            capsys, "--config", str(cfg),
            "lattice", "--kind", "partition", "--n", "3", "--json",
        )
        assert code == 4

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "limits.json"
        cfg.write_text(json.dumps({"max_lattice_n": 2}))
        code, out, _ = run(
            capsys, "--config", str(cfg), "--max-lattice-n", "5",
            "lattice", "--kind", "partition", "--n", "3", "--json",
        )
        assert code == 0
        assert len(json.loads(out)["nodes"]) == 5

    def test_config_rejects_unknown_keys(self, capsys, tmp_path):
        cfg = tmp_path / "limits.json"
        cfg.write_text(json.dumps({"max_wat": 5}))
        code, _, err = run(
            capsys, "--config", str(cfg),
            "lattice", "--kind", "partition", "--n", "3", "--json",
        )
        assert code == 2


_DEEP = {
    # deep input -> a shallow formula with the same value everywhere
    "nested negation": ("~" * 3000 + "p", "~~p"),
    "nested parentheses": ("(" * 3000 + "p -> p" + ")" * 3000, "p -> p"),
    "implication chain": (" -> ".join(["p"] * 5000), "p -> p"),
}
_DEEP_COMMANDS = {
    # None marks the formula's place
    "taut truth": ["taut", None, "--logic", "truth"],
    "taut subset": ["taut", None, "--logic", "subset"],
    "taut partition": ["taut", None, "--logic", "partition", "--max-n", "3"],
    "eval subset": ["eval", None, "--logic", "subset", "--n", "3", "--assign", "p={0,2}"],
    "eval partition": ["eval", None, "--logic", "partition", "--n", "3", "--assign", "p=0,1|2"],
}


class TestDepth:
    @pytest.mark.parametrize("command", sorted(_DEEP_COMMANDS))
    @pytest.mark.parametrize("shape", sorted(_DEEP))
    def test_deep_formula_answers_like_shallow_one(self, capsys, shape, command):
        deep, shallow = _DEEP[shape]
        argv = _DEEP_COMMANDS[command]
        want = run(capsys, *[shallow if a is None else a for a in argv])
        got = run(capsys, *[deep if a is None else a for a in argv])
        assert got == want
        assert got[0] in (0, 1) and got[2] == ""


class TestCaps:
    def test_variable_free_subset_scan_over_budget(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("scan started before the budget check")

        monkeypatch.setattr(validity, "_scan", refuse)
        code, out, err = run(
            capsys, "--max-search-assignments", "10",
            "taut", "T", "--logic", "subset", "--max-n", "14",
        )
        assert (code, out) == (4, "")
        assert json.loads(err) == {
            "error": "ResourceLimitError",
            "message": "subset search at n=4 needs 16 assignments, budget is 10",
        }

    def test_variable_free_partition_scan_over_budget(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("partitions enumerated before the budget check")

        monkeypatch.setattr(validity, "enumerate_partitions", refuse)
        code, out, err = run(capsys, "taut", "T", "--logic", "partition", "--max-n", "9")
        assert (code, out) == (4, "")
        assert json.loads(err) == {
            "error": "ResourceLimitError",
            "message": "partition search at n=9 needs 21147 assignments, budget is 10000",
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["sim", "select", "--k", "4", "--fitness", "peak@0101"],
            ["sim", "generate", "--k", "4", "--events", "1=0"],
            ["sim", "twentyq", "--k", "4", "--answers", "0,1"],
            ["compare", "--k", "4", "--target", "0101"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_switch_cap_before_variant_space(self, capsys, monkeypatch, argv):
        def refuse(*args):
            raise AssertionError("variant space built before the switch cap check")

        monkeypatch.setattr(mechanisms, "VariantSpace", refuse)
        code, out, err = run(capsys, "--max-switch-bits", "3", *argv)
        assert (code, out) == (4, "")
        assert json.loads(err) == {
            "error": "ResourceLimitError",
            "message": "2**4 variants exceeds the switch cap k <= 3",
        }


class _ClosedPipe:
    def __init__(self, fd: int):
        self.fd = fd

    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self) -> int:
        return self.fd


class TestClosedStdout:
    def test_broken_pipe_exits_3_quietly(self, capsys, monkeypatch, tmp_path):
        with open(tmp_path / "stdout", "w") as target:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(target.fileno()))
            code = main(["sim", "generate", "--k", "3", "--events", "1=0"])
            monkeypatch.undo()
        assert code == 3
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "argv",
        [
            # output small enough to wait in the buffer for the exit flush
            ["taut", "p", "--logic", "truth"],
            # output larger than a pipe holds, written while main runs
            ["--max-switch-bits", "12", "sim", "generate", "--k", "12",
             "--events", "1=0,2=1,3=0,4=1,5=0,6=1"],
        ],
        ids=["buffered", "large"],
    )
    def test_reader_gone_before_output(self, argv):
        src = pathlib.Path(ditkit.__file__).parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("PYTHONUNBUFFERED", None)
        child = subprocess.Popen(
            [sys.executable, "-m", "ditkit.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        child.stdout.close()  # no reader is left, so every write fails
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == 3
        assert err == b""


_FORMULAS = ["p | ~p", "p -> q", "T", "F", "~~p", "p & q & r", "p &", "(p q)", ")"]
_INTS = st.integers(min_value=-2, max_value=6).map(str)
_BITS = st.text(alphabet="01", min_size=1, max_size=6)


def _texts(*fixed: str):
    return st.one_of(st.sampled_from(fixed), _INTS)


# subcommand path -> (positional formula?, required flags, optional flags);
# a flag maps to the strategy for its value, or to None for a switch
_SUBCOMMANDS = {
    ("eval",): (
        True,
        {
            "--logic": st.sampled_from(["subset", "partition", "truth"]),
            "--n": _INTS,
        },
        {
            "--assign": st.sampled_from(["p={0}", "p=0,1|2", "q={}", "p=rgs:0,0,1", "p"]),
            "--names": st.sampled_from(["a,b,c", "a,a", "x"]),
        },
    ),
    ("taut",): (
        True,
        {"--logic": st.sampled_from(["truth", "subset", "partition"])},
        {"--max-n": _INTS, "--json": None},
    ),
    ("lattice",): (
        False,
        {"--kind": st.sampled_from(["subset", "partition"]), "--n": _INTS},
        {"--json": None, "--dot": None},
    ),
    ("sim", "select"): (
        False,
        {
            "--k": _INTS,
            "--fitness": st.one_of(
                _BITS.map("peak@".__add__), st.just("missing.txt")
            ),
        },
        {"--margin": _INTS, "--threshold": _INTS, "--max-steps": _INTS},
    ),
    ("sim", "generate"): (
        False,
        {"--k": _INTS},
        {
            "--events": st.one_of(
                st.sampled_from(["", "1=0,2=1", "1=0,1=1"]),
                st.tuples(_INTS, _INTS).map("=".join),
            ),
            "--overwrite": None,
        },
    ),
    ("sim", "identify"): (
        False,
        {"--n": _INTS},
        {
            "--pairs": st.one_of(
                st.sampled_from(["", "0-1,1-2"]), st.tuples(_INTS, _INTS).map("-".join)
            ),
            "--names": st.sampled_from(["a,b,c", "a,a", "x"]),
        },
    ),
    ("sim", "create"): (False, {"--n": _INTS}, {"--elements": _texts("", "2,0,2", "a")}),
    ("sim", "twentyq"): (False, {"--k": _INTS}, {"--answers": _texts("", "0,1,0", "2")}),
    ("compare",): (
        False,
        {"--k": _INTS, "--target": st.one_of(_BITS, st.just("999"))},
        {"--margin": _INTS, "--threshold": _INTS, "--max-steps": _INTS},
    ),
}
_LIMIT_FLAGS = ["--max-relation-n", "--max-lattice-n", "--max-truth-vars",
                "--max-search-assignments", "--max-switch-bits"]


@st.composite
def _argvs(draw) -> list[str]:
    argv = []
    for flag in draw(st.lists(st.sampled_from(_LIMIT_FLAGS), max_size=1)):
        argv += [flag, draw(_INTS)]
    path = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    positional, required, optional = _SUBCOMMANDS[path]
    argv += path
    if positional:
        argv.append(draw(st.sampled_from(_FORMULAS)))
    flags = {**required, **optional}
    chosen = sorted(required) + draw(st.lists(st.sampled_from(sorted(optional)), unique=True))
    for flag in chosen:
        argv.append(flag)
        if flags[flag] is not None:
            argv.append(draw(flags[flag]))
    return argv


@settings(max_examples=300)
@given(_argvs())
def test_cli_fuzz_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        text = out.getvalue()
        assert "taut" in argv
        assert text.startswith("invalid (n=") or json.loads(text)["valid"] is False
