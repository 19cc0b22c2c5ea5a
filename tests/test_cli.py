import contextlib
import hashlib
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

    @pytest.mark.parametrize("logic, code", [("subset", 2), ("partition", 3)])
    @pytest.mark.parametrize("max_n", ["0", "-1"])
    def test_max_n_below_range_is_refused(self, capsys, logic, code, max_n):
        # 0 is refused like any value below the range, not read as "the default"
        got, out, err = run(capsys, "taut", "p & q", "--logic", logic, "--max-n", max_n)
        assert (got, out) == (code, "")
        assert json.loads(err)["message"].endswith(f"got {max_n}")


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

    # sha256 of stdout, recorded with `ditkit lattice` at commit dffb393,
    # where the CLI enumerated the lattice twice and keyed edges by node
    GOLDEN = {
        ("partition", 1, "json"): "d6fefef981531ba4fa8a35302a2af448948cec1cf1925faf907a6c8af98e830d",
        ("partition", 1, "dot"): "9eb3ea5e7cd32db97fbf513adada1e762c25dd2f39cd22cec268feba0a55631a",
        ("partition", 2, "json"): "ef83daf74d88c76c3baf21709491d906f511e797733f5f51a73be09c2fce615b",
        ("partition", 2, "dot"): "a5527cabbad5e7bd4ad9b6ec9d884331e21d126b2e693ae2af31a44e6dcd9695",
        ("partition", 3, "json"): "e27c6d516116b95fcdbc854ac05970cd19ee16ff8771d7682f75346dd48c4983",
        ("partition", 3, "dot"): "6588262e0d360fe3fa45b366b2db9eae00ec3f2c0d8ff846c0f4bf7faffffe19",
        ("partition", 4, "json"): "82773e2ac3345d491b73f04e1d5f74d78825378032feb072bda063536a054ab7",
        ("partition", 4, "dot"): "8e652c1109c985384128f9cff8e3a413accf800ccd6afddf772b6f6b868202a1",
        ("partition", 5, "json"): "084e6709f6fbacdcece690aba3a405a02bb660078084f29606cdb378c0d78519",
        ("partition", 5, "dot"): "1f7f60517675483eef552710b02ea35f750ab1fc88bc788cac96d2478f4e2684",
        ("partition", 6, "json"): "df79d8a1fedcffd755e6b7105ff25b906f07c608776c37843015a03ff655d20a",
        ("partition", 6, "dot"): "a5e58a28ca62e917cfef6dc9b0c210e1bfce3d8788852f3b28711890e4064b51",
        ("partition", 7, "json"): "169cfaeaadee43d3ca64d203f792dde504d2ea957e277d8537927b404eb88abd",
        ("partition", 7, "dot"): "0fe79530a665cb91371246ea40faf26ac3d936d9d6fce95dae177bc43c456cac",
        ("partition", 8, "json"): "348d95ad4122c0b53ef271f164d76642924ded3591fea6817f8aeb66b1645520",
        ("partition", 8, "dot"): "82edacbd8d81195940f4bec4dd4f65e577fa94c84a239e7eb3a03d664f75eb07",
        ("subset", 1, "json"): "060f34845336db91c0ca9ab4c97a752d1bf012fc38bfa7cb1b8cbd2b5412a898",
        ("subset", 1, "dot"): "55662886386b7380f5c0c4b434df2f17461a1900d08e2079acd9e954af5467c2",
        ("subset", 2, "json"): "d57bfbf04068a82c11b29d76d68d8e55d6ff0dd383defe6b88bc82befabbb967",
        ("subset", 2, "dot"): "51a8e4ec5fd5aa8ec3de13d12db146f77fb317f0f2d497a6a8067efd5d458029",
        ("subset", 3, "json"): "2ad9a4e247958f3eb70f1c402048d820410fbf3203ed15e78dbd3094815c5c97",
        ("subset", 3, "dot"): "4497cfed8dd85f5828033b40a0743737eab811107c0d438fea0e4b1411778094",
        ("subset", 4, "json"): "b79c754ce03d0446de1017c0986851da5fe4c3d9806a7e760a5e04b87c25a31c",
        ("subset", 4, "dot"): "4fe63eeb50f6c9bcef5ea0399810d37f7c846bbf3eca16e31097082dca11c3b9",
        ("subset", 5, "json"): "36d1e22c314ed3af07d6313adf808bdb3956648b96fb4eb1af008cd7ee1a4e91",
        ("subset", 5, "dot"): "d3b951d2d790a5593f522e00d3d587736ab0655cbba5cfedea45b9018deecf91",
        ("subset", 6, "json"): "4e48b4c37afcf5bbbb62036375c2237bf66a5443b38b96ea06a7e5f1f10fd285",
        ("subset", 6, "dot"): "af071f2dcbdee40a1c39c4b4a93b079c10384f898cf9bf1338c68f7718191b27",
        ("subset", 7, "json"): "3d811a07ae0ca9e2a4285cb8d6918249b4b97320e47c025f082eb58f098f2acd",
        ("subset", 7, "dot"): "d53030f92c8b0f8255c275777dcbbc87fec6799c0c9d900a4c6afb05f94ba67d",
        ("subset", 8, "json"): "4193d040eea8a61f774f6368f007778d9ae041b0f108f1603de3443b9b05dba4",
        ("subset", 8, "dot"): "723e413539c7e46774b0d92e47ae81c0b41f2c8b137eef5eec9c6f2c643ee47c",
        ("subset", 9, "json"): "cb4cff19e5b8feb607d2382b09bad0b86e5f35e6324a87a82955fd2f71efcffb",
        ("subset", 9, "dot"): "8dd7dda829c4232d816bb5f127e257e1d6a04526692833114ce6dfc6b3fd08ad",
        ("subset", 10, "json"): "5faf957d7d16619df4c5c91fd5a52785078e1298445af2eb72ddc2246a3b63a9",
        ("subset", 10, "dot"): "0deea3e03aafdb691c9b33f8bed4c12d10a203a924bf620ae9b4633a5b607947",
    }

    @pytest.mark.parametrize("kind, n, style", sorted(GOLDEN))
    def test_output_matches_golden_hash(self, capsys, kind, n, style):
        code, out, err = run(capsys, "lattice", "--kind", kind, "--n", str(n), f"--{style}")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[kind, n, style]

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
