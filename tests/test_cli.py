import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ditkit
from ditkit import Fitness, Limits, cli, mechanisms, textio, validity
from ditkit.cli import main
from ditkit.partitions import _lattice


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

    def test_partition_logic_at_the_relation_cap(self, capsys):
        # n = 12 has 66 pairs, so each distinction mask is wider than 64 bits;
        # q's block 10,11 lies inside a block of p, so p -> q splits it
        code, out, _ = run(
            capsys, "eval", "p -> q", "--logic", "partition", "--n", "12",
            "--assign", "p=0,1,2|3,4,5,6|7,8|9,10,11", "--assign", "q=0,3,7|1,4|2,5,8,9|6|10,11",
        )
        assert code == 0
        assert out.strip() == "0,3,7|1,4|2,5,8,9|6|10|11"

    def test_subset_logic(self, capsys):
        code, out, _ = run(
            capsys, "eval", "p | ~p", "--logic", "subset", "--n", "3",
            "--assign", "p={0}",
        )
        assert code == 0
        assert out.strip() == "{0,1,2}"

    @pytest.mark.parametrize(
        "logic, n, names, assign, expected",
        [
            ("subset", "3", "a,b,c", ["p={a}", "q={b}"], "{b,c}"),
            # q's block a,b lies inside a block of p and is split; c,d is not
            ("partition", "4", "a,b,c,d", ["p=a,b,c|d", "q=a,b|c,d"], "a|b|c,d"),
        ],
    )
    def test_names(self, capsys, logic, n, names, assign, expected):
        argv = ["eval", "p -> q", "--logic", logic, "--n", n, "--names", names]
        code, out, _ = run(capsys, *argv, *(arg for item in assign for arg in ("--assign", item)))
        assert (code, out) == (0, expected + "\n")

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

    def test_formula_parsed_before_assignments(self, capsys):
        code, out, err = run(
            capsys, "eval", "p &", "--logic", "subset", "--n", "2", "--assign", "bad",
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "FormulaSyntaxError",
            "message": "unexpected end of input (position 3)",
        }

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

    @pytest.mark.parametrize(
        "formula, code, stdout",
        [("p -> p", 0, b"valid (n=2..4)\n"),
         ("p | ~p", 1, b"invalid (n=3)\nassign p = 0,1|2\nvalue = 0,1|2\n")],
    )
    def test_module_entry(self, formula, code, stdout):
        # python -m ditkit.cli, the entry that bench/cli_child.py mirrors
        src = pathlib.Path(ditkit.__file__).parent.parent
        child = subprocess.run(
            [sys.executable, "-m", "ditkit.cli", "taut", formula, "--logic", "partition"],
            capture_output=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert (child.returncode, child.stdout, child.stderr) == (code, stdout, b"")

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

    @pytest.mark.parametrize("message", ['a "quote", a \\ backslash, \x07 and \u00e9 p\u00b2 \u01c5', ""])
    def test_error_line_is_json_dumps(self, capsys, message):
        assert cli._fail(2, ValueError(message)) == 2
        want = json.dumps({"error": "ValueError", "message": message}, sort_keys=True)
        assert capsys.readouterr() == ("", want + "\n")

    def test_refused_formula_error_line(self, capsys):
        code, out, err = run(capsys, "taut", 'p & "\u00e9', "--logic", "truth")
        assert (code, out) == (2, "")
        assert err == json.dumps(json.loads(err), sort_keys=True) + "\n"
        assert json.loads(err)["error"] == "FormulaSyntaxError"

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

    @pytest.mark.parametrize("kind", ["partition", "subset"])
    def test_labels_need_no_json_escaping(self, kind):
        # the JSON writer puts labels between plain quotes, as the DOT writer does
        for n in range(1, 7):
            _, labels, _ = _lattice(kind, n, Limits())
            assert all(json.dumps(label) == f'"{label}"' for label in labels)

    # sha256 of stdout, recorded with `ditkit lattice` at commit dffb393,
    # where the CLI enumerated the lattice twice and keyed edges by node;
    # partitions at n = 9 and 10 were recorded at commit 0b4455d, where
    # the edges were merged tuples looked up in a dict
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
        ("partition", 9, "json"): "2f16f93f9c9a0559b2962b71305477f177521080b0e5795b6e2f6fbac3d39f81",
        ("partition", 9, "dot"): "1ba8c778edb98776b3a68b1d06a4db2941e48ac33f1b538830dc97f0bf151786",
        ("partition", 10, "json"): "984944157c89e3261480fcb0ca693f4c5d581d1cc739a196de5e5cbd53971bb3",
        ("partition", 10, "dot"): "e00dfa986bf5d04761061762630964a0564b18452769469480e16b2e63f49e4a",
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
        code, out, err = run(capsys, "lattice", "--kind", "partition", "--n", "99", "--json")
        assert (code, out) == (4, "")  # refused before the first byte
        assert json.loads(err)["error"] == "ResourceLimitError"

    @pytest.mark.parametrize(
        "n, count", [(21, "= 474869816156751"), (22, "> 10**15"), (5000, "> 10**15")]
    )
    def test_over_limit_names_the_count(self, capsys, n, count):
        # Bell(5000) has over 4300 digits: str() of it raised a ValueError (exit 2)
        code, out, err = run(capsys, "lattice", "--kind", "partition", "--n", str(n))
        assert (code, out) == (4, "")
        assert json.loads(err)["message"] == (
            f"enumerating Bell({n}) {count} partitions exceeds the cap n <= 10"
        )

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

    def test_underflowing_selection_is_a_domain_error(self, capsys, tmp_path):
        # every amplified weight rounds to 0.0, so normalising divides by zero
        fitness = tmp_path / "fitness.txt"
        fitness.write_text("00 5e-324\n01 1e-323\n10 5e-324\n11 5e-324\n")
        code, out, err = run(capsys, "sim", "select", "--k", "2", "--fitness", str(fitness))
        assert (code, out) == (3, "")
        assert json.loads(err) == {
            "error": "ZeroDivisionError",
            "message": "float division by zero",
        }

    def test_fitness_file_not_utf8(self, capsys, tmp_path):
        fitness = tmp_path / "fitness.txt"
        fitness.write_bytes(b"\xff")
        code, out, err = run(capsys, "sim", "select", "--k", "1", "--fitness", str(fitness))
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "TextFormatError",
            "message": "cannot read fitness file: 'utf-8' codec can't decode byte 0xff"
            " in position 0: invalid start byte",
        }

    @pytest.mark.parametrize(
        "argv, tables",
        [
            (["compare", "--k", "4", "--target", "0101"], []),
            (["sim", "select", "--k", "4", "--fitness", "peak@0101"], []),
            (["sim", "generate", "--k", "4", "--events", "4=1,1=0"], []),
            (["sim", "select", "--k", "4", "--fitness", "FILE"], [16]),
        ],
        ids=["compare", "select peak", "generate", "select file"],
    )
    def test_label_table_only_for_a_fitness_file(
        self, capsys, tmp_path, label_tables, argv, tables
    ):
        # the CLI writes every label from two half-width tables; only
        # reading a fitness file builds the table of all 2**k labels
        fitness = tmp_path / "fitness.txt"
        fitness.write_text("".join(f"{v:04b} {v % 3 + 1}\n" for v in range(16)))
        code, out, _ = run(capsys, *[str(fitness) if a == "FILE" else a for a in argv])
        assert code == 0 and json.loads(out)["k"] == 4
        assert label_tables == tables

    @pytest.mark.parametrize("k", ["0", "-2"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["sim", "select", "--k", "K", "--fitness", "peak@01"],
            ["sim", "select", "--k", "K", "--fitness", "peak@"],
            ["sim", "generate", "--k", "K", "--events", "1=0"],
            ["sim", "twentyq", "--k", "K", "--answers", "0,1"],
            ["compare", "--k", "K", "--target", "01"],
            ["compare", "--k", "K", "--target", ""],
        ],
        ids=lambda argv: " ".join(argv).replace(" --k K", ""),
    )
    def test_k_checked_before_variant_text(self, capsys, argv, k):
        code, out, err = run(capsys, *(k if arg == "K" else arg for arg in argv))
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "ValueError",
            "message": f"k must be a positive integer, got {k}",
        }


class TestCompare:
    def test_agreement(self, capsys):
        code, out, _ = run(capsys, "compare", "--k", "3", "--target", "010")
        assert code == 0
        got = json.loads(out)
        assert got["agreement"] is True
        assert got["target"] == "010"
        assert got["generative"]["final"]["block"] == ["010"]

    def test_weight_text_is_the_same_on_every_version(self, capsys):
        # each total is a left-to-right fold; with Python 3.12's
        # compensated sum() this weight would print 0.043478260869565216
        code, out, _ = run(capsys, "compare", "--k", "4", "--target", "0101")
        assert code == 0
        assert '"0000": 0.04347826086956524, ' in out
        assert "0.043478260869565216" not in out

    def test_bad_target(self, capsys):
        code, _, err = run(capsys, "compare", "--k", "3", "--target", "999")
        assert code == 2
        assert json.loads(err)["error"] == "TextFormatError"


# A fitness file for k=3 with a tied maximum (011 and 101), comments and
# blank lines; FITNESS in an argv stands for its path.
_FITNESS_TEXT = (
    "# variant score\n000 1\n001 2.5\n010 0.75\n\n"
    "011 4\n100 1.5\n101 4\n110 3\n111 0.5\n"
)
_MECHANISM_CASES = {
    **{
        f"compare k={k}": [
            "--max-switch-bits", "12", "compare", "--k", str(k),
            "--target", ("10" * 6)[:k],
        ]
        for k in range(1, 13)
    },
    "compare k=3 margin": [
        "compare", "--k", "3", "--target", "000", "--margin", "0.25",
        "--threshold", "0.01",
    ],
    "compare k=4 capped": ["compare", "--k", "4", "--target", "1111", "--max-steps", "2"],
    "select peak": ["sim", "select", "--k", "4", "--fitness", "peak@0110", "--margin", "0.5"],
    "select peak capped": [
        "sim", "select", "--k", "3", "--fitness", "peak@001", "--max-steps", "3",
    ],
    "select file": ["sim", "select", "--k", "3", "--fitness", "FITNESS"],
    "select file threshold": [
        "sim", "select", "--k", "3", "--fitness", "FITNESS", "--threshold", "0.1",
    ],
    "generate none": ["sim", "generate", "--k", "3"],
    "generate": ["sim", "generate", "--k", "4", "--events", "1=0,3=1,2=1"],
    "generate k=12": [
        "--max-switch-bits", "12", "sim", "generate", "--k", "12",
        "--events", "12=1,1=0,7=1",
    ],
    "generate overwrite": [
        "sim", "generate", "--k", "4", "--events", "1=0,1=1,4=0,1=0,2=1", "--overwrite",
    ],
    "twentyq none": ["sim", "twentyq", "--k", "4"],
    "twentyq some": ["sim", "twentyq", "--k", "4", "--answers", "1,0"],
    "twentyq all": ["sim", "twentyq", "--k", "4", "--answers", "0,1,1,0"],
    "twentyq k=1": ["sim", "twentyq", "--k", "1", "--answers", "1"],
    "twentyq k=10": ["sim", "twentyq", "--k", "10", "--answers", "1,1,0"],
}


class TestMechanismGolden:
    """sha256 of the stdout of each case in _MECHANISM_CASES, recorded at
    commit 600146b, where the block was a per-switch scan and every label
    was formatted through VariantSpace."""

    GOLDEN = {
        "compare k=1": "0f78ea61155fc75d407e524ab2bb23ce064cb8b0f7360963f93d6d2a1e8ff940",
        "compare k=10": "0623f499d90c1bfee986fa3067d7813e90e106073d3746d5385d83f198e3796d",
        "compare k=11": "390d81fd69435bd9e6f742750a5928f41d9c8c36c5184e5da61918d6cee2b324",
        "compare k=12": "1316d2fc6d89c97ea990c40d05b5c1f6eeb0058f9f159cd616c92b51545afab9",
        "compare k=2": "e2e47b957fb0dc59d25711c72b4977e62c9242c60c2531c365e2859115dc1d57",
        "compare k=3": "981f8080aefd926d765a4536962e2385a2acac89dcfd02881f312020da612208",
        "compare k=3 margin": "27fa4384c77d0dfde7320dedb10317ebbb1c1ed2d9cff4b3a9f854c5c27a1be2",
        "compare k=4": "98ecd64e0cc7b6ae56c553c1128ba5add33d53a141a91361d4ce615176cfa21f",
        "compare k=4 capped": "5eeea9420af09317e89c12196f08e16b3451bd34f82f360a9f94a8d2555c67d6",
        "compare k=5": "54198a5b41a58b25eee7be00a890fc4fcc34fcd0edd600ba4ec3b9f00c39f4e2",
        "compare k=6": "99ea7e69326e81145a0a35156cd8f8d749e000be8e97029d617cb456160dc500",
        "compare k=7": "0a38996aa7a938adc2fb2f8463c361f67a1b96bd5c5197d5f0dedaa5514cf650",
        "compare k=8": "06329b132df3acebb3c7f50237f8d7387bea253b2ce3b11e4ce8324dea711918",
        "compare k=9": "9a2bda3d315a339df57622ee43e643be6bb3a1728796578f1042a1312361184c",
        "generate": "6e9d39c6802c8ca646d3be80587e2bf63e01ab86922db75e7a36d890d7707bb2",
        "generate k=12": "8b9843c3ed4c560b09a13400f8082ca3e70acec98b06907f0ec59b7c2ae3dea7",
        "generate none": "51fef4ee35751de894a1d4dd256e46ba0e56bb9564735019c54fe014acd3f2e7",
        "generate overwrite": "5953b5a37c15dce41238738caf52ac0b26d434be6faaa45f1242f95372fe01e1",
        "select file": "0a9ff97adb5096688cacb3583d938e5ed99b5c2ec6639db2c5d28118c9d772c9",
        "select file threshold": "ae05c873874a24c62e550e744323bf90f6cc27372bf8ba865ec30c9eeee63dd9",
        "select peak": "cd97b635c13f9a3dc1251a0ec4fcd91752dc9c36d70e6ba97b2b00e9bb0b4373",
        "select peak capped": "28a9fdc2b8cddd3604512a793238e4a5d034484861022e6d756c9d0ec01ac219",
        "twentyq all": "388a898165567380b0887debe5d4352938a4d40dd6aeb831d9539c30399cb6cf",
        "twentyq k=1": "3c504febef1974bd251c3e87d3b63ac1ba990920bbc49a96e56b7787cc968dac",
        "twentyq k=10": "b0994c1f6f3593bfe27522dc96c36c2bb59e8ce225c64abef5c72c4512e2afce",
        "twentyq none": "8151e5e4ceec04860465a3a87ee77eb219110b8d877c9503a6c35b964f96a813",
        "twentyq some": "5f895a6284405571b667c8d28ead25449d2f6f9e5f52455a85c9a0f47a35dcb7",
    }

    @pytest.mark.parametrize("case", sorted(_MECHANISM_CASES))
    def test_output_matches_golden_hash(self, capsys, tmp_path, case):
        fitness = tmp_path / "fitness.txt"
        fitness.write_text(_FITNESS_TEXT)
        argv = [str(fitness) if a == "FITNESS" else a for a in _MECHANISM_CASES[case]]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[case]


class _Discard:
    """A stdout that drops what is written to it."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


_SELECT_K12 = [
    "--max-switch-bits", "12", "sim", "select", "--k", "12", "--fitness", "peak@010110100101",
]


class TestCompactTraces:
    """compare and sim select write each selectionist map from its run's
    compact state, where the library fills a read-only dict: the bytes
    are the library's to_json() and a newline all the same."""

    @staticmethod
    def _assert_library_bytes(capsys, argv: list[str], document) -> None:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, document.to_json() + "\n", ""), argv

    @pytest.mark.parametrize("max_steps", [1, 2, None], ids=["1 step", "2 steps", "default"])
    @pytest.mark.parametrize("margin", [1.0, 1e-3])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_compare_every_target(self, capsys, k, margin, max_steps):
        steps = [] if max_steps is None else ["--max-steps", str(max_steps)]
        for target in range(2**k):
            argv = ["compare", "--k", str(k), "--target", format(target, f"0{k}b"),
                    "--margin", repr(margin), *steps]
            result = mechanisms.compare_mechanisms(k, target, margin, max_steps=max_steps)
            self._assert_library_bytes(capsys, argv, result)

    @pytest.mark.parametrize(
        "k, target, margin, threshold, max_steps",
        [(4, 0b0110, 0.25, 0.01, None), (3, 0b101, 1e-300, None, 5)],
        ids=["threshold", "margin lost in rounding"],  # 1 + 1e-300 == 1: one fitness class
    )
    def test_compare_options(self, capsys, k, target, margin, threshold, max_steps):
        argv = ["compare", "--k", str(k), "--target", format(target, f"0{k}b"),
                "--margin", repr(margin)]
        argv += [] if threshold is None else ["--threshold", repr(threshold)]
        argv += [] if max_steps is None else ["--max-steps", str(max_steps)]
        result = mechanisms.compare_mechanisms(
            k, target, margin, extinction_threshold=threshold, max_steps=max_steps
        )
        self._assert_library_bytes(capsys, argv, result)

    @pytest.mark.parametrize("k", [8, 9, 10, 12])
    def test_compare_seeded_targets(self, capsys, k):
        # k = 8 and 9 lie either side of the low table's width of 8 switches;
        # the first and last variants and 256 (000100000000 at k = 12) end
        # or start an aligned block of 256
        limits = Limits().replaced(max_switch_bits=12)
        targets = [*random.Random(k).sample(range(2**k), 3), 0, 2**k - 1, 256 % 2**k]
        for target in dict.fromkeys(targets):
            argv = ["--max-switch-bits", "12", "compare", "--k", str(k),
                    "--target", format(target, f"0{k}b")]
            result = mechanisms.compare_mechanisms(k, target, 1.0, limits=limits)
            self._assert_library_bytes(capsys, argv, result)

    @pytest.mark.parametrize("fitness", ["peak", "uniform file", "random file"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 8, 9])
    def test_select(self, capsys, tmp_path, k, fitness):
        rng = random.Random(k)
        threshold = 0.5 / 2**k
        if fitness == "peak":
            target = rng.randrange(2**k)
            argv = ["--fitness", f"peak@{target:0{k}b}", "--margin", "0.5"]
            scores = Fitness.peaked(k, target, 0.5)
        else:
            if fitness == "uniform file":
                scores = Fitness.uniform(k)
            else:  # repeated scores, so that runs of a class and ties for the top occur
                scores = Fitness(k, tuple(rng.choice([0.5, 1.0, 1.5, 3.0]) for _ in range(2**k)))
            path = tmp_path / "fitness.txt"
            path.write_text("".join(f"{v:0{k}b} {s!r}\n" for v, s in enumerate(scores.scores)))
            argv = ["--fitness", str(path)]
        trace = mechanisms.run_selectionist(k, scores, threshold, 1000)
        self._assert_library_bytes(capsys, ["sim", "select", "--k", str(k), *argv], trace)

    @pytest.mark.parametrize("overwrite", [False, True], ids=["set once", "overwrite"])
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 9, 12])
    def test_generate(self, capsys, k, overwrite):
        # each block is written from the blocks of its bank's high and low
        # switches, where the library slices it from the label table
        rng = random.Random(f"generate {k} {overwrite}")
        for _ in range(3):
            count = rng.randint(1, k + 3) if overwrite else rng.randint(1, k)
            switches = ([rng.randint(1, k) for _ in range(count)] if overwrite
                        else rng.sample(range(1, k + 1), count))
            events = [(i, rng.randint(0, 1)) for i in switches]
            argv = ["--max-switch-bits", "12", "sim", "generate", "--k", str(k),
                    "--events", ",".join(f"{i}={v}" for i, v in events)]
            argv += ["--overwrite"] if overwrite else []
            trace = mechanisms.run_generative(k, events, overwrite=overwrite)
            self._assert_library_bytes(capsys, argv, trace)

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (_MECHANISM_CASES["compare k=12"], TestMechanismGolden.GOLDEN["compare k=12"]),
            (_SELECT_K12, "40842d84737868b747565c15ff183376dc4c80e4a1f9fe545e57f3403fa1a487"),
        ],
        ids=["compare", "select"],
    )
    def test_cli_fills_no_dict(self, monkeypatch, argv, digest):
        def refuse(*args):
            raise AssertionError("the CLI filled a weight dict")

        rendered = []
        chunks = mechanisms._Weights._chunks
        monkeypatch.setattr(mechanisms, "_WeightMap", refuse)
        monkeypatch.setattr(mechanisms._Weights, "_chunks",
                            lambda m: rendered.append(m) or chunks(m))
        stdout = _RecordingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(argv)
        monkeypatch.undo()
        assert code == 0
        assert hashlib.sha256("".join(stdout.writes).encode()).hexdigest() == digest
        # one render per step and one for "final", each of a compact state
        steps = json.loads("".join(stdout.writes))
        steps = steps.get("selectionist", steps)["steps"]
        assert len(rendered) == len(steps) + 1
        assert {type(m) for m in rendered} == {mechanisms._Weights}

    def test_compare_at_twelve_holds_no_dicts(self, monkeypatch):
        # 14 filled 4096-entry dicts took the traced peak of this call to
        # 2.0 MiB, and compact states that held the table of all 4096
        # labels to 0.62 MiB; written from two half-width tables, with each
        # weight map streamed a piece at a time, it is about 0.15 MiB
        argv = _MECHANISM_CASES["compare k=12"]
        monkeypatch.setattr(sys, "stdout", _Discard())
        assert main(argv) == 0  # imports and first-use caches are not counted
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 0.3 * 2**20


class TestArgHandling:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required(self, capsys):
        assert run(capsys, "eval", "p")[0] == 2

    @pytest.mark.parametrize(
        "argv, code", [(["taut", "p -> p", "--logic", "truth"], 0), (["taut"], 2)],
        ids=["plain", "argparse"],
    )
    def test_argv_from_sys_argv(self, capsys, monkeypatch, argv, code):
        # the installed entry point calls main() with no arguments
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setattr(sys, "argv", ["ditkit", *argv])
        got = (main(), *capsys.readouterr())
        assert got[0] == code
        assert got == run(capsys, *argv)

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

    def test_limit_fields_are_the_flags(self):
        # the parametrisation below reads this list, so it covers every flag
        assert Limits._fields == cli._LIMIT_FLAGS
        assert len(set(Limits._fields)) == 6

    @pytest.mark.parametrize("field", Limits._fields)
    def test_limits_refuse_bool(self, field):
        with pytest.raises(ValueError) as exc:
            Limits(**{field: True})
        assert str(exc.value) == f"{field} must be a positive integer, got True"

    def test_config_too_deep_for_the_json_decoder(self, capsys, tmp_path):
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 100_000)
        code, out, err = run(capsys, "--config", str(cfg), "taut", "p", "--logic", "truth")
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "TextFormatError"
        assert error["message"].startswith("bad JSON in config: ")

    def test_unreadable_config(self, capsys, tmp_path):
        for path in (tmp_path / "missing.json", tmp_path):
            code, out, err = run(capsys, "--config", str(path), "taut", "p", "--logic", "truth")
            assert (code, out) == (2, "")
            error = json.loads(err)
            assert error["error"] == "TextFormatError"
            assert error["message"].startswith("cannot read config: ")
            assert str(path) in error["message"]

    def test_config_not_utf8(self, capsys, tmp_path):
        cfg = tmp_path / "limits.json"
        cfg.write_bytes(b"\xff")
        code, out, err = run(
            capsys, "--config", str(cfg), "lattice", "--kind", "subset", "--n", "2",
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "TextFormatError",
            "message": "cannot read config: 'utf-8' codec can't decode byte 0xff"
            " in position 0: invalid start byte",
        }

    def test_empty_config_gives_the_default_limits(self, tmp_path):
        cfg = tmp_path / "limits.json"
        cfg.write_text("{}")
        assert cli._load_limits(SimpleNamespace(config=str(cfg))) == ditkit.DEFAULT_LIMITS

    @pytest.mark.parametrize("text", ["[1, 2]", "5", '"max_lattice_n"', "null"])
    def test_config_must_be_an_object(self, capsys, tmp_path, text):
        cfg = tmp_path / "limits.json"
        cfg.write_text(text)
        code, out, err = run(capsys, "--config", str(cfg), "taut", "p", "--logic", "truth")
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "TextFormatError",
            "message": "config must be a JSON object of limit settings",
        }

    def test_config_rejects_bool_limit(self, capsys, tmp_path):
        cfg = tmp_path / "limits.json"
        cfg.write_text(json.dumps({"max_lattice_n": True}))
        code, out, err = run(
            capsys, "--config", str(cfg), "lattice", "--kind", "subset", "--n", "2",
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "ValueError",
            "message": "max_lattice_n must be a positive integer, got True",
        }


class TestHelpAndUsageBytes:
    """argparse prints every help screen and usage error. The bytes below
    were recorded at commit 9842fa4, with the terminal 80 columns wide,
    and were the same on Python 3.10.13, 3.11.7, 3.12.1 and 3.13.0."""

    # sha256 of the stdout of `ditkit COMMAND -h`
    HELP = {
        "": "7f4f72fc527a33380b4fc2180969bf740541374591d98068f35764fb716b0141",
        "eval": "abf1a584a625023be2c0de8c64e46ab7289e9c847ea63e23aa7fd0d155d8905f",
        "taut": "8015ebc7fa7ee2bb92b9a04326de062ea5101d5e02c0ea3784e6128537340a1a",
        "lattice": "a9a04d3de8a68875304df49b552b5851ab091f462c4e4282fbae67fe83a38f4c",
        "sim": "8e592af8b5523b9c655f7b86eb3b627ecad9404860ea128c013f01be23c7fd6e",
        "compare": "d9ab1aaffec20db65de8c35eaaadb4f028a27803a5e99dd6d6483e39f3444726",
        "sim select": "dc5078e4136968e3d39fa3d7e1a273bd40251abfd8f32b7cbb3290ea0a66156d",
        "sim generate": "caafb431c81c01a78067b8d4ee2c7ff3c76d1e5f8fc9d67a15833458aacab0a3",
        "sim identify": "d2d0f2bfb8784cf67742ab7ea898bf2c0765b8134d56ecaa8b1b01aadb2e1069",
        "sim create": "0bc0a92bc1ec2875a3139b1285aa6066554590dd531f16cf045799e8f8ac6f16",
        "sim twentyq": "a54d2687add80151bdad169d716ca8159769c08d218ab81710f61fbfbc811e9b",
    }

    USAGE_ERRORS = {
        "frob": (
            "usage: ditkit [-h] [--config FILE] [--max-relation-n MAX_RELATION_N]\n"
            "              [--max-lattice-n MAX_LATTICE_N]\n"
            "              [--max-truth-vars MAX_TRUTH_VARS]\n"
            "              [--max-search-assignments MAX_SEARCH_ASSIGNMENTS]\n"
            "              [--max-switch-bits MAX_SWITCH_BITS]\n"
            "              [--max-selection-steps MAX_SELECTION_STEPS]\n"
            "              {eval,taut,lattice,sim,compare} ...\n"
            "ditkit: error: argument command: invalid choice: 'frob' (choose from"
            " 'eval', 'taut', 'lattice', 'sim', 'compare')\n"
        ),
        "taut": (
            "usage: ditkit taut [-h] --logic {truth,subset,partition} [--max-n MAX_N]\n"
            "                   [--json]\n"
            "                   formula\n"
            "ditkit taut: error: the following arguments are required: formula, --logic\n"
        ),
        "sim frob": (
            "usage: ditkit sim [-h] {select,generate,identify,create,twentyq} ...\n"
            "ditkit sim: error: argument scenario: invalid choice: 'frob' (choose from"
            " 'select', 'generate', 'identify', 'create', 'twentyq')\n"
        ),
        "lattice --kind x --n 3": (
            "usage: ditkit lattice [-h] --kind {subset,partition} --n N [--json | --dot]\n"
            "ditkit lattice: error: argument --kind: invalid choice: 'x' (choose from"
            " 'subset', 'partition')\n"
        ),
    }

    @pytest.mark.parametrize("command", sorted(HELP))
    def test_help_screen(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run(capsys, *command.split(), "-h")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.HELP[command]

    @pytest.mark.parametrize("argv", sorted(USAGE_ERRORS))
    def test_usage_error(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, *argv.split()) == (2, "", self.USAGE_ERRORS[argv])


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
            raise AssertionError("truth table evaluated before the budget check")

        monkeypatch.setattr(validity, "_first_failure", refuse)
        code, out, err = run(
            capsys, "--max-search-assignments", "10",
            "taut", "T", "--logic", "subset", "--max-n", "14",
        )
        assert (code, out) == (4, "")
        assert json.loads(err) == {
            "error": "ResourceLimitError",
            "message": "subset search at n=4 needs 16 assignments, budget is 10",
        }

    @pytest.mark.parametrize(
        "logic, cap", [("truth", "the truth-table cap"), ("subset", "the cap")]
    )
    def test_truth_vars_cap_before_truth_table(self, capsys, monkeypatch, logic, cap):
        def refuse(*args):
            raise AssertionError("truth table evaluated before the variable cap check")

        monkeypatch.setattr(validity, "_first_failure", refuse)
        argv = ["--max-truth-vars", "2", "taut", "p | q | ~r", "--logic", logic]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert json.loads(err) == {
            "error": "TooManyVariablesError",
            "message": f"3 variables exceeds {cap} 2",
        }

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sim", "identify", "--n", "13", "--pairs", "0-1"],
             "n=13 exceeds the relation cap 12"),
            (["--max-relation-n", "5", "sim", "identify", "--n", "200000", "--pairs", "0-1"],
             "n=200000 exceeds the relation cap 5"),
            (["eval", "p", "--logic", "subset", "--n", "13", "--assign", "p={0}"],
             "n=13 exceeds the relation cap 12"),
            (["eval", "p", "--logic", "partition", "--n", "13", "--assign", "p=0|1"],
             "n=13 exceeds the relation cap 12"),
            (["sim", "create", "--n", "13", "--elements", "0"],
             "n=13 exceeds the relation cap 12"),
        ],
        ids=["identify", "identify flag", "eval subset", "eval partition", "create"],
    )
    def test_relation_cap_before_universe(self, capsys, monkeypatch, argv, message):
        def refuse(*args):
            raise AssertionError("universe built before the relation cap check")

        # the handlers import these when they run, so patch them at their source
        for name in ("identify", "create"):
            monkeypatch.setattr(mechanisms, name, refuse)
        for name in ("parse_subset", "parse_partition"):
            monkeypatch.setattr(textio, name, refuse)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert json.loads(err) == {"error": "ResourceLimitError", "message": message}

    def test_relation_cap_admits_its_bound(self, capsys):
        argv = ["--max-relation-n", "3", "sim", "identify", "--n", "3", "--pairs", "0-2"]
        assert run(capsys, *argv) == (0, "0,2|1\n", "")
        argv = ["--max-relation-n", "13", "sim", "create", "--n", "13", "--elements", "12"]
        code, out, err = run(capsys, *argv)
        assert (code, err, json.loads(out)["k"]) == (0, "", 13)

    def test_variable_free_partition_scan_over_budget(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("partitions enumerated before the budget check")

        monkeypatch.setattr(validity, "_rgs", refuse)
        code, out, err = run(capsys, "taut", "T", "--logic", "partition", "--max-n", "9")
        assert (code, out) == (4, "")
        assert json.loads(err) == {
            "error": "ResourceLimitError",
            "message": "partition search at n=9 needs 21147 assignments, budget is 10000",
        }

    def test_partition_budget_stops_at_first_universe_over_it(self, capsys, monkeypatch):
        calls = []
        bell_numbers = validity._bell_numbers

        def counted():
            for n, bell in enumerate(bell_numbers()):
                if n > 9:
                    raise AssertionError(f"Bell({n}) computed past the first n over budget")
                calls.append(n)
                yield bell

        monkeypatch.setattr(validity, "_bell_numbers", counted)
        code, out, err = run(capsys, "taut", "p", "--logic", "partition", "--max-n", "1000000")
        assert (code, out) == (4, "")
        assert json.loads(err) == {
            "error": "ResourceLimitError",
            "message": "partition search at n=9 needs 21147 assignments, budget is 10000",
        }
        assert calls == list(range(10))

    def test_subset_budget_stops_at_first_universe_over_it(self, capsys):
        # 2**n for every n up to 20,000 took 43 MB before the check
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "taut", "p", "--logic", "subset", "--max-n", "20000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (4, "")
        assert json.loads(err) == {
            "error": "ResourceLimitError",
            "message": "subset search at n=14 needs 16384 assignments, budget is 10000",
        }
        assert peak < 1_000_000

    @pytest.mark.parametrize("formula", ["p -> p", "p | ~p"])
    def test_lattice_cap_before_partition_scan(self, capsys, monkeypatch, formula):
        # "p | ~p" fails at n = 3, so a cap checked during the scan never fires
        def refuse(*args):
            raise AssertionError("partitions enumerated before the lattice cap check")

        monkeypatch.setattr(validity, "_rgs", refuse)
        argv = ["--max-search-assignments", "1000000",
                "taut", formula, "--logic", "partition", "--max-n", "11"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert json.loads(err) == {
            "error": "ResourceLimitError",
            "message": "enumerating Bell(11) = 678570 partitions exceeds the cap n <= 10",
        }

    def test_lattice_cap_admits_its_bound(self, capsys):
        argv = ["--max-lattice-n", "3", "taut", "p | ~p", "--logic", "partition", "--max-n", "3"]
        code, out, err = run(capsys, *argv)
        assert (code, out.partition("\n")[0], err) == (1, "invalid (n=3)", "")

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

        # every mechanism entry point checks k first; labels and blocks
        # are the 2**k-sized tables
        for name in ("VariantSpace", "_check_k", "_labels", "_agreeing"):
            monkeypatch.setattr(mechanisms, name, refuse)
        code, out, err = run(capsys, "--max-switch-bits", "3", *argv)
        assert (code, out) == (4, "")
        assert json.loads(err) == {
            "error": "ResourceLimitError",
            "message": "2**4 variants exceeds the switch cap k <= 3",
        }

    @pytest.mark.parametrize(
        "argv, steps",
        [
            (["sim", "select", "--k", "3", "--fitness", "peak@010",
              "--max-steps", "100000000000"], 100000000000),
            (["compare", "--k", "3", "--target", "010", "--margin", "1e-12"], 2772588722244),
            (["compare", "--k", "3", "--target", "010", "--max-steps", "10001"], 10001),
            (["--max-selection-steps", "5", "compare", "--k", "3", "--target", "010"], 6),
            # counts above 10**15 print in .3e form, not in all 301 or 401 digits
            (["compare", "--k", "3", "--target", "010", "--margin", "1e-300"], "2.773e+300"),
            (["sim", "select", "--k", "3", "--fitness", "peak@010",
              "--max-steps", "1" + "0" * 400], "1.000e+400"),
        ],
        ids=["select", "compare derived", "compare given", "compare flag",
             "compare derived huge", "select beyond float range"],
    )
    def test_selection_step_cap_before_run(self, capsys, monkeypatch, argv, steps):
        def refuse(*args, **kwargs):
            raise AssertionError("selectionist run started before the step cap check")

        for name in ("_labels", "run_generative"):
            monkeypatch.setattr(mechanisms, name, refuse)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        cap = 5 if "--max-selection-steps" in argv else 10000
        assert json.loads(err) == {
            "error": "ResourceLimitError",
            "message": f"{steps} selection steps exceeds the cap {cap}",
        }

    def test_selection_step_cap_from_config(self, capsys, tmp_path):
        config = tmp_path / "limits.json"
        config.write_text('{"max_selection_steps": 5}')
        argv = ["--config", str(config), "compare", "--k", "3", "--target", "010"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert json.loads(err)["message"] == "6 selection steps exceeds the cap 5"
        config.write_text('{"max_selection_steps": 6}')
        assert run(capsys, *argv)[0] == 0

    def test_partition_budget_counts_unreduced_assignments(self, capsys):
        # the scan evaluates 138 assignments, but the budget is checked on
        # Bell(5)**2 = 2704 before it starts
        argv = ["taut", "p -> (q -> p)", "--logic", "partition", "--max-n", "5"]
        code, out, err = run(capsys, "--max-search-assignments", "2703", *argv)
        assert (code, out) == (4, "")
        assert json.loads(err) == {
            "error": "ResourceLimitError",
            "message": "partition search at n=5 needs 2704 assignments, budget is 2703",
        }
        assert run(capsys, "--max-search-assignments", "2704", *argv) == (0, "valid (n=2..5)\n", "")


def _child_env(**extra: str) -> dict:
    """The environment for a child Python that imports this ditkit."""
    return dict(os.environ, PYTHONPATH=str(pathlib.Path(ditkit.__file__).parent.parent), **extra)


def _child(code: str, *flags: str) -> str:
    child = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, timeout=60,
        env=_child_env(), check=True,
    )
    return child.stdout


def test_import_loads_only_ditkit_beyond_its_stdlib_imports():
    # Import time is part of every CLI call. Once the standard modules that
    # ditkit imports are loaded, importing any of its modules may load only
    # its own modules: not dataclasses, inspect, typing or random, which are
    # not preloaded.
    code = (
        "import sys, __future__, argparse, collections.abc, enum, functools, itertools,"
        " json, math, operator, re\n"
        "before = set(sys.modules)\n"
        "import ditkit\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
        "import ditkit.cli, ditkit.mechanisms, ditkit.validity\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    package, everything = _child(code).splitlines()
    assert package == "ditkit"
    assert set(everything.split()) == {"ditkit", *(f"ditkit.{name}" for name in (
        "cli", "errors", "formulas", "limits", "mechanisms", "partitions", "relations",
        "textio", "validity",
    ))}


@pytest.mark.parametrize(
    "argv, status, absent",
    [
        (["taut", "p -> (q -> p)", "--logic", "partition"], 0,
         {"ditkit.mechanisms", "ditkit.textio", "json", "_json"}),
        (["taut", "p | ~p", "--logic", "partition", "--json"], 1, {"ditkit.mechanisms", "json"}),
        (["taut", "p | ~p", "--logic", "partition"], 1,
         {"ditkit.mechanisms", "ditkit.textio", "json", "_json"}),
        (["taut", "p & q", "--logic", "subset"], 1,
         {"ditkit.mechanisms", "ditkit.textio", "json", "_json"}),
        (["taut", "p &", "--logic", "truth"], 2, {"ditkit.mechanisms", "json"}),
        (["compare", "--k", "3", "--target", "010"], 0,
         {"ditkit.formulas", "ditkit.validity", "ditkit.partitions", "json", "_json"}),
        (["sim", "generate", "--k", "3", "--events", "1=0"], 0,
         {"ditkit.formulas", "ditkit.validity", "ditkit.partitions", "json", "_json"}),
        (["sim", "twentyq", "--k", "3", "--answers", "0,1"], 0,
         {"ditkit.formulas", "ditkit.validity", "ditkit.partitions", "json", "_json"}),
        (["sim", "select", "--k", "3", "--fitness", "peak@010"], 0,
         {"ditkit.formulas", "ditkit.validity", "ditkit.partitions", "json", "_json"}),
        (["lattice", "--kind", "partition", "--n", "4"], 0,
         {"ditkit.mechanisms", "ditkit.formulas", "ditkit.validity", "ditkit.textio", "json",
          "_json"}),
        (["lattice", "--kind", "subset", "--n", "3", "--dot"], 0,
         {"ditkit.mechanisms", "ditkit.formulas", "ditkit.validity", "ditkit.textio", "json"}),
    ],
    ids=["taut", "taut invalid", "taut invalid plain", "taut invalid subset", "taut refused",
         "compare", "sim generate", "sim twentyq", "sim select", "lattice", "lattice dot"],
)
def test_subcommand_loads_only_its_modules(argv, status, absent):
    # what a CLI call adds to sys.modules, not what the interpreter preloads;
    # a plain call is parsed from the option table, without argparse
    code = (
        "import io, sys, contextlib\n"
        "before = set(sys.modules)\n"
        "from ditkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "        contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(code, ' '.join(sorted(set(sys.modules) - before)))\n"
    )
    code, *loaded = _child(code).split()
    assert code == str(status)
    assert not set(loaded) & (absent | {"dataclasses", "inspect", "argparse", "gettext"})
    assert "ditkit.cli" in loaded


def test_cli_calls_load_neither_typing_nor_random():
    # site-packages may import both at start-up, so the child runs without
    # site; ditkit's annotations need neither. Nor does a plain call load
    # shutil (with bz2 and lzma), which argparse imports for the terminal width
    code = (
        "import io, sys, contextlib\n"
        "from ditkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['taut', 'p -> (q -> p)', '--logic', 'partition']),"
        " main(['taut', 'p | ~p', '--logic', 'partition']),"
        " main(['compare', '--k', '3', '--target', '010'])]\n"
        "print(codes, {'typing', 'random', 'shutil', 'bz2', 'lzma'} & set(sys.modules))\n"
    )
    assert _child(code, "-S") == "[0, 1, 0] set()\n"


class _ClosedPipe:
    """A stdout whose reader leaves after `accepted` characters: the write
    that would go past them fails, and so does every write after it."""

    def __init__(self, fd: int, accepted: int = 0):
        self.fd = fd
        self.accepted = accepted
        self.writes = 0

    def write(self, text: str) -> int:
        if len(text) > self.accepted:
            raise BrokenPipeError(32, "Broken pipe")
        self.accepted -= len(text)
        self.writes += 1
        return len(text)

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

    # The reader is gone before the first write, or leaves midway. At
    # n = 8 the JSON is 457,751 characters; the DOT is 636,211, of which
    # the head and the node lines are the first 143,822. A midway break
    # comes after at least one block went through.
    @pytest.mark.parametrize(
        "style, accepted",
        [
            ("--json", 0), ("--json", 229_000),
            ("--dot", 0), ("--dot", 70_000), ("--dot", 320_000),
        ],
    )
    def test_broken_pipe_while_streaming_lattice(
        self, capsys, monkeypatch, tmp_path, style, accepted
    ):
        with open(tmp_path / "stdout", "w") as target:
            pipe = _ClosedPipe(target.fileno(), accepted)
            monkeypatch.setattr(sys, "stdout", pipe)
            code = main(["lattice", "--kind", "partition", "--n", "8", style])
            monkeypatch.undo()
        assert code == 3
        assert capsys.readouterr().err == ""
        assert (pipe.writes > 0) == (accepted > 0)

    # Traces are streamed a chunk at a time: `compare --k 12` is 2,522,823
    # characters, `sim select --k 12` 2,385,050 and `sim select --k 4`
    # 3,348, less than one block.
    @pytest.mark.parametrize(
        "argv, accepted",
        [
            (["--max-switch-bits", "12", "compare", "--k", "12", "--target", "010011010101"], 0),
            (["--max-switch-bits", "12", "compare", "--k", "12", "--target", "010011010101"],
             1_260_000),
            (["sim", "select", "--k", "4", "--fitness", "peak@0101"], 0),
            (["--max-switch-bits", "12", "sim", "select", "--k", "12",
              "--fitness", "peak@010011010101"], 1_190_000),
        ],
        ids=["compare first", "compare midway", "select first", "select midway"],
    )
    def test_broken_pipe_while_streaming_trace(
        self, capsys, monkeypatch, tmp_path, argv, accepted
    ):
        with open(tmp_path / "stdout", "w") as target:
            pipe = _ClosedPipe(target.fileno(), accepted)
            monkeypatch.setattr(sys, "stdout", pipe)
            code = main(argv)
            monkeypatch.undo()
        assert code == 3
        assert capsys.readouterr().err == ""
        assert (pipe.writes > 0) == (accepted > 0)

    @pytest.mark.parametrize(
        "argv",
        [
            # output small enough to wait in the buffer for the exit flush
            ["taut", "p", "--logic", "truth"],
            # output larger than a pipe holds, written while main runs
            ["--max-switch-bits", "12", "sim", "generate", "--k", "12",
             "--events", "1=0,2=1,3=0,4=1,5=0,6=1"],
            # a streamed trace of 2.5 MB
            ["--max-switch-bits", "12", "compare", "--k", "12", "--target", "010011010101"],
            # output streamed in many writes
            ["lattice", "--kind", "partition", "--n", "8", "--json"],
            ["lattice", "--kind", "partition", "--n", "8", "--dot"],
        ],
        ids=["buffered", "large", "compare", "lattice json", "lattice dot"],
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


# streamed outputs of many blocks: argv and the sha256 of stdout
_STREAMED = {
    "lattice json": (
        ["lattice", "--kind", "partition", "--n", "8", "--json"],
        TestLattice.GOLDEN["partition", 8, "json"],
    ),
    "lattice dot": (
        ["lattice", "--kind", "partition", "--n", "8", "--dot"],
        TestLattice.GOLDEN["partition", 8, "dot"],
    ),
    "compare k=12": (
        _MECHANISM_CASES["compare k=12"], TestMechanismGolden.GOLDEN["compare k=12"]
    ),
}


class _RecordingStdout:
    """A stdout that keeps the text of each write."""

    def __init__(self):
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)

    def flush(self) -> None:
        pass


class TestBlockWrites:
    # A write-through stdout (python -u, PYTHONUNBUFFERED) makes one system
    # call per write, so streamed output is written in blocks: chunks are
    # joined until they reach io.DEFAULT_BUFFER_SIZE characters.
    @pytest.mark.parametrize("case", sorted(_STREAMED))
    def test_streamed_output_is_written_in_blocks(self, monkeypatch, case):
        argv, digest = _STREAMED[case]
        stdout = _RecordingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(argv)
        monkeypatch.undo()
        text = "".join(stdout.writes)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        block = io.DEFAULT_BUFFER_SIZE
        sizes = [len(written) for written in stdout.writes]
        # only the last write may be shorter than a block
        assert all(size >= block for size in sizes[:-1])
        assert len(sizes) <= len(text) // block + 1
        if case.startswith("compare"):
            # a weight map is written in pieces of labels, never in one chunk
            assert max(sizes) <= 4 * block

    @pytest.mark.parametrize("case", sorted(_STREAMED))
    def test_unbuffered_stdout_gets_the_same_bytes(self, case):
        argv, digest = _STREAMED[case]
        src = pathlib.Path(ditkit.__file__).parent.parent
        outputs = []
        for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
            env = dict(os.environ, PYTHONPATH=str(src))
            env.pop("PYTHONUNBUFFERED", None)
            child = subprocess.run(
                [sys.executable, "-m", "ditkit.cli", *argv], capture_output=True,
                timeout=60, env={**env, **unbuffered}, check=True,
            )
            outputs.append(child.stdout)
        assert outputs[0] == outputs[1]
        assert hashlib.sha256(outputs[1]).hexdigest() == digest


# atexit runs its hooks last in, first out, so this one, registered before
# main, runs after main's freeze and reports on stderr whether gc froze
# anything. Some builds start with objects frozen already (375 on CPython
# 3.12.1), so the count is read before ditkit is imported, and compared with
_FREEZE_PROBE = (
    "import atexit, gc, sys\n"
    "start = gc.get_freeze_count()\n"
    "atexit.register(lambda: print('frozen', gc.get_freeze_count() > start, file=sys.stderr))\n"
)


class TestExitFreeze:
    """main registers gc.freeze with atexit, so a CLI process skips the
    interpreter's last collections; nothing is frozen while it runs, and
    a process that never calls main freezes nothing."""

    @pytest.mark.parametrize(
        "argv, status",
        [
            (["taut", "p -> p", "--logic", "partition"], 0),
            (["taut", "p | ~p", "--logic", "partition"], 1),
            (["taut", "p &", "--logic", "truth"], 2),
            (["--help"], 0),
            (["taut"], 2),
            (["eval", "p & q", "--logic", "subset", "--n", "2", "--assign", "p={0}"], 3),
            (["lattice", "--kind", "partition", "--n", "99"], 4),
        ],
        ids=["valid", "invalid", "usage", "argparse help", "argparse usage", "domain", "cap"],
    )
    def test_every_exit_path_freezes_at_exit(self, argv, status):
        code = _FREEZE_PROBE + f"from ditkit.cli import main\nsys.exit(main({argv!r}))\n"
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60,
                               env=_child_env())
        assert child.returncode == status
        assert child.stderr.endswith(b"frozen True\n")

    def test_closed_stdout_freezes_at_exit(self):
        code = _FREEZE_PROBE + "from ditkit.cli import main\nsys.exit(main(['lattice', "
        code += "'--kind', 'partition', '--n', '8']))\n"
        child = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, env=_child_env())
        child.stdout.close()  # no reader is left, so every write fails
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == 3
        assert err == b"frozen True\n"

    def test_library_calls_freeze_nothing(self):
        code = _FREEZE_PROBE + (
            "import ditkit, ditkit.cli\n"
            "from ditkit import compare_mechanisms, parse, partition_tautology\n"
            "from ditkit.partitions import _lattice\n"
            "partition_tautology(parse('((p -> q) -> p) -> p'), 4)\n"
            "compare_mechanisms(3, 0b010, 1.0)\n"
            "count, labels, covers = _lattice('partition', 5, ditkit.Limits())\n"
            "print(count, len(list(labels)), gc.get_freeze_count() - start)\n"
        )
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               timeout=60, env=_child_env(), check=True)
        assert (child.stdout, child.stderr) == ("52 52 0\n", "frozen False\n")

    def test_repeated_calls_register_one_freeze(self, capsys, monkeypatch):
        import atexit
        import gc

        hooks, frozen = [], gc.get_freeze_count()
        monkeypatch.setattr(cli, "_freeze_registered", False)  # as in a fresh process
        monkeypatch.setattr(atexit, "register", hooks.append)
        codes = [main(["taut", "p -> p", "--logic", "truth"]), main(["taut"]),
                 main(["lattice", "--kind", "partition", "--n", "99"])]
        monkeypatch.undo()
        capsys.readouterr()
        assert codes == [0, 2, 4]
        assert hooks == [gc.freeze]
        assert gc.get_freeze_count() == frozen  # frozen at exit, never during a call

    @pytest.mark.skipif(not hasattr(__import__("atexit"), "_ncallbacks"),
                        reason="atexit._ncallbacks is CPython's")
    def test_repeated_calls_add_one_atexit_hook(self):
        code = (
            "import atexit, contextlib, io\n"
            "from ditkit.cli import main\n"
            "before = atexit._ncallbacks()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['taut', 'p', '--logic', 'truth']) for _ in range(3)]\n"
            "print(codes, atexit._ncallbacks() - before)\n"
        )
        assert _child(code) == "[1, 1, 1] 1\n"

    # one command per exit code; stdout and stderr are written in full
    # before the frozen exit, byte for byte as in process
    @pytest.mark.parametrize(
        "argv",
        [
            _MECHANISM_CASES["compare k=12"],
            ["taut", "p | ~p", "--logic", "partition", "--json"],
            ["--help"],
            ["taut", "p &", "--logic", "truth"],
            ["taut"],
            ["eval", "p & q", "--logic", "subset", "--n", "2", "--assign", "p={0}"],
            ["lattice", "--kind", "partition", "--n", "99"],
        ],
        ids=["0", "1", "0 argparse", "2", "2 argparse", "3", "4"],
    )
    def test_module_entry_matches_in_process(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
        code = main(list(argv))
        out, err = capsys.readouterr()
        child = subprocess.run([sys.executable, "-m", "ditkit.cli", *argv], capture_output=True,
                               timeout=60, env=_child_env(COLUMNS="80"))
        assert (child.returncode, child.stdout, child.stderr) == (
            code, out.encode(), err.encode()
        )


_FORMULAS = ["p | ~p", "p -> q", "T", "F", "~~p", "p & q & r", "p &", "(p q)", ")"]
_INTS = st.integers(min_value=-2, max_value=6).map(str)
_BITS = st.text(alphabet="01", min_size=1, max_size=6)
# margins and step bounds whose runs the step cap refuses
_MARGINS = st.one_of(_INTS, st.sampled_from(["1e-12", "5e-324"]))
_STEPS = st.one_of(_INTS, st.just("100000000000"))


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
        {"--margin": _MARGINS, "--threshold": _INTS, "--max-steps": _STEPS},
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
        {"--margin": _MARGINS, "--threshold": _INTS, "--max-steps": _STEPS},
    ),
}
_LIMIT_FLAGS = ["--max-relation-n", "--max-lattice-n", "--max-truth-vars",
                "--max-search-assignments", "--max-switch-bits", "--max-selection-steps"]


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


# inserted as a unit: each is read otherwise than the plain form reads it,
# or refused, or plain but out of place
_INSERTS = st.sampled_from([
    ["-h"], ["--"], [""], ["-"], ["-1"], ["--json", "--dot"], ["--max-lattice-n", "3"],
    ["--n", "3"], ["--n"], ["p"],
])


@st.composite
def _edited_argvs(draw) -> tuple[list[str], bool]:
    """argv from _argvs after up to two edits (an inserted or dropped
    item, an abbreviated flag, a flag joined to its value by "=", or an
    item and the next repeated at the end), and whether any edit was
    drawn."""
    argv = draw(_argvs())
    edits = draw(st.integers(min_value=0, max_value=2))
    for _ in range(edits):
        edit = draw(st.sampled_from(["insert", "drop", "abbreviate", "join", "repeat"]))
        i = draw(st.integers(min_value=0, max_value=len(argv) - 1))
        item = argv[i]
        if edit == "insert":
            argv[i + 1:i + 1] = draw(_INSERTS)
        elif edit == "drop" and len(argv) > 1:
            del argv[i]
        elif edit == "abbreviate" and item.startswith("--") and len(item) > 3:
            argv[i] = item[:draw(st.integers(min_value=3, max_value=len(item) - 1))]
        elif edit == "join" and item.startswith("--") and i + 1 < len(argv):
            argv[i:i + 2] = [f"{item}={argv[i + 1]}"]
        elif edit == "repeat":
            argv += argv[i:i + 2]
    return argv, edits > 0


def _argparse_vars(argv: list[str]) -> dict | None:
    """vars() of argparse's namespace for argv, or None where argparse
    exits: for help, or to refuse argv."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=500)
@given(_edited_argvs())
@example(([], True))
@example((["--max-lattice-n", "3"], True))  # no command word
def test_plain_parse_agrees_with_argparse(case):
    # _parse may leave any argv to argparse, but what it accepts argparse
    # accepts with the same namespace. Unedited argv it leaves to argparse
    # only for a negative number, which argparse reads as a flag's value.
    argv, edited = case
    got, expected = cli._parse(argv), _argparse_vars(argv)
    if got is not None:
        assert vars(got) == expected
    else:
        negative = any(item[:1] == "-" and item[1:].isdigit() for item in argv)
        assert edited or expected is None or negative
