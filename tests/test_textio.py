import re

import pytest

from ditkit import Partition, Subset, TextFormatError, enumerate_partitions, subset_lattice_nodes
from ditkit.textio import (
    format_partition,
    format_subset,
    format_variant,
    parse_answers,
    parse_events,
    parse_int_list,
    parse_names,
    parse_pair_list,
    parse_partition,
    parse_subset,
    parse_variant,
)


class TestPartitionText:
    def test_block_form(self):
        assert parse_partition("0,1|2", 3) == Partition(3, (0, 0, 1))
        assert parse_partition("2|0,1", 3) == Partition(3, (0, 0, 1))
        assert format_partition(Partition(3, (0, 0, 1))) == "0,1|2"

    @pytest.mark.parametrize("n", range(1, 6))
    def test_format_is_str(self, n):
        for p in enumerate_partitions(n):
            assert format_partition(p) == str(p)

    def test_rgs_form(self):
        assert parse_partition("rgs:0,0,1", 3) == Partition(3, (0, 0, 1))
        with pytest.raises(TextFormatError):
            parse_partition("rgs:1,0", 2)
        with pytest.raises(TextFormatError):
            parse_partition("rgs:0,0", 3)

    def test_round_trip(self):
        for p in [Partition(1, (0,)), Partition(4, (0, 1, 0, 2)), Partition(2, (0, 0))]:
            assert parse_partition(format_partition(p), p.n) == p

    def test_named_elements(self):
        names = parse_names("a,b,c")
        p = Partition(3, (0, 0, 1))
        assert format_partition(p, names) == "a,b|c"
        assert parse_partition("a,b|c", 3, names) == p

    @pytest.mark.parametrize(
        "text, names, message",
        [
            ("0,|2", None, "empty element token"),
            ("0,1| ", None, "empty element token"),
            ("a,b|d", ("a", "b", "c"), "unknown element name 'd'"),
            ("rgs:0,x,1", None, "bad rgs digits in 'rgs:0,x,1'"),
            ("rgs:0,,1", None, "bad rgs digits in 'rgs:0,,1'"),
        ],
    )
    def test_refusals(self, text, names, message):
        with pytest.raises(TextFormatError, match=f"^{re.escape(message)}$"):
            parse_partition(text, 3, names)

    def test_garbage(self):
        with pytest.raises(TextFormatError):
            parse_partition("0,1|x", 3)
        with pytest.raises(TextFormatError):
            parse_partition("", 3)
        with pytest.raises(Exception):
            parse_partition("0|1", 3)


class TestSubsetText:
    def test_braces_optional(self):
        assert parse_subset("{0,2}", 3) == Subset.of(3, [0, 2])
        assert parse_subset("0,2", 3) == Subset.of(3, [0, 2])
        assert parse_subset("{}", 3) == Subset.empty(3)
        assert parse_subset("", 3) == Subset.empty(3)

    def test_format(self):
        assert format_subset(Subset.of(3, [2, 0])) == "{0,2}"
        assert format_subset(Subset.empty(3)) == "{}"

    def test_str(self):
        assert str(Subset.of(3, [2, 0])) == "{0,2}"
        assert str(Subset.empty(3)) == "{}"
        assert repr(Subset.of(3, [2, 0])) == "Subset(n=3, members=frozenset({0, 2}))"

    @pytest.mark.parametrize("n", range(1, 6))
    def test_format_is_str(self, n):
        for s in subset_lattice_nodes(n):
            assert format_subset(s) == str(s)

    def test_round_trip(self):
        s = Subset.of(5, [1, 3, 4])
        assert parse_subset(format_subset(s), 5) == s

    def test_garbage(self):
        with pytest.raises(TextFormatError):
            parse_subset("{0,a}", 3)


class TestPairsText:
    def test_pair_list_dash_form(self):
        assert parse_pair_list("0-1,1-2") == [(0, 1), (1, 2)]
        with pytest.raises(TextFormatError):
            parse_pair_list("0-")


class TestSmallParsers:
    def test_names(self):
        assert parse_names("a,b,c") == ("a", "b", "c")
        with pytest.raises(TextFormatError):
            parse_names("a,a")
        with pytest.raises(TextFormatError):
            parse_names("1bad")

    def test_int_list(self):
        assert parse_int_list("3,1,2") == [3, 1, 2]
        with pytest.raises(TextFormatError):
            parse_int_list("1,x")

    def test_answers(self):
        assert parse_answers("0,1,0") == [0, 1, 0]
        with pytest.raises(TextFormatError):
            parse_answers("0,2")

    def test_events(self):
        assert parse_events("1=0,2=1") == [(1, 0), (2, 1)]
        with pytest.raises(TextFormatError):
            parse_events("1=5")
        with pytest.raises(TextFormatError):
            parse_events("x=1")

    @pytest.mark.parametrize(
        "parser, text, message",
        [
            (parse_pair_list, "0-1-2", "bad pair '0-1-2', expected 'u-v'"),
            (parse_pair_list, "0-1,x-1", "bad pair 'x-1', expected integers"),
            (parse_events, "1", "bad event '1', expected 'switch=value'"),
            (parse_events, "1=0,2=x", "bad event '2=x', expected integers"),
            # the first bad item decides the error
            (parse_events, "1=2,x", "switch value must be 0 or 1, got 2"),
            (parse_events, "x,1=2", "bad event 'x', expected 'switch=value'"),
        ],
    )
    def test_pair_list_errors(self, parser, text, message):
        with pytest.raises(TextFormatError) as exc:
            parser(text)
        assert str(exc.value) == message

    def test_blank_pair_lists_are_empty(self):
        assert parse_pair_list(" ") == parse_events("") == []

    def test_variants(self):
        assert parse_variant("010", 3) == 2
        assert format_variant(2, 3) == "010"
        with pytest.raises(TextFormatError):
            parse_variant("0102", 3)
        with pytest.raises(TextFormatError):
            parse_variant("02x", 3)
