import copy
import itertools
import json
import math
import operator
import pickle
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import strategies
from ditkit import mechanisms, textio
from ditkit import (
    AlreadySetError,
    ElementOutOfRangeError,
    Fitness,
    InvalidFitnessError,
    InvalidThresholdError,
    Limits,
    NonPositiveFitnessError,
    Partition,
    ResourceLimitError,
    Scheme,
    SwitchBank,
    SwitchIndexError,
    SwitchState,
    VariantSpace,
    compare_mechanisms,
    consistent_block,
    create,
    discrete,
    dit,
    dual,
    generative_block,
    identify,
    join,
    opposite,
    replay,
    run_generative,
    run_selectionist,
    scheme_relations,
    selection_survivors,
    set_switch,
    switch_partition,
    twenty_questions,
)
from ditkit.mechanisms import Trace, TraceStep
from ditkit.relations import PairRelation


class TestVariantSpace:
    def test_strings(self):
        space = VariantSpace(3)
        assert space.size == 8
        assert space.variants() == range(8)
        assert space.to_string(2) == "010"
        assert space.from_string("010") == 2

    def test_bit_indexing_from_rightmost(self):
        space = VariantSpace(3)
        assert space.bit(0b010, 1) == 0
        assert space.bit(0b010, 2) == 1
        assert space.bit(0b010, 3) == 0

    def test_bad_switch_index(self):
        with pytest.raises(SwitchIndexError):
            VariantSpace(3).bit(0, 4)
        with pytest.raises(SwitchIndexError):
            VariantSpace(3).bit(0, 0)

    @pytest.mark.parametrize("i", [1.5, True, False, "1", None])
    @pytest.mark.parametrize(
        "call",
        [
            lambda i: VariantSpace(3).bit(0, i),
            lambda i: SwitchBank.neutral(3).state_of(i),
            lambda i: set_switch(SwitchBank.neutral(3), i, 1),
            lambda i: switch_partition(3, i),
            lambda i: run_generative(3, [(i, 1)]),
        ],
        ids=["bit", "state_of", "set_switch", "switch_partition", "run_generative"],
    )
    def test_switch_index_must_be_an_int_not_a_bool(self, call, i):
        message = f"^{re.escape(f'switch {i!r} outside 1..3')}$"
        with pytest.raises(SwitchIndexError, match=message):
            call(i)

    @pytest.mark.parametrize("v", [8, 99, -1, True, False, 1.0, "1", None])
    @pytest.mark.parametrize(
        "call",
        [lambda v: VariantSpace(3).bit(v, 1), lambda v: VariantSpace(3).to_string(v)],
        ids=["bit", "to_string"],
    )
    def test_variant_must_be_in_the_space(self, call, v):
        message = f"^{re.escape(f'variant {v!r} outside the 8-variant space')}$"
        with pytest.raises(ElementOutOfRangeError, match=message):
            call(v)

    def test_switch_is_checked_before_the_variant(self):
        with pytest.raises(SwitchIndexError, match=r"^switch 4 outside 1\.\.3$"):
            VariantSpace(3).bit(99, 4)

    def test_bad_strings(self):
        for text in ("01", "0102", " 010", "01x"):
            with pytest.raises(ValueError, match=f"got {text!r}"):
                VariantSpace(3).from_string(text)

    @pytest.mark.parametrize(
        "build",
        [
            lambda k: VariantSpace(k),
            lambda k: SwitchBank.neutral(k),
            lambda k: switch_partition(k, 1),
            lambda k: Fitness.uniform(k),
            lambda k: twenty_questions(k, []),
            # each run checks k before it builds its 2**k labels
            lambda k: run_generative(k, []),
            lambda k: run_selectionist(k, Fitness.uniform(1), 0.1, 1),
        ],
        ids=[
            "VariantSpace", "SwitchBank", "switch_partition", "Fitness", "twenty_questions",
            "run_generative", "run_selectionist",
        ],
    )
    @pytest.mark.parametrize("k", [True, False, 0, -1, 2.0])
    def test_k_must_be_a_positive_int_not_a_bool(self, build, k):
        with pytest.raises(ValueError, match=f"k must be a positive integer, got {k!r}"):
            build(k)


class TestSwitches:
    def test_neutral_bank_is_everything(self):
        bank = SwitchBank.neutral(3)
        assert bank.set_count() == 0
        assert len(consistent_block(bank)) == 8

    def test_setting_halves(self):
        bank = SwitchBank.neutral(3)
        bank = set_switch(bank, 2, 1)
        block = consistent_block(bank)
        assert len(block) == 4
        assert all(VariantSpace(3).bit(v, 2) == 1 for v in block)

    @pytest.mark.parametrize(
        "states",
        [
            (SwitchState.NEUTRAL,),
            (SwitchState.ONE,) * 3,
            (SwitchState.ONE, "1"),
            (SwitchState.ZERO, None),
        ],
    )
    def test_bank_states_must_be_k_switch_states(self, states):
        with pytest.raises(ValueError, match="^states must be k SwitchState values$"):
            SwitchBank(2, states)

    def test_already_set(self):
        bank = set_switch(SwitchBank.neutral(2), 1, 0)
        with pytest.raises(AlreadySetError):
            set_switch(bank, 1, 1)
        flipped = set_switch(bank, 1, 1, overwrite=True)
        assert flipped.state_of(1) == SwitchState.ONE

    def test_switch_partition_blocks(self):
        p = switch_partition(2, 1)
        # rightmost digit: 00,10 together vs 01,11 together
        assert p == Partition(4, (0, 1, 0, 1))
        p2 = switch_partition(2, 2)
        assert p2 == Partition(4, (0, 0, 1, 1))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_join_of_all_switches_is_discrete(self, k):
        parts = [switch_partition(k, i) for i in range(1, k + 1)]
        total = parts[0]
        for p in parts[1:]:
            total = join(total, p)
        assert total == discrete(2 ** k)

    def test_switch_dits_cover_square(self):
        k = 3
        union = PairRelation.empty(2 ** k)
        for i in range(1, k + 1):
            union = union | dit(switch_partition(k, i))
        assert union == PairRelation.diagonal(2 ** k).complement()

    def test_limit(self):
        with pytest.raises(ResourceLimitError):
            switch_partition(11, 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_block_matches_per_switch_oracle(self, k):
        # every bank of k three-state switches: 3**k of them
        for states in itertools.product(SwitchState, repeat=k):
            settings = {
                i: int(s.value) for i, s in enumerate(states, start=1)
                if s is not SwitchState.NEUTRAL
            }
            expected = oracles.switch_block(k, settings)
            assert consistent_block(SwitchBank(k, states)) == expected
            trace = run_generative(k, settings.items())
            assert generative_block(trace) == expected
            block = trace.final["block"]
            assert block == sorted(block) and len(block) == len(expected)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_built_block_is_the_scan_in_order(self, k):
        # every mask, with every want that reads only switches under it
        for mask in range(2**k):
            for want in range(2**k):
                if want & ~mask == 0:
                    expected = [v for v in range(2**k) if v & mask == want]
                    assert mechanisms._agreeing(k, mask, want) == expected, (mask, want)

    def test_block_of_high_switches_at_k20(self):
        # switches 20 and 17 read 1 and 18 reads 0; 19 and 1..16 are free
        bank = SwitchBank.neutral(20)
        for i, value in [(20, 1), (18, 0), (17, 1)]:
            bank = set_switch(bank, i, value)
        want = 1 << 19 | 1 << 16
        block = mechanisms._agreeing(20, 1 << 19 | 1 << 17 | 1 << 16, want)
        assert len(block) == 2**17
        assert block == [want | high | low for high in (0, 1 << 18) for low in range(2**16)]
        assert consistent_block(bank) == frozenset(block)

    def test_every_switch_set_at_k30_is_one_variant(self):
        # the block is built, not found among all 2**30 variants
        target = int("10" * 15, 2)
        states = [SwitchState.ONE if target >> i & 1 else SwitchState.ZERO for i in range(30)]
        assert consistent_block(SwitchBank(30, tuple(states))) == frozenset({target})


def _settings_bits(settings: dict[int, int]) -> tuple[int, int]:
    mask = sum(1 << (i - 1) for i in settings)
    want = sum(value << (i - 1) for i, value in settings.items())
    return mask, want


class TestSelect:
    """mechanisms._select slices the entries of a bank's block out of a
    table of all 2**k: strided for a switch with no free one below it,
    by runs otherwise."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_every_bank_on_ints_and_labels(self, k):
        # every bank of k three-state switches: 3**k of them
        ints, labels = list(range(2**k)), mechanisms._labels(k)
        for states in itertools.product((None, 0, 1), repeat=k):
            settings = {i: s for i, s in enumerate(states, start=1) if s is not None}
            expected = sorted(oracles.switch_block(k, settings))
            mask, want = _settings_bits(settings)
            assert mechanisms._select(ints, mask, want) == expected, settings
            assert mechanisms._select(labels, mask, want) == [labels[v] for v in expected]

    @pytest.mark.parametrize("overwrite", [False, True], ids=["set once", "overwrite"])
    @pytest.mark.parametrize("k", [10, 12])
    def test_seeded_event_sequences(self, k, overwrite):
        rng = random.Random(f"select {k} {overwrite}")
        for _ in range(3):
            if overwrite:  # switches may repeat, so settings are overwritten
                switches = [rng.randint(1, k) for _ in range(k + 4)]
            else:
                switches = rng.sample(range(1, k + 1), rng.randint(1, k))
            experience = [(i, rng.randint(0, 1)) for i in switches]
            trace = run_generative(k, experience, overwrite=overwrite)
            settings: dict[int, int] = {}
            for step, event in zip(trace.steps, [None, *experience]):
                if event is not None:
                    settings[event[0]] = event[1]
                expected = sorted(oracles.switch_block(k, settings))
                assert step.state["block"] == [format(v, f"0{k}b") for v in expected]

    def test_blocks_are_fresh_lists(self):
        k = 4
        labels = mechanisms._labels(k)
        assert mechanisms._select(labels, 0, 0) is not labels
        # the second run has steps with equal blocks
        for events, overwrite in [([(3, 1), (1, 0), (2, 1), (4, 0)], False),
                                  ([(3, 1), (3, 1), (1, 0), (1, 0)], True)]:
            blocks = [step.state["block"] for step in run_generative(k, events, overwrite).steps]
            want = [list(block) for block in blocks]
            assert len({id(block) for block in blocks}) == len(blocks) == len(events) + 1
            for i, block in enumerate(blocks):  # each edit leaves the later blocks as they were
                block[0] = "x"
                block.append("y")
                assert blocks[i + 1 :] == want[i + 1 :]
            fresh = run_generative(k, events, overwrite)
            assert [step.state["block"] for step in fresh.steps] == want


class TestFitness:
    def test_uniform_and_peaked(self):
        f = Fitness.uniform(2)
        assert f.score(0) == f.score(3) == 1.0
        g = Fitness.peaked(2, 0b10, 0.5)
        assert g.score(2) == 1.5
        assert g.score(0) == 1.0
        assert g.argmax_set() == frozenset({2})

    def test_from_text(self):
        f = Fitness.from_text(2, "# comment\n00 1.0\n01 2.0\n10 1.0\n11 1.0\n")
        assert f.score(1) == 2.0

    def test_from_text_requires_coverage(self):
        with pytest.raises(InvalidFitnessError):
            Fitness.from_text(2, "00 1.0\n")

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveFitnessError):
            Fitness(1, (0.0, 1.0))
        with pytest.raises(NonPositiveFitnessError):
            Fitness(1, (math.inf, 1.0))

    @pytest.mark.parametrize(
        "scores, named",
        [
            ((1.0, -1.0, 0.0, math.nan), "fitness of 01 must be positive, got -1.0"),
            ((1.0, 2.0, math.nan, 0.0), "fitness of 10 must be positive, got nan"),
            ((1.0, 2.0, 3.0, -0.0), "fitness of 11 must be positive, got -0.0"),
            ((-math.inf, 1.0, 1.0, 1.0), "fitness of 00 must be positive, got -inf"),
            ((5e-324, 1.0, 1e308, math.inf), "fitness of 11 must be positive, got inf"),
        ],
    )
    def test_names_the_first_offender(self, scores, named):
        with pytest.raises(NonPositiveFitnessError, match=f"^{re.escape(named)}$"):
            Fitness(2, scores)

    def test_scores_become_floats(self):
        f = Fitness(1, (1, True))
        assert f.scores == (1.0, 1.0) and set(map(type, f.scores)) == {float}

    def test_peaked_needs_positive_margin(self):
        with pytest.raises(InvalidFitnessError):
            Fitness.peaked(2, 0, 0.0)
        with pytest.raises(ElementOutOfRangeError):
            Fitness.peaked(2, 9, 1.0)

    @pytest.mark.parametrize("target", [1.5, True, False, "1", None])
    def test_target_must_be_an_int_not_a_bool(self, target):
        message = f"^{re.escape(f'target {target!r} outside the 8-variant space')}$"
        with pytest.raises(ElementOutOfRangeError, match=message):
            Fitness.peaked(3, target, 1.0)
        with pytest.raises(ElementOutOfRangeError, match=message):
            compare_mechanisms(3, target, 1.0)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("00 1.0\n01", "line 2: expected 'variant score', got '01'"),
            ("00 1.0\n  01 2.0 3.0 ", "line 2: expected 'variant score', got '  01 2.0 3.0 '"),
            ("# scores\n\n00 1.0\n00 2.0\n", "line 4: duplicate variant 00"),
            ("00 1.0\n01 high\n", "line 2: bad score 'high'"),
        ],
    )
    def test_from_text_refusals(self, text, message):
        with pytest.raises(InvalidFitnessError, match=f"^{re.escape(message)}$"):
            Fitness.from_text(1, text)

    def test_score_count_must_match_k(self):
        with pytest.raises(InvalidFitnessError, match=r"^expected 4 scores for k=2, got 3$"):
            Fitness(2, (1.0, 1.0, 1.0))


@st.composite
def selection_cases(draw):
    """A selectionist run's arguments at k <= 6: a fitness table of 1 to
    2**k distinct scores spread over the variants with ties, or a peak
    with a margin down to 1e-12; a threshold anywhere in (0, 1/2**k)."""
    k = draw(st.integers(min_value=1, max_value=6))
    size = 2**k
    if draw(st.booleans()):
        margin = draw(st.one_of(
            st.floats(min_value=1e-12, max_value=1e-6),
            st.floats(min_value=1e-6, max_value=10.0),
        ))
        fitness = Fitness.peaked(k, draw(st.integers(min_value=0, max_value=size - 1)), margin)
    else:
        distinct = draw(st.lists(
            st.floats(min_value=5e-324, max_value=1.7e308), min_size=1, max_size=size, unique=True,
        ))
        slots = draw(st.lists(
            st.integers(min_value=0, max_value=len(distinct) - 1), min_size=size, max_size=size,
        ))
        fitness = Fitness(k, tuple(distinct[i] for i in slots))
    threshold = draw(st.floats(
        min_value=0.0, max_value=1.0 / size, exclude_min=True, exclude_max=True,
    ))
    return k, fitness, threshold, draw(st.integers(min_value=1, max_value=60))


@st.composite
def repeated_sums(draw):
    """(total, w, m) for mechanisms._repeated_sum, m up to 2**13: total a
    multiple q of u = 2**e, often near the binade's end, and w = i/4 * u,
    a tie when i/4 is; w a small fraction of total, so that the sums
    cross binades; a subnormal total with a subnormal w or a weight up to
    1.0, as a fold starts from 0.0; a total of at least 2**1023; or w of
    0.0, inf or nan."""
    kind = draw(st.sampled_from(["grid", "crossing", "subnormal", "huge", "special"]))
    m = draw(st.integers(min_value=1, max_value=2**13))
    if kind == "grid":
        e = draw(st.integers(min_value=-1072, max_value=971))
        q = draw(st.one_of(
            st.integers(min_value=2**52, max_value=2**53 - 1),
            st.integers(min_value=1, max_value=2**13).map(lambda j: 2**53 - j),
        ))
        i = draw(st.integers(min_value=1, max_value=2**6) | st.integers(min_value=1, max_value=2**14))
        return math.ldexp(q, e), math.ldexp(i, e - 2), m
    if kind == "crossing":
        total = draw(st.floats(min_value=2.0**-1000, max_value=2.0**1000))
        shrink = draw(st.floats(min_value=0.5, max_value=1.0))
        return total, total * shrink * 2.0 ** -draw(st.integers(0, 60)), m
    if kind == "subnormal":
        total = draw(st.integers(min_value=0, max_value=2**53 - 1)) * 5e-324
        w = draw(st.one_of(
            st.integers(min_value=1, max_value=2**20).map(lambda j: j * 5e-324),
            st.floats(min_value=0.0, max_value=1.0),
        ))
        return total, w, m
    if kind == "huge":
        total = draw(st.floats(min_value=2.0**1023, max_value=1.7976931348623157e308))
        return total, draw(st.floats(min_value=0.0, max_value=2.0**1023)), m
    total = draw(st.one_of(st.floats(min_value=0.0), st.just(math.inf), st.just(math.nan)))
    return total, draw(st.sampled_from([0.0, math.inf, math.nan])), m


def _outcome(run, *args):
    try:
        trace = run(*args)
    except ArithmeticError as exc:  # a total that overflows culls everything
        return type(exc).__name__
    return trace, trace.to_json()


class TestSelectionist:
    @given(selection_cases())
    def test_class_run_matches_per_variant_run(self, case):
        # one weight per fitness class gives the weights, snapshots and
        # bytes of one weight per variant
        assert _outcome(run_selectionist, *case) == _outcome(oracles.selection_trace, *case)

    @settings(max_examples=1000)
    @given(repeated_sums())
    def test_repeated_sum_is_the_plain_loop(self, case):
        total, w, m = case
        want = total
        for _ in range(m):
            want += w
        assert repr(mechanisms._repeated_sum(total, w, m)) == repr(want)

    @pytest.mark.parametrize("k, seed", [(9, 1), (10, 2), (11, 3), (12, 4), (12, 5)])
    def test_runs_across_pieces_match_per_variant_run(self, k, seed):
        # runs of 60 to 400 variants, so that runs straddle the multiples
        # of _PIECE at which the maps' pieces are cut, and culls within a
        # few steps
        rng = random.Random(seed)
        scores = []
        while len(scores) < 2**k:
            choices = [s for s in (0.5, 0.75, 1.0, 1.5, 3.0) if not scores or s != scores[-1]]
            scores += [rng.choice(choices)] * rng.randint(60, 400)
        del scores[2**k :]
        ends = [v + 1 for v in range(2**k - 1) if scores[v] != scores[v + 1]]
        assert any(a // textio._PIECE != (b - 1) // textio._PIECE
                   for a, b in zip([0, *ends], [*ends, 2**k]))
        case = (k, Fitness(k, tuple(scores)), 0.5 / 2**k, 8)
        trace, text = _outcome(run_selectionist, *case)
        assert (trace, text) == _outcome(oracles.selection_trace, *case)
        assert trace.final["extinct"] and len(trace.steps) > 2

    def test_all_distinct_scores_match_per_variant_run(self):
        rng = random.Random(9)
        case = (9, Fitness(9, tuple(rng.uniform(0.5, 2.0) for _ in range(2**9))), 0.5 / 2**9, 30)
        trace, text = _outcome(run_selectionist, *case)
        assert (trace, text) == _outcome(oracles.selection_trace, *case)
        assert len(trace.final["extinct"]) > 2**8

    @pytest.mark.parametrize("fitness", ["peaked", "scattered"])
    @pytest.mark.parametrize("k", [3, 6, 12])
    def test_filled_maps_are_the_per_variant_maps(self, k, fitness):
        # each step's read-only dict, filled from its compact state, holds
        # the per-variant run's {labels[v]: weight}, key for key in variant
        # order
        rng = random.Random(k)
        if fitness == "peaked":
            scores = Fitness.peaked(k, rng.randrange(2**k), 1.0)
        else:
            scores = Fitness(k, tuple(rng.choice([0.5, 1.0, 1.5, 3.0]) for _ in range(2**k)))
        case = (k, scores, 0.5 / 2**k, 40)
        trace, oracle = run_selectionist(*case), oracles.selection_trace(*case)
        assert len(trace.steps) == len(oracle.steps) > 1
        for step, want in zip(trace.steps, oracle.steps):
            weights = step.state["weights"]
            assert type(weights) is mechanisms._WeightMap
            assert type(weights._compact) is mechanisms._Weights
            assert list(weights.items()) == list(want.state["weights"].items())
            assert step.state["extinct"] == want.state["extinct"]

    def test_snapshots_share_no_list_or_map(self):
        # editing one snapshot leaves the others as they were
        trace = run_selectionist(2, Fitness(2, (4.0, 2.0, 1.0, 1.0)), 0.2, 20)
        assert [step.state["extinct"] for step in trace.steps[1:3]] == [["10", "11"]] * 2
        for key in ("weights", "extinct"):
            held = [step.state[key] for step in trace.steps]
            assert len(set(map(id, held))) == len(held)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_labels(self, k):
        assert mechanisms._labels(k) == [format(v, f"0{k}b") for v in range(2**k)]

    @pytest.mark.parametrize("fitness", ["uniform", "peaked", "all distinct"])
    @pytest.mark.parametrize("k", range(1, 13))
    def test_run_pieces(self, k, fitness):
        # every map of a run shares one list of pieces: each the number of
        # its class, the prefix of one aligned block of 2**min(8, k)
        # variants and a slice of the run's one low table, of at most
        # _PIECE labels of that class; prefixes and lows spell the labels
        scores = {
            "uniform": [1.0] * 2**k,
            "peaked": [1.0 + (v == 2**k // 3) for v in range(2**k)],
            "all distinct": [1.0 + v for v in range(2**k)],
        }[fitness]
        labels = mechanisms._labels(k)
        trace = run_selectionist(k, Fitness(k, tuple(scores)), 0.5 / 2**k, 1)
        pieces = trace.final["weights"]._compact._pieces
        assert all(step.state["weights"]._compact._pieces is pieces for step in trace.steps)
        assert all(1 <= len(lows) <= textio._PIECE for _, _, lows in pieces)
        assert [prefix + low for _, prefix, lows in pieces for low in lows] == labels
        h = min(8, k)
        assert len({id(low) for _, _, lows in pieces for low in lows}) == 2**h
        of = {s: c for c, s in enumerate(dict.fromkeys(scores))}  # each score's class
        for c, prefix, lows in pieces:
            assert len(prefix) == k - h and all(len(low) == h for low in lows)
            assert {of[scores[int(prefix + low, 2)]] for low in lows} == {c}

    def test_peak_survives_alone(self):
        trace = run_selectionist(3, Fitness.peaked(3, 0b010, 1.0), 0.0625, 100)
        assert selection_survivors(trace) == frozenset({0b010})

    def test_weights_conserved_each_step(self):
        trace = run_selectionist(3, Fitness.peaked(3, 5, 0.7), 0.05, 50)
        for step in trace.steps:
            total = sum(step.state["weights"].values())
            assert total == pytest.approx(1.0)

    def test_extinction_is_permanent_and_monotone(self):
        trace = run_selectionist(3, Fitness.peaked(3, 1, 0.9), 0.1, 50)
        seen: set[str] = set()
        for step in trace.steps:
            extinct = set(step.state["extinct"])
            assert seen <= extinct
            for name in extinct:
                assert step.state["weights"][name] == 0.0
            seen = extinct

    def test_top_variant_never_culled(self):
        trace = run_selectionist(2, Fitness.peaked(2, 3, 2.0), 0.2, 50)
        space = VariantSpace(2)
        for step in trace.steps:
            assert space.to_string(3) not in step.state["extinct"]

    def test_tie_keeps_both(self):
        scores = (2.0, 1.0, 2.0, 1.0)
        trace = run_selectionist(2, Fitness(2, scores), 0.1, 100)
        assert selection_survivors(trace) == frozenset({0, 2})

    def test_threshold_bounds(self):
        f = Fitness.uniform(2)
        with pytest.raises(InvalidThresholdError):
            run_selectionist(2, f, 0.0, 10)
        with pytest.raises(InvalidThresholdError):
            run_selectionist(2, f, 0.25, 10)
        with pytest.raises(InvalidThresholdError):
            run_selectionist(2, f, -0.1, 10)

    def test_fitness_universe_mismatch(self):
        with pytest.raises(InvalidFitnessError):
            run_selectionist(3, Fitness.uniform(2), 0.01, 10)

    @pytest.mark.parametrize("max_steps", [0, -1])
    def test_max_steps_must_be_positive(self, max_steps):
        with pytest.raises(ValueError, match=f"^max_steps must be >= 1, got {max_steps}$"):
            run_selectionist(2, Fitness.uniform(2), 0.1, max_steps)

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=15))
    def test_convergence_for_any_peak(self, k, target):
        target %= 2 ** k
        trace = run_selectionist(k, Fitness.peaked(k, target, 1.0), 0.5 / 2 ** k, 200)
        assert selection_survivors(trace) == frozenset({target})


class TestSelectionStepCap:
    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("selectionist run started before the step cap check")

    def test_run_refused_before_first_snapshot(self, monkeypatch):
        monkeypatch.setattr(mechanisms, "_labels", self.refuse)
        with pytest.raises(ResourceLimitError, match="^10001 selection steps exceeds the cap 10000$"):
            run_selectionist(3, Fitness.uniform(3), 0.01, 10_001)
        tight = Limits().replaced(max_selection_steps=5)
        with pytest.raises(ResourceLimitError, match="^6 selection steps exceeds the cap 5$"):
            run_selectionist(3, Fitness.uniform(3), 0.01, 6, tight)

    @pytest.mark.parametrize(
        "margin, max_steps, steps",
        [
            (1e-12, None, "2772588722244"),  # derived from the margin
            (5e-324, None, "inf"),  # a subnormal margin overflows the derivation
            (1.0, 10**12, "1000000000000"),
        ],
    )
    def test_compare_refused_before_either_run(self, monkeypatch, margin, max_steps, steps):
        for name in ("_labels", "run_generative"):
            monkeypatch.setattr(mechanisms, name, self.refuse)
        with pytest.raises(ResourceLimitError, match=f"^{steps} selection steps exceeds"):
            compare_mechanisms(3, 2, margin, max_steps=max_steps)

    def test_infinite_steps_are_over_the_cap(self, monkeypatch):
        # the cap is checked before the type, so inf is a resource refusal
        monkeypatch.setattr(mechanisms, "_labels", self.refuse)
        with pytest.raises(ResourceLimitError, match="^inf selection steps exceeds the cap 10000$"):
            run_selectionist(2, Fitness.peaked(2, 1, 1.0), 0.1, math.inf)

    @pytest.mark.parametrize("max_steps", [math.nan, 2.5, 3.0, True, False, -math.inf, "3", 0, -1])
    @pytest.mark.parametrize("entry", ["run_selectionist", "compare_mechanisms", "replay"])
    def test_steps_must_be_a_positive_int(self, monkeypatch, entry, max_steps):
        # refused before anything is built, bools included; ints below 1
        # keep their own message
        for name in ("_labels", "run_generative"):
            monkeypatch.setattr(mechanisms, name, self.refuse)
        if type(max_steps) is int:
            message = f"^max_steps must be >= 1, got {max_steps}$"
        else:
            message = f"^{re.escape(f'max_steps must be an int, got {max_steps!r}')}$"
        fitness = Fitness.peaked(2, 1, 1.0)
        with pytest.raises(ValueError, match=message):
            if entry == "run_selectionist":
                run_selectionist(2, fitness, 0.1, max_steps)
            elif entry == "compare_mechanisms":
                compare_mechanisms(2, 1, 1.0, max_steps=max_steps)
            else:
                params = {"fitness": fitness, "extinction_threshold": 0.1, "max_steps": max_steps}
                replay(Trace("selectionist", 2, (), params))

    def test_runs_up_to_the_cap(self):
        tight = Limits().replaced(max_selection_steps=6)
        assert len(run_selectionist(3, Fitness.uniform(3), 0.01, 6, tight).steps) == 1
        # margin 1 at k = 3 derives ceil(log 16 / log 2) + 2 = 6 steps
        assert compare_mechanisms(3, 2, 1.0, limits=tight).agreement
        with pytest.raises(ResourceLimitError):
            compare_mechanisms(3, 2, 1.0, limits=tight.replaced(max_selection_steps=5))

    def test_zero_threshold_refused_before_steps_are_derived(self):
        with pytest.raises(InvalidThresholdError):
            compare_mechanisms(3, 2, 1.0, extinction_threshold=0.0)


class TestGenerative:
    def test_worked_scenario(self):
        trace = run_generative(3, [(1, 0), (2, 1), (3, 0)])
        sizes = [len(step.state["block"]) for step in trace.steps]
        assert sizes == [8, 4, 2, 1]
        assert trace.steps[1].state["block"] == ["000", "010", "100", "110"]
        assert generative_block(trace) == frozenset({0b010})

    def test_duplicate_switch_needs_overwrite(self):
        with pytest.raises(AlreadySetError):
            run_generative(2, [(1, 0), (1, 1)])
        trace = run_generative(2, [(1, 0), (1, 1)], overwrite=True)
        assert all(VariantSpace(2).bit(v, 1) == 1 for v in generative_block(trace))

    def test_events_recorded(self):
        trace = run_generative(2, [(2, 1)])
        assert trace.events() == [{"switch": 2, "value": "1"}]

    @pytest.mark.parametrize(
        "value, text",
        [(1, "1"), (True, "1"), (SwitchState.ONE, "1"),
         (0, "0"), (False, "0"), (SwitchState.ZERO, "0")],
    )
    def test_event_value_is_read_as_its_option(self, value, text):
        trace = run_generative(2, [(2, value), (1, value)])
        assert trace.events() == [{"switch": 2, "value": text}, {"switch": 1, "value": text}]
        recorded = trace.params["experience"]
        assert recorded == ((2, int(text)), (1, int(text)))
        assert {type(v) for _, v in recorded} == {int}

    def test_bad_value_is_refused_before_bad_switch(self):
        with pytest.raises(ValueError, match="switch value must be 0, 1"):
            run_generative(2, [(9, 2)])
        with pytest.raises(SwitchIndexError):
            run_generative(2, [(9, 1)])
        with pytest.raises(ValueError, match="back to neutral"):
            run_generative(2, [(1, SwitchState.NEUTRAL)])

    @given(st.data())
    def test_every_snapshot_matches_per_switch_oracle(self, data):
        # each snapshot builds its block from the bank, fresh setting or overwrite
        k = data.draw(st.integers(min_value=1, max_value=6))
        overwrite = data.draw(st.booleans())
        switch = st.integers(min_value=1, max_value=k)
        switches = data.draw(st.lists(switch, max_size=2 * k, unique=not overwrite))
        experience = [(i, data.draw(st.integers(0, 1))) for i in switches]
        trace = run_generative(k, experience, overwrite=overwrite)
        settings: dict[int, int] = {}
        for step, event in zip(trace.steps, [None, *experience]):
            if event is not None:
                settings[event[0]] = event[1]
            block = [int(s, 2) for s in step.state["block"]]
            assert block == sorted(oracles.switch_block(k, settings)), (experience, step.index)


class TestIdentify:
    def test_example(self):
        assert identify(3, [(0, 1)]) == Partition(3, (0, 0, 1))

    def test_out_of_range(self):
        with pytest.raises(ElementOutOfRangeError):
            identify(2, [(0, 5)])

    @given(st.integers(min_value=1, max_value=6), st.data())
    def test_matches_closure_route(self, n, data):
        # the fixpoint closure shares no code with identify's component labels
        pool = [(u, v) for u in range(n) for v in range(n)]
        pairs = data.draw(st.lists(st.sampled_from(pool), max_size=10))
        labels = identify(n, pairs).assignment
        glued = frozenset((u, v) for u, v in pool if labels[u] == labels[v])
        assert glued == oracles.closure_fixpoint(n, frozenset(pairs))


class TestCreate:
    def test_grows_one_at_a_time(self):
        trace = create(3, [2, 0, 2])
        sizes = [len(step.state["members"]) for step in trace.steps]
        assert sizes == [0, 1, 2, 2]
        assert trace.steps[3].event == {"add": 2, "duplicate": True}
        assert trace.final["members"] == [0, 2]

    def test_out_of_range(self):
        with pytest.raises(ElementOutOfRangeError):
            create(2, [3])


class TestTwentyQuestions:
    def test_full_answers_single_out(self):
        assert twenty_questions(3, [0, 1, 0]) == frozenset({0b010})

    def test_partial_answers(self):
        block = twenty_questions(3, [1])
        assert len(block) == 4
        assert all(VariantSpace(3).bit(v, 1) == 1 for v in block)

    def test_no_answers(self):
        assert len(twenty_questions(2, [])) == 4

    def test_too_many_answers(self):
        with pytest.raises(SwitchIndexError):
            twenty_questions(2, [0, 1, 0])

    @pytest.mark.parametrize("answer", [2, -1, "1", None])
    def test_answers_must_be_0_or_1(self, answer):
        message = f"^{re.escape(f'answers must be 0 or 1, got {answer!r}')}$"
        with pytest.raises(ValueError, match=message):
            twenty_questions(3, [0, answer])

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_per_switch_oracle(self, k):
        for m in range(k + 1):
            for answers in itertools.product((0, 1), repeat=m):
                expected = oracles.switch_block(k, dict(enumerate(answers, start=1)))
                assert twenty_questions(k, answers) == expected

    def test_three_answers_at_k20(self):
        # switches 1..3 read 1, 0, 1; the 17 high switches are free
        block = twenty_questions(20, [1, 0, 1])
        assert len(block) == 2**17
        assert block == frozenset(range(0b101, 2**20, 8))

    def test_all_answers_at_k30(self):
        answers = [1, 0] * 15
        target = sum(a << j for j, a in enumerate(answers))
        assert twenty_questions(30, answers) == frozenset({target})


_STOPS = [(1, "1 step"), (2, "2 steps"), (None, "default")]  # max_steps and its test id


class TestCompare:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_agreement_for_every_target(self, k):
        for target in range(2 ** k):
            result = compare_mechanisms(k, target, 1.0)
            assert result.agreement
            assert selection_survivors(result.selectionist) == frozenset({target})
            assert generative_block(result.generative) == frozenset({target})

    @pytest.mark.parametrize(
        "margin, max_steps",
        [  # at 1e-17 the derived step count is over the cap
            pytest.param(margin, steps, id=f"{margin}-{stop}")
            for margin, stops in [(1.0, _STOPS), (1e-3, _STOPS), (1e-17, _STOPS[:2])]
            for steps, stop in stops
        ],
    )
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_agreement_is_the_set_test(self, k, margin, max_steps):
        # read off the final states, agreement is the set test it replaced,
        # on runs that converge and on runs stopped short of it; at a margin
        # of 1e-17, 1.0 + margin == 1.0, so the target shares one fitness
        # class with every variant
        agreements = set()
        for target in range(2**k):
            result = compare_mechanisms(k, target, margin, max_steps=max_steps)
            assert result.agreement is oracles.comparison_agrees(result), target
            agreements.add(result.agreement)
        if max_steps is None:
            assert agreements == {True}

    def test_margin_must_be_positive(self):
        with pytest.raises(InvalidFitnessError):
            compare_mechanisms(2, 1, 0.0)

    def test_json_embeds_both_traces(self):
        result = compare_mechanisms(2, 3, 1.0)
        got = json.loads(result.to_json())
        assert got["agreement"] is True
        assert got["target"] == "11"
        assert got["selectionist"]["mechanism"] == "selectionist"
        assert got["selectionist"]["final"]["weights"]["11"] == 1.0
        assert got["generative"]["final"]["block"] == ["11"]

    def test_runs_share_one_label_table(self, label_tables):
        # compare fills both runs from one table, so the generative blocks
        # hold the very strings that key the selectionist maps
        limits = Limits().replaced(max_switch_bits=12)
        result = compare_mechanisms(12, 0b010110100101, 1.0, limits=limits)
        assert label_tables == [2**12]
        keys = {label: label for label in result.selectionist.final["weights"]}
        for step in result.generative.steps:
            assert all(keys[label] is label for label in step.state["block"])
        assert len(result.generative.steps[0].state["block"]) == 2**12

    @pytest.mark.parametrize("k", range(1, 7))
    def test_runs_are_the_public_runs(self, k):
        # compare derives its arguments and calls the two public runs
        threshold = 0.5 / 2**k
        max_steps = math.ceil(math.log(1.0 / threshold) / math.log1p(1.0)) + 2
        for target in range(2**k):
            result = compare_mechanisms(k, target, 1.0)
            fitness = Fitness.peaked(k, target, 1.0)
            selection = run_selectionist(k, fitness, threshold, max_steps)
            experience = [(i, target >> (i - 1) & 1) for i in range(1, k + 1)]
            generation = run_generative(k, experience)
            assert (result.selectionist, result.generative) == (selection, generation)
            # a trace compares without its params, which hold the arguments
            assert result.selectionist.params == selection.params
            assert result.generative.params == generation.params
            assert result.selectionist.to_json() == selection.to_json()
            assert result.generative.to_json() == generation.to_json()

    def test_step_cap_refused_before_labels(self, monkeypatch):
        def refuse(k):
            raise AssertionError("labels built before the step cap check")

        monkeypatch.setattr(mechanisms, "_labels", refuse)
        with pytest.raises(ResourceLimitError):
            compare_mechanisms(3, 2, 1e-12)


def _dumped(document) -> str:
    return json.dumps(document.to_json_dict(), sort_keys=True)


class _Text(str):
    pass


def _assert_chunks_match_dumps(document) -> None:
    """The chunks of document join to json.dumps(document, sort_keys=True),
    or raise the exception type that it raises."""
    try:
        expected = json.dumps(document, sort_keys=True)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)):
            "".join(textio._json_chunks(document))
    else:
        assert "".join(textio._json_chunks(document)) == expected


def _weights_trace(*maps: dict) -> Trace:
    steps = [TraceStep(i, None, {"weights": w, "extinct": []}) for i, w in enumerate(maps)]
    return Trace("selectionist", 3, tuple(steps))


_LABELS = [format(v, "03b") for v in range(8)]


class TestJsonBytes:
    """to_json() is exactly json.dumps(to_json_dict(), sort_keys=True)."""

    @given(strategies.traces())
    def test_hand_built_traces(self, trace):
        assert trace.to_json() == _dumped(trace)

    @given(strategies.comparisons())
    def test_hand_built_comparisons(self, comparison):
        assert comparison.to_json() == _dumped(comparison)

    @given(strategies.json_documents())
    def test_any_document(self, document):
        _assert_chunks_match_dumps(document)

    def test_ascii_escapes_are_the_encoders(self):
        # textio decides without loading _json which characters need an
        # escape, for a str leaf and for a list of labels alike
        from _json import encode_basestring_ascii

        for c in map(chr, range(128)):
            text = encode_basestring_ascii(c)
            assert textio._str_text(c) == text
            items = ["0", c + "1", "1" + c]
            assert (textio._label_chunks(items) is None) == (text != f'"{c}"'), repr(c)
            assert "".join(textio._json_chunks(items)) == json.dumps(items)

    # any code point, lone surrogates among them, and the characters
    # json escapes or writes as \u sequences
    @given(st.text(alphabet=st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from('"\\\x00\x1f\x7f\x80\u00e9\ud800\udfff\U0001f600 0'),
    )))
    def test_str_text_is_the_encoders(self, text):
        from _json import encode_basestring_ascii

        assert textio._str_text(text) == encode_basestring_ascii(text)

    @pytest.mark.parametrize(
        "document",
        [
            {1: "a", "b": 2},  # keys json.dumps cannot sort
            {"a": [{None: 1, "x": 2}]},
            {"a": {(1, 2): 3}},  # a key json.dumps refuses
            [1, 2, object()],
            ["0", "1", b"01"],
            ["0", 1, 2.5, None, True, "\"", [], {}],
            [True, 1, 1.0, False, 0, -0.0],
            {"a": 10**5000},  # more digits than int() may write
            [math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324],
            _Text("0"),
            [_Text("0"), _Text("1")],
            ["0", _Text("1")],
            {"a": _Text("1")},
            ["01"] * 513,  # three pieces
            ["01"] * 300 + ["\""],  # an escape in the second piece
            ["01"] * 300 + [1],  # an int in the second piece
            ["01"] * 300 + ["\\"] + ["01"] * 3,
            ["01"] * 300 + ["\x07"] + ["01"] * 3,
            ["01"] * 300 + ["\u00e9"] + ["01"] * 3,
            ["01"] * 300 + ["\x7f"] + ["01"] * 3,
            ["01"] * 300 + ["\ud800"] + ["01"] * 3,  # a lone surrogate
            ["01"] * 300 + ['0", "1'] + ["01"] * 3,  # a label that holds the separator
            ["01"] * 300 + [None] + ["01"] * 3,
            ["", "", ""],
        ],
        ids=["mixed keys", "mixed keys nested", "tuple key", "object", "bytes",
             "mixed list", "bools and numbers", "huge int", "special floats",
             "str subclass", "str subclasses", "str subclass second", "str subclass value",
             "long list", "escape in a later piece", "int in a later piece",
             "backslash in a later piece", "control character in a later piece",
             "non-ASCII in a later piece", "DEL in a later piece", "surrogate in a later piece",
             "separator in a later piece", "None in a later piece", "empty strings"],
    )
    def test_document_corners(self, document):
        _assert_chunks_match_dumps(document)

    @pytest.mark.parametrize("shape", ["dict", "list", "dict in list", "through int keys",
                                       "through final", "deep"])
    def test_cycles_raise_as_json_does(self, shape):
        document = {"a": {}}
        if shape == "dict":
            document["a"] = document
        elif shape == "list":
            document = [1, "0"]
            document.append(document)
        elif shape == "dict in list":
            document["a"] = [{"b": document}]
        elif shape == "through int keys":  # json.dumps renders that dict whole
            document["a"] = {1: [document]}
        elif shape == "through final":  # the cycle starts under a trace's "final" key
            document = {"final": {"a": []}, "steps": []}
            document["final"]["a"].append(document)
        else:
            inner = document
            for _ in range(50):
                inner = inner["a"]
                inner["a"] = {}
            inner["a"] = document
        with pytest.raises(ValueError, match="^Circular reference detected$"):
            json.dumps(document, sort_keys=True)
        with pytest.raises(ValueError, match="^Circular reference detected$"):
            "".join(textio._json_chunks(document))

    def test_streaming_keeps_no_map_text(self):
        # the text of every map is dropped once written, and a map's pieces
        # are slices of the shared label table: streaming compare --k 12
        # peaks near 0.17 MiB, where keeping every map's text would hold 2.8 MB
        limits = Limits().replaced(max_switch_bits=12)
        document = compare_mechanisms(12, 0b010110100101, 1.0, limits=limits).to_json_dict()
        tracemalloc.start()
        try:
            for _ in textio._json_chunks(document):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20

    def test_chunks_are_bounded(self):
        # maps and label lists are written a piece of labels at a time
        limits = Limits().replaced(max_switch_bits=12)
        document = compare_mechanisms(12, 0b010110100101, 1.0, limits=limits).to_json_dict()
        assert max(map(len, textio._json_chunks(document))) <= 12 * 1024

    def test_trace_with_a_cycle(self):
        state = {"a": {}}
        state["a"] = state
        with pytest.raises(ValueError, match="^Circular reference detected$"):
            Trace("x", 1, (TraceStep(0, None, state),)).to_json()

    def test_shared_objects_are_no_cycle(self):
        shared, labels = {"x": [1.5]}, ["0", "1"]
        document = {"a": shared, "b": [shared, labels], "c": labels}
        _assert_chunks_match_dumps(document)
        document = {"final": shared, "steps": [{"state": shared}, shared], "x": {"final": shared}}
        _assert_chunks_match_dumps(document)

    @pytest.mark.parametrize(
        "values",
        [
            [0.0, -0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 0.5],
            [-0.0, 0.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
            [-0.0] * 8,
            [math.nan, math.nan, float("nan"), float("-nan"), math.inf, -math.inf, math.inf, 0.25],
            [1.0, 1, True, 1.0, 0.0, 0, False, 0.0],
            [1, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            [True, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            [0.125] * 8,
            [0.1 * v for v in range(8)],
        ],
        ids=["zeros", "negative zero first", "negative zeros", "nan and inf",
             "ints and bools", "int first", "bool first", "one value", "all distinct"],
    )
    @pytest.mark.parametrize("order", ["sorted", "reversed"])
    def test_weight_map_corners(self, values, order):
        labels = _LABELS if order == "sorted" else _LABELS[::-1]
        trace = _weights_trace(dict(zip(labels, values)), dict(zip(labels, values)), {})
        assert trace.to_json() == _dumped(trace)

    def test_empty_state(self):
        empty = Trace("creationist", 1, (TraceStep(0, None, {}),))
        assert empty.to_json() == _dumped(empty)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_compare(self, k):
        limits = Limits().replaced(max_switch_bits=12)
        result = compare_mechanisms(k, (0b101101101101 >> (12 - k)), 1.0, limits=limits)
        assert result.to_json() == _dumped(result)

    @pytest.mark.parametrize("scores", ["scattered", "all distinct"])
    def test_selectionist(self, scores):
        rng = random.Random(10)
        if scores == "scattered":
            table = [rng.choice([0.5, 1.0, 1.5, 3.0]) for _ in range(2**8)]
        else:
            table = [rng.uniform(0.5, 2.0) for _ in range(2**8)]
        trace = run_selectionist(8, Fitness(8, tuple(table)), 0.5 / 2**8, 30)
        assert trace.to_json() == _dumped(trace)

    def test_snapshots_render_from_the_run_pieces(self, monkeypatch):
        # every weight map of a peaked run renders from its compact state,
        # which holds the pieces that its run built once, and nothing falls
        # back to json.dumps
        limits = Limits().replaced(max_switch_bits=12)
        trace = compare_mechanisms(12, 1234, 1.0, limits=limits).selectionist
        maps = [step.state["weights"] for step in trace.steps]
        compacts = [m._compact for m in maps]
        pieces = compacts[0]._pieces
        assert all(type(c) is mechanisms._Weights and c._pieces is pieces for c in compacts)
        encoded = []
        encode = textio._encode
        monkeypatch.setattr(textio, "_encode", lambda obj: encoded.append(obj) or encode(obj))
        for m, c in zip(maps, compacts):
            assert "".join(c._chunks()) == "".join(m._chunks()) == json.dumps(m, sort_keys=True)
        assert trace.to_json() == _dumped(trace)
        assert encoded == []

    def test_each_appearance_renders(self, monkeypatch):
        # the final map is the last step's, and the writer keeps no text
        # between values: that map is written under "final" and again at
        # the last step, one _chunks() call each of its compact state
        limits = Limits().replaced(max_switch_bits=12)
        result = compare_mechanisms(12, 0b010110100101, 1.0, limits=limits)
        steps = result.selectionist.steps
        assert result.selectionist.final["weights"] is steps[-1].state["weights"]
        rendered = []
        chunks = mechanisms._Weights._chunks
        monkeypatch.setattr(
            mechanisms._Weights, "_chunks", lambda m: rendered.append(m) or chunks(m)
        )
        assert result.to_json() == _dumped(result)
        order = [steps[-1], *steps]  # "final" sorts before "steps"
        assert [id(m) for m in rendered] == [id(step.state["weights"]._compact) for step in order]

    @staticmethod
    def _run() -> Trace:
        # k = 3, peak at 101: at step 2 every other variant is culled to
        # 0.0 and 101 holds 1.0
        return run_selectionist(3, Fitness.peaked(3, 0b101, 1.0), 0.1, 100)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: operator.setitem(m, "101", 1),
            lambda m: operator.setitem(m, "1000", 0.0),
            lambda m: operator.delitem(m, "011"),
            lambda m: operator.ior(m, {"101": 1}),
            lambda m: operator.ior(m, {}),
            lambda m: m.clear(),
            lambda m: m.pop("011"),
            lambda m: m.pop("1000", None),
            lambda m: m.popitem(),
            lambda m: m.setdefault("1000", 0.0),
            lambda m: m.setdefault("101"),
            lambda m: m.update({"101": 1}),
            lambda m: m.update(),
            lambda m: m.update(x=1),
        ],
        ids=["set", "add", "delete", "|=", "|= nothing", "clear", "pop", "pop missing",
             "popitem", "setdefault", "setdefault present", "update", "update nothing",
             "update keywords"],
    )
    def test_maps_are_read_only(self, edit):
        trace = self._run()
        weights = trace.steps[1].state["weights"]
        items, text = list(weights.items()), trace.to_json()
        with pytest.raises(TypeError, match="^a selectionist weight map is read-only; edit a copy$"):
            edit(weights)
        assert list(weights.items()) == items
        assert all(map(operator.is_, weights.values(), [w for _, w in items]))
        assert trace.to_json() == text == _dumped(trace)

    @pytest.mark.parametrize("duplicate", [lambda m: m.copy(), dict, copy.copy, copy.deepcopy],
                             ids=["m.copy()", "dict(m)", "copy", "deepcopy"])
    def test_copies_are_plain_editable_dicts(self, duplicate):
        weights = self._run().steps[1].state["weights"]
        copied = duplicate(weights)
        assert type(copied) is dict and copied == weights
        copied["101"] = 1
        del copied["011"]
        copied["1000"] = -0.0
        copied |= {"000": math.nan}
        assert "".join(textio._json_chunks(copied)) == json.dumps(copied, sort_keys=True)
        assert "011" in weights and weights["101"] != 1

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickled_trace(self, protocol):
        trace = self._run()
        loaded = pickle.loads(pickle.dumps(trace, protocol))
        assert loaded == trace and repr(loaded) == repr(trace)
        assert {type(step.state["weights"]) for step in loaded.steps} == {dict}
        assert loaded.to_json() == _dumped(loaded) == trace.to_json()

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy])
    def test_copied_trace(self, duplicate):
        trace = self._run()
        copied = duplicate(trace)
        assert copied == trace and repr(copied) == repr(trace)
        assert copied.to_json() == _dumped(copied) == trace.to_json()

    def test_deep_copy_renders_its_own_edits(self):
        trace = self._run()
        copied = copy.deepcopy(trace)
        copied.final["weights"]["101"] = 1
        del copied.steps[0].state["weights"]["011"]
        copied.steps[1].state["weights"].update({"1000": 0.5, "000": True})
        assert copied.to_json() == _dumped(copied) != trace.to_json() == _dumped(trace)


class TestReplay:
    def test_selectionist_replay_is_bit_exact(self):
        trace = run_selectionist(3, Fitness.peaked(3, 2, 1.0), 0.0625, 100)
        again = replay(trace)
        assert again.to_json() == trace.to_json()

    def test_selectionist_replay_under_raised_step_cap(self):
        raised = Limits().replaced(max_selection_steps=20_000)
        trace = run_selectionist(2, Fitness.peaked(2, 0, 1.0), 0.1, 20_000, raised)
        assert replay(trace, raised).to_json() == trace.to_json()
        with pytest.raises(ResourceLimitError):
            replay(trace)

    def test_generative_replay(self):
        trace = run_generative(3, [(1, 0), (2, 1), (3, 0)])
        assert replay(trace).to_json() == trace.to_json()

    def test_creationist_replay(self):
        trace = create(4, [1, 3, 1])
        assert replay(trace).to_json() == trace.to_json()

    @pytest.mark.parametrize(
        "mechanism, params, key",
        [
            ("selectionist", None, "fitness"),
            ("selectionist", {"fitness": Fitness.uniform(2), "extinction_threshold": 0.1},
             "max_steps"),
            ("generative", None, "experience"),
            ("generative", {"overwrite": True}, "experience"),
            ("creationist", None, "elements"),
        ],
    )
    def test_missing_parameter(self, mechanism, params, key):
        trace = Trace(mechanism, 2, (), params)
        with pytest.raises(ValueError, match=f"^cannot replay {mechanism} trace without its '{key}'$"):
            replay(trace)

    def test_unknown_mechanism(self):
        with pytest.raises(ValueError, match="^cannot replay mechanism 'identification'$"):
            replay(Trace("identification", 2, ()))


class TestSchemes:
    def test_signatures(self):
        rows = {r.scheme: r for r in scheme_relations()}
        assert rows[Scheme.SELECTIONIST].signature == "U->S"
        assert rows[Scheme.CREATIONIST].signature == "empty->S"
        assert rows[Scheme.IDENTIFICATION].signature == "1->pi"
        assert rows[Scheme.GENERATIVE].signature == "0->pi"

    def test_dual_swaps_element_and_distinction(self):
        assert dual(Scheme.SELECTIONIST) is Scheme.IDENTIFICATION
        assert dual(Scheme.CREATIONIST) is Scheme.GENERATIVE

    def test_opposite_swaps_start(self):
        assert opposite(Scheme.SELECTIONIST) is Scheme.CREATIONIST
        assert opposite(Scheme.IDENTIFICATION) is Scheme.GENERATIVE

    def test_involutions_commute(self):
        for s in Scheme:
            assert dual(dual(s)) is s
            assert opposite(opposite(s)) is s
            assert dual(opposite(s)) is opposite(dual(s))
