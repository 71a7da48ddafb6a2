"""Urn updating and evidence-ratio tests.

The urn's exact fractions are verified three ways: frozen golden
values, an independent brute-force enumeration written in this file,
and the counting-measure route through the measure API (kept separate
from the urn implementation on purpose).
"""

import itertools
import math
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import credal
from credal import (
    ConfigInvalid,
    CountingMeasure,
    CredalSet,
    Event,
    ImpossibleHistory,
    IndexOutOfRange,
    OutcomeSpace,
    SpaceMismatch,
    TvuMeasure,
    UrnState,
    ZeroEvidence,
    binomial_family,
    binomial_test,
    build_measure,
    coin_match_family,
    hocs_curve,
    hocs_ratio,
    iid_extension,
    make_rational_distribution,
    product_space,
    urn_compositions,
    urn_credal_set,
    urn_update,
    urn_work,
)

# Golden exact posteriors for the default 90-ball three-color urn.
GOLDEN_FLAT = Fraction(1, 3)
GOLDEN_AFTER_RED = Fraction(91, 180)
GOLDEN_AFTER_RED_RED = Fraction(24841, 40950)
GOLDEN_AFTER_RED_YELLOW = Fraction(181, 450)

# Golden evidence ratios for the 10-toss family (exact quadrature).
GOLDEN_RATIO_01_1HEAD = 3.855738979513222
GOLDEN_RATIO_05_1HEAD = 0.0971907837631396
GOLDEN_RATIO_04_4HEADS = 3.7235594469589346


def brute_force_urn(n: int, colors: tuple, history: tuple) -> dict:
    """Direct Fraction-arithmetic enumeration, independent of the package."""
    posts = {c: Fraction(0) for c in colors}
    total = Fraction(0)
    k = len(colors)
    for counts in itertools.product(range(n + 1), repeat=k):
        if sum(counts) != n:
            continue
        like = Fraction(1)
        for c, cnt in zip(colors, counts):
            like *= Fraction(cnt, n) ** history.count(c)
        total += like
        for c, cnt in zip(colors, counts):
            posts[c] += like * Fraction(cnt, n)
    return {c: posts[c] / total for c in colors}


class TestUrnUpdate:
    def test_flat_prior_is_uniform(self):
        got = urn_update(UrnState())
        assert all(v == GOLDEN_FLAT for v in got.values())

    def test_golden_histories_exact(self):
        s = UrnState()
        assert urn_update(s.with_draw("red"))["red"] == GOLDEN_AFTER_RED
        assert (
            urn_update(UrnState(history=("red", "red")))["red"]
            == GOLDEN_AFTER_RED_RED
        )
        assert (
            urn_update(UrnState(history=("red", "yellow")))["red"]
            == GOLDEN_AFTER_RED_YELLOW
        )

    def test_matches_independent_brute_force_small_urn(self):
        colors = ("red", "yellow", "blue")
        for history in ((), ("red",), ("red", "yellow"), ("red", "red", "blue")):
            state = UrnState(colors=colors, ball_total=12, history=history)
            got = urn_update(state)
            want = brute_force_urn(12, colors, history)
            assert got == want

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_brute_force_on_random_small_urns(self, data):
        n = data.draw(st.integers(1, 12), label="balls")
        colors = tuple(f"c{i}" for i in range(data.draw(st.integers(1, 4), label="colors")))
        # Up to 8 draws: a colour drawn more often than the urn has balls
        # exercises the cut at degree N.
        history = tuple(data.draw(st.lists(st.sampled_from(colors), max_size=8), label="history"))
        state = UrnState(colors=colors, ball_total=n, history=history)
        if len(set(history)) > n:  # no composition holds every drawn color
            with pytest.raises(ImpossibleHistory):
                urn_update(state)
            return
        want = brute_force_urn(n, colors, history)
        assert urn_update(state) == want
        floats = urn_update(state, mode="float")
        assert [floats[c].hex() for c in colors] == [float(want[c]).hex() for c in colors]

    def test_never_enumerates_compositions(self, monkeypatch):
        calls = []
        monkeypatch.setattr(credal.inference, "urn_compositions",
                            lambda *a: calls.append(a) or urn_compositions(*a))
        colors = ("c1", "c2", "c3", "c4", "c5")
        state = UrnState(colors=colors, ball_total=48,
                         history=("c1", "c3", "c3", "c5", "c2", "c1"))
        assert sum(urn_update(state).values()) == 1
        assert calls == []

    @pytest.mark.parametrize("colors", [("a",), ("a", "b"), ("a", "b", "c"),
                                        ("a", "b", "c", "d", "e")])
    def test_work_counts_the_products_formed(self, monkeypatch, colors):
        # Every integer product urn_update forms goes through one
        # map(int.__mul__, ...) pair; count the pairs it consumes.
        formed = 0

        def counting_map(fn, *iterables):
            nonlocal formed
            pairs = list(zip(*iterables))
            formed += len(pairs) if fn is int.__mul__ else 0
            return itertools.starmap(fn, pairs)

        state = UrnState(colors=colors, ball_total=12, history=("a", "a"))
        monkeypatch.setattr(credal.inference, "map", counting_map, raising=False)
        urn_update(state)
        # Degree H + 1 = 3 < 12; the rows R_1, R_2, R_3 take 1 + 2 + 3 additions.
        assert urn_work(state) == {"degree": 3, "colors": len(colors), "multiply_adds": formed,
                                   "powers": 1 + 2 + 3}
        assert formed > 0

    def test_work_charges_wide_integers_by_their_words(self, monkeypatch):
        # A long history makes the powers and products span many 64-bit
        # words; the charge bounds the word products actually formed.
        formed = words = 0

        def counting_map(fn, *iterables):
            nonlocal formed, words
            pairs = list(zip(*iterables))
            if fn is int.__mul__:
                formed += len(pairs)
                words += sum((1 + a.bit_length() // 64) * (1 + b.bit_length() // 64)
                             for a, b in pairs)
            return itertools.starmap(fn, pairs)

        state = UrnState(colors=("a", "b", "c"), ball_total=30,
                         history=("a",) * 40 + ("b",) * 25 + ("c",) * 3)
        monkeypatch.setattr(credal.inference, "map", counting_map, raising=False)
        urn_update(state)
        cost = urn_work(state)
        assert formed < words <= cost["multiply_adds"]
        # b = 5 bits (30 balls): a row R_e spans 1 + 5e // 64 words, so the
        # rows R_1 .. R_41, min(e, 30) entries each, take
        # 1·(1+..+12) + 2·(13+..+25) + 3·(26+..+30 + 8·30) + 4·3·30 additions.
        assert cost["powers"] == 78 + 2 * 247 + 3 * (140 + 8 * 30) + 4 * 3 * 30
        # Each weight's first product (R_40|41 of 4 words by R_25|26 of 2|3,
        # cut at degree 30) has 496 - 15 = 481 pairs, or 496 - 10 = 486 with
        # R_26; its second (6 words by R_3|4 of 1) 496 - 378 = 118, or
        # 496 - 351 = 145 with R_4; and its dot product 31 pairs of 6 words
        # by binomials C(32, J + 2) of 1 + 32·6 // 64 = 4.
        weights = [481 * 4 * 2 + 118 * 6] * 2 + [486 * 4 * 3 + 118 * 6, 481 * 4 * 2 + 145 * 6]
        assert cost["multiply_adds"] == sum(weights) + 4 * 31 * 6 * 4

    def test_more_colors_drawn_than_balls_is_impossible(self):
        with pytest.raises(ImpossibleHistory):
            urn_update(UrnState(colors=("a", "b"), ball_total=1, history=("a", "b")))

    def test_single_draw_closed_form(self):
        # After one red from an N-ball urn: P(red) = (N + 1) / (2 N).
        for n in (5, 30, 90):
            got = urn_update(UrnState(ball_total=n, history=("red",)))["red"]
            assert got == Fraction(n + 1, 2 * n)

    @pytest.mark.parametrize("balls", [90, 10**3, 10**6, 10**9])
    def test_predictive_tends_to_laplace_rule(self, balls):
        # After red, red, blue, by hand: k^2 = 2 C(k, 2) + C(k, 1) and
        # k^3 = 6 C(k, 3) + 6 C(k, 2) + C(k, 1) give S(2, 0, 1) =
        # C(N+2, 4) (2N + 1) / 5 and S(3, 0, 1) = C(N+2, 4) (N² + N - 1) / 5,
        # so N (P(red) - 1/2) = (N - 2) / (2 (2N + 1)), which tends to 1/4.
        state = UrnState(ball_total=balls, history=("red", "red", "blue"))
        probs = urn_update(state)
        assert balls * (probs["red"] - Fraction(1, 2)) == Fraction(balls - 2, 2 * (2 * balls + 1))
        # Laplace's rule (h_c + 1) / (H + c), the flat-Dirichlet (TV-uniform)
        # limit of the counting prior, holds within 1/N for every colour.
        laplace = {"red": Fraction(3, 6), "yellow": Fraction(1, 6), "blue": Fraction(2, 6)}
        assert all(abs(probs[c] - laplace[c]) < Fraction(1, balls) for c in laplace)
        # The work follows the three draws, not the ball total.
        cost = urn_work(state)
        assert cost["degree"] == 4 and cost["multiply_adds"] + cost["powers"] < 200

    def test_predictive_sums_to_one_exactly(self):
        state = UrnState(history=("red", "blue", "blue"))
        assert sum(urn_update(state).values()) == 1

    def test_belief_inertia_monotone_in_evidence(self):
        probs = [
            urn_update(UrnState(history=("red",) * k))["red"] for k in range(5)
        ]
        assert all(a < b for a, b in zip(probs, probs[1:]))
        # ... yet the posterior stays interior: certainty is never reached.
        assert all(0 < p < 1 for p in probs)

    def test_float_mode_tracks_exact(self):
        state = UrnState(history=("red", "yellow"))
        exact = urn_update(state)
        approx = urn_update(state, mode="float")
        for c in state.colors:
            assert approx[c] == pytest.approx(float(exact[c]), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ImpossibleHistory):
            UrnState(history=("green",))
        # Colours and histories are sequences of names: a bare string is
        # refused, not split into one-letter colours.
        for fields in ({"colors": "rgb"}, {"history": "rr"}, {"colors": None},
                       {"history": None}, {"history": 3}):
            with pytest.raises(ConfigInvalid, match="sequences of color names"):
                UrnState(**fields)
        with pytest.raises(ConfigInvalid):
            UrnState(ball_total=0)
        with pytest.raises(ConfigInvalid):
            UrnState(colors=("red", "red"))
        with pytest.raises(ConfigInvalid):
            urn_update(UrnState(), mode="fast")

    @pytest.mark.parametrize("balls", [10.5, 10.0, True, "10", None])
    def test_ball_total_is_a_true_integer(self, balls):
        # Before, 10.5 ended in a raw AttributeError inside urn_work and
        # True ran as a one-ball urn.
        with pytest.raises(ConfigInvalid, match="ball_total must be an integer"):
            UrnState(ball_total=balls)
        assert UrnState(ball_total=np.int64(10)).ball_total == 10

    def test_states_are_values(self):
        state = UrnState(colors=["a", "b"], ball_total=4, history=["a"])
        assert state == UrnState(("a", "b"), 4, ("a",)) != UrnState(("a", "b"), 4)
        assert {state, UrnState(("a", "b"), 4, ("a",))} == {state}
        assert state.with_draw("b").history == ("a", "b") and type(state.ball_total) is int

    @pytest.mark.parametrize("colors", [("a", "b"), ("a", "b", "c")])
    def test_refused_by_the_reported_work(self, monkeypatch, colors):
        state = UrnState(colors=colors, ball_total=40, history=("a", "a"))
        cost = urn_work(state)
        work = cost["multiply_adds"] + cost["powers"]
        monkeypatch.setattr(credal.inference, "MAX_GRID_CELLS", work)
        assert sum(urn_update(state).values()) == 1
        monkeypatch.setattr(credal.inference, "MAX_GRID_CELLS", work - 1)
        with pytest.raises(ConfigInvalid, match=str(work)):
            urn_update(state)

    def test_large_two_colour_urn_runs(self):
        # 37 multiply-adds: (3·2 + 4) + (4·2 + 5) + (3·3 + 5) for the
        # weights of (2, 1), (3, 1) and (2, 2), whatever the ball total.
        state = UrnState(colors=("a", "b"), ball_total=3343, history=("a", "b", "a"))
        assert urn_work(state)["multiply_adds"] == 37
        probs = urn_update(state)
        assert all(isinstance(v, Fraction) for v in probs.values())
        assert sum(probs.values()) == 1
        assert urn_update(UrnState(colors=("a",), ball_total=6000, history=("a",))) == {"a": 1}

    @pytest.mark.parametrize("balls, history", [(300_000, ("a",) * 200),
                                                (100_000, ("a", "b") * 100)])
    def test_long_history_over_many_balls_runs(self, balls, history):
        # The work follows the 200 draws, not the ball total.
        state = UrnState(colors=("a", "b"), ball_total=balls, history=history)
        probs = urn_update(state)
        assert all(isinstance(v, Fraction) for v in probs.values())
        assert sum(probs.values()) == 1
        # Laplace's rule (h_a + 1) / (H + 2) within 1/N; the even history
        # is symmetric, so there it holds exactly.
        laplace = Fraction(history.count("a") + 1, len(history) + 2)
        assert 0 <= probs["a"] - laplace < Fraction(1, balls)
        assert (probs["a"] == laplace) is (laplace == Fraction(1, 2))

    def test_very_long_history_is_refused_before_any_work(self):
        # 20,000 draws: the rows alone would take some 6·10¹¹ word-sized additions.
        state = UrnState(colors=("a", "b"), ball_total=300_000, history=("a",) * 20_000)
        cost = urn_work(state)
        assert cost["powers"] > credal.inference.MAX_GRID_CELLS
        start = time.perf_counter()
        with pytest.raises(ConfigInvalid, match="300000 balls"):
            urn_update(state)
        assert time.perf_counter() - start < 2.0

    def test_two_colour_weights_stream_their_powers(self):
        # Neither factor of a two-colour weight is sliced, so no list of
        # N + 1 powers (about 9 MB here) may be held.
        state = UrnState(colors=("red", "blue"), ball_total=100_000,
                         history=("red", "red", "blue"))
        tracemalloc.start()
        try:
            probs = urn_update(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert sum(probs.values()) == 1
        assert urn_update(UrnState(history=("red",)))["red"] == GOLDEN_AFTER_RED
        assert urn_update(UrnState(history=("red", "red")))["red"] == GOLDEN_AFTER_RED_RED

    def test_one_colour_lists_nothing(self):
        # Nothing of the ball total's size: rows of e <= 201 entries of
        # 1 + 8e // 64 words, and two dot products with 202 binomials.
        state = UrnState(colors=("a",), ball_total=16_000_000, history=("a",) * 200)
        powers = sum(e * (1 + 8 * e // 64) for e in range(1, 202))
        multiply_adds = sum((e + 1) * (1 + (e + 1) * 8 // 64) * (1 + 201 * 24 // 64)
                            for e in (200, 201))
        assert urn_work(state) == {"degree": 201, "colors": 1,
                                   "multiply_adds": multiply_adds, "powers": powers}
        assert urn_update(state) == {"a": 1}

    def test_runtime_is_fast(self):
        t0 = time.perf_counter()
        urn_update(UrnState(history=("red", "yellow", "blue", "red")))
        assert time.perf_counter() - t0 < 1.0


class TestUrnCredalSet:
    def test_composition_count(self):
        c = urn_credal_set(ball_total=90)
        assert len(c) == math.comb(92, 2)  # 4186 compositions of 90 into 3
        assert len(list(urn_compositions(4, 2))) == 5

    def test_counting_route_agrees_with_urn_update_exactly(self):
        # Same number, two genuinely different code paths: direct
        # integer sums vs the counting measure over lifted members.
        c = urn_credal_set(ball_total=30)
        m = CountingMeasure(CredalSet([iid_extension(d, 2) for d in c.members]))
        sp = c.space
        pair = product_space(sp, 2)
        first_red = pair.event([f"red,{c}" for c in sp.labels])
        second_red = pair.event([f"{c},red" for c in sp.labels])
        got = m.posterior_predictive(first_red, second_red)
        want = urn_update(UrnState(ball_total=30, history=("red",)))["red"]
        assert got == want == Fraction(31, 60)

    def test_flat_first_draw_through_measure(self):
        c = urn_credal_set(ball_total=90)
        m = CountingMeasure(c)
        assert m.event_prob(c.space.event(["red"])) == Fraction(1, 3)


@pytest.fixture(scope="module")
def family():
    return binomial_family(10)


@pytest.fixture(scope="module")
def measure(family):
    return build_measure(family)


class TestHocsRatio:
    def test_golden_ratios(self, family, measure):
        one_head = family.space.event([1])
        four_heads = family.space.event([4])
        assert hocs_ratio(measure, 0.1, one_head).ratio == pytest.approx(
            GOLDEN_RATIO_01_1HEAD, rel=1e-9
        )
        assert hocs_ratio(measure, 0.5, one_head).ratio == pytest.approx(
            GOLDEN_RATIO_05_1HEAD, rel=1e-9
        )
        assert hocs_ratio(measure, 0.4, four_heads).ratio == pytest.approx(
            GOLDEN_RATIO_04_4HEADS, rel=1e-9
        )

    def test_endpoints_are_exact_zeros(self, family, measure):
        one_head = family.space.event([1])
        assert hocs_ratio(measure, 0.0, one_head).ratio == 0.0
        assert hocs_ratio(measure, 1.0, one_head).ratio == 0.0

    def test_result_fields(self, family, measure):
        e = family.space.event([1])
        r = hocs_ratio(measure, 0.1, e)
        assert r.conjecture_conditional is True
        assert r.mode == "continuum"
        assert r.ratio == pytest.approx(r.null_likelihood / r.reference_prob)
        assert r.event_labels == (1,)

    def test_continuum_null_point_is_the_float_scored(self, family, measure):
        # A parameter point comes back as the float the curve scored, a
        # tuple of them for a point given as a sequence, never the
        # caller's object.
        e = family.space.event([1])
        for null in (0, 0.25, np.float32(0.5)):
            r = hocs_ratio(measure, null, e)
            assert type(r.null_point) is np.float64 and r.null_point == float(null)
        r = hocs_ratio(measure, [0.25], e)
        assert r.null_point == (0.25,) and type(r.null_point[0]) is np.float64
        assert r == hocs_curve(measure, e, [[0.25]])[0]

    def test_ratio_is_likelihood_over_unexcluded_reference(self, family, measure):
        # Continuum: a point null carries no mass, so the reference is
        # the plain event probability.
        e = family.space.event([1])
        r = hocs_ratio(measure, 0.1, e)
        assert r.reference_prob == measure.event_prob(e)

    def test_finite_mode_excludes_null_member(self):
        from credal import CredalSet, OutcomeSpace, make_rational_distribution

        sp = OutcomeSpace(["H", "T"])
        members = [
            make_rational_distribution(sp, [w, 1 - w])
            for w in (Fraction(0), Fraction(1, 2), Fraction(1))
        ]
        m = CredalSet(members)
        e = sp.event(["H"])
        r = hocs_ratio(m, 1, e)  # null = the fair member
        assert r.mode == "finite-excluded"
        # reference = mean over {0, 1} = 1/2; likelihood = 1/2; ratio 1.
        assert r.reference_prob == 0.5
        assert r.ratio == 1.0
        with pytest.raises(IndexOutOfRange):
            hocs_ratio(m, 5, e)

    def test_zero_reference_raises(self, measure):
        e = measure.family.space.event([])
        with pytest.raises(ZeroEvidence):
            hocs_ratio(measure, 0.1, e)

    def test_curve_shape_and_peak(self, family, measure):
        e = family.space.event([1])
        grid = np.linspace(0.0, 1.0, 101)
        curve = hocs_curve(measure, e, grid)
        ratios = np.array([r.ratio for r in curve])
        assert ratios[0] == ratios[-1] == 0.0
        # The likelihood for 1 of 10 heads peaks at p = 0.1.
        assert grid[np.argmax(ratios)] == pytest.approx(0.1, abs=0.011)

    @pytest.mark.parametrize("heads", [[1], [0, 4, 10]])
    def test_curve_matches_pointwise_ratio(self, family, measure, heads):
        e = family.space.event(heads)
        grid = np.linspace(0.0, 1.0, 101)
        curve = hocs_curve(measure, e, grid)
        assert len(curve) == grid.size
        for p, got in zip(grid, curve):
            want = hocs_ratio(measure, p, e)
            assert got.null_point == want.null_point
            assert got.mode == want.mode and got.event_labels == want.event_labels
            for name in ("null_likelihood", "reference_prob", "ratio"):
                assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-14, abs=0)
        if heads == [1]:
            assert curve[0].ratio == 0.0 and curve[-1].ratio == 0.0

    def test_curve_rejects_points_outside_the_box(self, family, measure):
        with pytest.raises(IndexOutOfRange):
            hocs_curve(measure, family.space.event([1]), [0.5, 1.5])


@pytest.fixture(scope="module")
def coins():
    from credal import CredalSet, OutcomeSpace, make_rational_distribution

    sp = OutcomeSpace(["H", "T"])
    members = [make_rational_distribution(sp, [w, 4 - w]) for w in range(5)]
    return CredalSet(members), sp.event(["H"])


class TestFiniteNulls:
    @pytest.mark.parametrize("null", [1.7, 1.0, True, np.float64(2.0), "1"])
    def test_non_integer_null_is_refused(self, coins, null):
        m, e = coins
        with pytest.raises(ConfigInvalid):
            hocs_ratio(m, null, e)

    def test_curve_refuses_float_indices(self, coins):
        # Casting to float and truncating used to score members 0 and 2.
        m, e = coins
        with pytest.raises(ConfigInvalid):
            hocs_curve(m, e, [0.2, 2.9])
        with pytest.raises(ConfigInvalid):
            hocs_curve(m, e, np.array([0, 2], dtype=float))

    @pytest.mark.parametrize("null", [-1, 5])
    def test_index_out_of_range(self, coins, null):
        m, e = coins
        with pytest.raises(IndexOutOfRange):
            hocs_ratio(m, null, e)
        with pytest.raises(IndexOutOfRange):
            hocs_curve(m, e, [0, null])

    def test_numpy_integers_are_indices(self, coins):
        m, e = coins
        r = hocs_ratio(m, np.int64(3), e)
        assert r == hocs_ratio(m, 3, e)
        assert type(r.null_point) is int
        assert hocs_curve(m, e, np.arange(5)) == hocs_curve(m, e, range(5))

    def test_curve_equals_per_member_ratios(self, coins):
        m, e = coins
        curve = hocs_curve(m, e, range(5))
        assert curve == [hocs_ratio(m, i, e) for i in range(5)]
        # Member i has P(H) = i/4; the other four average (10 - i)/16.
        for i, r in enumerate(curve):
            assert r.mode == "finite-excluded" and r.null_point == i
            assert r.null_likelihood == i / 4
            assert r.reference_prob == (10 - i) / 16
            assert r.ratio == (i / 4) / ((10 - i) / 16)

    def test_unsupported_measure(self, family, coins):
        with pytest.raises(ConfigInvalid):
            hocs_curve(family, family.space.event([1]), [0.5])
        c, e = coins
        with pytest.raises(ConfigInvalid, match=r"pass its \.credal_set"):
            hocs_curve(CountingMeasure(c), e, [0])

    def test_a_one_member_set_has_no_reference(self, coins):
        c, e = coins
        with pytest.raises(ZeroEvidence):
            hocs_ratio(CredalSet(c.members[:1]), 0, e)

    def test_events_of_another_space_are_refused(self, coins):
        c, e = coins
        with pytest.raises(SpaceMismatch):
            hocs_curve(c, product_space(c.space, 2).event(["H,H"]), [])


_COIN = OutcomeSpace(["H", "T"])
_FAIR = make_rational_distribution(_COIN, [1, 1])


@pytest.mark.parametrize("call", [
    lambda: binomial_family(2.5),
    lambda: binomial_family(True),
    lambda: binomial_test(10, 1.0),
    lambda: binomial_test(10.0, 1),
    lambda: binomial_test(10, True),
    lambda: product_space(_COIN, 1.5),
    lambda: iid_extension(_FAIR, 2.0),
    lambda: iid_extension(_FAIR, True),
    lambda: urn_compositions(2.5, 2),
    lambda: urn_compositions(3, 2.0),
], ids=["family-2.5", "family-True", "test-k-1.0", "test-n-10.0", "test-k-True",
        "product-1.5", "lift-2.0", "lift-True", "urn-2.5", "colors-2.0"])
def test_integer_arguments_must_be_true_integers(call):
    # A float or a bool used to raise a bare TypeError or to count as 1;
    # the refusal comes at the call, before any work.
    with pytest.raises(ConfigInvalid, match="must be an integer"):
        call()


def test_numpy_integers_are_counts():
    assert binomial_family(np.int64(4)).space == binomial_family(4).space
    assert iid_extension(_FAIR, np.int64(2)) == iid_extension(_FAIR, 2)
    assert list(urn_compositions(np.int64(3), np.int64(2))) == list(urn_compositions(3, 2))
    assert binomial_test(np.int64(10), np.int64(1)).k == 1


class TestBinomialTestReport:
    def test_report_contents(self):
        report = binomial_test(10, 1, grid_step=0.01)
        assert report.n == 10 and report.k == 1
        assert len(report.reference) == 11
        assert math.fsum(report.reference) == pytest.approx(1.0, abs=1e-6)
        assert report.grid.size == 101 == report.ratios.size == report.density.size
        assert report.ratios[0] == report.ratios[-1] == 0.0
        assert report.z == pytest.approx(3.66021568, rel=1e-9)
        assert report.conjecture_conditional is True
        assert report.observed_reference() == report.reference[1]

    def test_payload_round_trips_through_json(self):
        import json

        report = binomial_test(4, 2, grid_step=0.1)
        payload = json.loads(json.dumps(report.to_payload()))
        assert payload["n"] == 4
        assert len(payload["grid"]) == 11
        assert payload["reference"]["2"] == report.reference[2]

    @pytest.mark.parametrize("step, points", [(0.3, 4), (0.25, 5), (0.26, 5), (1.0, 2),
                                              (0.001, 1001)])
    def test_grid_step_is_rounded_to_one_over_an_integer(self, step, points):
        # 0.3 rounds to 1/3: 4 points, not the 0.3-spaced 0, 0.3, 0.6, 0.9.
        report = binomial_test(4, 2, grid_step=step)
        assert len(report.grid) == points
        np.testing.assert_array_equal(report.grid, np.linspace(0.0, 1.0, points))

    def test_k_bounds(self):
        with pytest.raises(ConfigInvalid):
            binomial_test(10, 11)

    def test_prebuilt_measure_gives_the_same_report(self):
        measure = build_measure(binomial_family(10))
        got, want = binomial_test(10, 3, measure=measure), binomial_test(10, 3)
        assert got.reference == want.reference and got.z == want.z
        np.testing.assert_array_equal(got.ratios, want.ratios)

    @pytest.mark.parametrize("family", [binomial_family(10), coin_match_family()],
                             ids=["binomial10", "coin-match"])
    def test_measure_of_another_family_is_rejected(self, family):
        # A binomial(10) measure once gave n = 3 a reference of its first
        # four head counts; a coin-match measure has no head counts at all.
        with pytest.raises(ConfigInvalid, match="binomial_family"):
            binomial_test(3, 2, measure=build_measure(family))

    def test_reference_table_is_one_vector_read(self, monkeypatch):
        # The reference is the measure's outcome_probs(), not one
        # event_prob per head count; only the observed count is an Event.
        calls = {"event_prob": 0, "events": 0}
        event_prob, event_init = TvuMeasure.event_prob, Event.__init__

        def counted_prob(self, event):
            calls["event_prob"] += 1
            return event_prob(self, event)

        def counted_init(self, *args, **kwargs):
            calls["events"] += 1
            event_init(self, *args, **kwargs)

        monkeypatch.setattr(TvuMeasure, "event_prob", counted_prob)
        monkeypatch.setattr(Event, "__init__", counted_init)
        report = binomial_test(400, 123)
        assert len(report.reference) == 401
        assert calls["event_prob"] == 0 and calls["events"] <= 2

    def test_direct_call_reuses_its_workspace(self):
        # A library caller gets no process-wide allocator settings.  Were the
        # blocked passes to allocate and free block-sized matrices, glibc's
        # sliding trim threshold would hand them back to the kernel, and each
        # call would fault in about 10,000 fresh pages.  A fresh interpreter
        # keeps the heap state of earlier tests out.
        pytest.importorskip("resource")
        if platform.libc_ver()[0] != "glibc":
            pytest.skip("the fault bound is measured against glibc's malloc")
        script = (
            "import resource\n"
            "from credal import binomial_test\n"
            "for _ in range(2):\n"
            "    binomial_test(400, 123)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "binomial_test(400, 123)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = str(Path(credal.__file__).resolve().parents[1])
        path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert int(run.stdout) < 2_000
