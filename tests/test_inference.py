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
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import credal
from credal import (
    ConfigInvalid,
    CountingMeasure,
    ImpossibleHistory,
    IndexOutOfRange,
    UrnState,
    ZeroEvidence,
    binomial_family,
    binomial_test,
    build_measure,
    component_event,
    hocs_curve,
    hocs_ratio,
    iid_extension,
    product_space,
    urn_compositions,
    urn_credal_set,
    urn_update,
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

    def test_single_draw_closed_form(self):
        # After one red from an N-ball urn: P(red) = (N + 1) / (2 N).
        for n in (5, 30, 90):
            got = urn_update(UrnState(ball_total=n, history=("red",)))["red"]
            assert got == Fraction(n + 1, 2 * n)

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
        with pytest.raises(ConfigInvalid):
            UrnState(ball_total=0)
        with pytest.raises(ConfigInvalid):
            UrnState(colors=("red", "red"))
        with pytest.raises(ConfigInvalid):
            urn_update(UrnState(), mode="fast")

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
        m = CountingMeasure(c)
        sp = c.space
        pair = product_space(sp, 2)
        first_red = component_event(pair, sp, 2, 0, "red")
        second_red = component_event(pair, sp, 2, 1, "red")
        got = m.posterior_predictive(
            first_red, second_red, lift=lambda d: iid_extension(d, 2)
        )
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
        m = CountingMeasure(CredalSet(members))
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

    def test_k_bounds(self):
        with pytest.raises(ConfigInvalid):
            binomial_test(10, 11)

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
