"""Uniform-measure tests with independent oracles.

Every load-bearing number is checked through two routes:

* thickness: the package's log-space closed form vs the same closed
  form in plain floats, vs half the L1 norm of the pmf's derivative,
  and vs finite differences;
* normalizer and event probabilities: adaptive Gauss-Legendre vs
  ``scipy.integrate.quad`` with explicit kink breakpoints, plus frozen
  golden values; the measure's pairwise sums vs ``math.fsum`` over the
  same products;
* posterior predictive: continuum quadrature vs exact rational counting.
"""

import functools
import itertools
import math
import operator
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from credal import (
    ConfigInvalid,
    CountingMeasure,
    CredalSet,
    DegenerateFamily,
    IndexOutOfRange,
    LengthMismatch,
    OutcomeSpace,
    ParamBox,
    ParamFamily,
    QuadratureNotConverged,
    SpaceMismatch,
    StepTooLarge,
    TowerConfig,
    TvuMeasure,
    UrnState,
    ZeroEvidence,
    bernoulli_family,
    binomial_family,
    binomial_test,
    build_measure,
    build_tower,
    coin_match_family,
    hocs_curve,
    hocs_ratio,
    iid_extension,
    make_distribution,
    make_rational_distribution,
    product_space,
    thickness,
    tvu_density,
    urn_credal_set,
)
from credal import tvuniform
from credal.tvuniform import _GL4, _GL8, BLOCK_ROWS, _breakpoints, _panel_edges

N = 10
KINKS = [k / N for k in range(1, N)]

# Golden values for the 10-toss family (exact piecewise-polynomial
# integrals, frozen; the quadrature must land within 1e-9 of them).
GOLDEN_Z = 3.66021568
GOLDEN_HEAD_PROBS = {
    0: 0.14708521012577752,
    1: 0.10047892013917162,
    2: 0.08051039578705738,
    3: 0.07149689409632945,
    4: 0.06736099143115579,
    5: 0.0661351768410165,
}


def panel_thickness(p: float, n: int = N) -> float:
    """Independent closed form: on (j/n, (j+1)/n) the thickness equals
    n * C(n-1, j) * p^j * (1-p)^(n-1-j), extended continuously to kinks
    and endpoints (both one-sided limits agree there)."""
    if p <= 0.0 or p >= 1.0:
        return float(n)
    j = min(int(p * n), n - 1)
    return n * math.comb(n - 1, j) * p**j * (1.0 - p) ** (n - 1 - j)


def derivative_thickness(ps: np.ndarray, n: int) -> np.ndarray:
    """Second reference: half the L1 norm of d/dp pmf, summed over all
    n + 1 outcomes, with the one-sided limit n at both endpoints.

    ``k - n p`` is evaluated as ``k (1-p) - (n-k) p``: written as
    ``k - n * p`` the k = n term loses its leading digits to cancellation
    near p = 1 (relative error 4e-5 at n = 400, p = 1 - 1e-12).
    """
    ks = np.arange(n + 1)
    coeffs = np.array([math.comb(n, int(k)) for k in ks], dtype=np.float64)
    out = np.full(ps.shape, float(n))
    interior = (ps > 0.0) & (ps < 1.0)
    q = ps[interior][:, None]
    # d/dp pmf(k; n, p) = C(n,k) p^(k-1) (1-p)^(n-k-1) (k - n p)
    slope = ks * (1.0 - q) - (n - ks) * q
    deriv = coeffs * q ** (ks - 1) * (1.0 - q) ** (n - ks - 1) * slope
    out[interior] = 0.5 * np.abs(deriv).sum(axis=1)
    return out


def exact_tvu_masses(n: int) -> tuple[Fraction, list[Fraction]]:
    """``(Z, m)`` of the uniform measure over ``binomial_family(n)``, exactly.

    On the kink panel ``[j/n, (j+1)/n]`` the density times the pmf of ``k``
    is ``n C(n-1, j) C(n, k) p^a (1-p)^(2n-1-a)`` with ``a = j + k``, whose
    integral is ``[P(Bin(2n, (j+1)/n) > a) - P(Bin(2n, j/n) > a)] / (2n
    C(2n-1, a))``: the incomplete beta function as a binomial tail.  Since
    ``1 / (2n C(2n-1, a)) = a! (2n-1-a)! / (2n)!`` and every tail is an
    integer over ``n^(2n)``, each ``m_k`` is one integer sum over the
    panels, over ``(2n)! n^(2n)``.  Written from the formula alone, with no
    floats and no library code.
    """
    big = 2 * n
    fact = list(itertools.accumulate(range(1, big + 1), operator.mul, initial=1))
    row = [math.comb(big, i) for i in range(big + 1)]

    def tails(j):  # n^(2n) P(Bin(2n, j/n) >= a) for a = 0..2n+1
        terms = [c * j**i * (n - j) ** (big - i) for i, c in enumerate(row)]
        return [*itertools.accumulate(reversed(terms))][::-1] + [0]

    num, upper = [0] * (n + 1), tails(0)
    for j in range(n):
        lower, upper = upper, tails(j + 1)
        for k in range(n + 1):
            a = j + k
            num[k] += (n * math.comb(n - 1, j) * (upper[a + 1] - lower[a + 1])
                       * fact[a] * fact[big - 1 - a])
    m = [Fraction(math.comb(n, k) * v, fact[big] * n**big) for k, v in enumerate(num)]
    return sum(m, Fraction(0)), m


@functools.lru_cache(maxsize=None)
def exact_head_probs(n: int) -> tuple[Fraction, ...]:
    """``m_k / Z`` for every head count ``k`` of ``n`` tosses, exactly."""
    z, m = exact_tvu_masses(n)
    return tuple(v / z for v in m)


@functools.lru_cache(maxsize=None)
def binomial_measure(n: int) -> TvuMeasure:
    return build_measure(binomial_family(n))


def fsum_reference(measure, values) -> float:
    """Exactly rounded quadrature sum over the same products as the library."""
    return math.fsum((measure.weights * measure.density * values).tolist())


def quad_with_kinks(f) -> float:
    val, err = integrate.quad(f, 0.0, 1.0, points=KINKS, limit=400)
    assert err < 1e-10
    return val


def sqrt_family(ndim: int, calls: list | None = None) -> ParamFamily:
    """Slot 0 has thickness sqrt(x), every other slot 1, over [0, 1]^ndim:
    Z = 2/3, and outcome 0 (probability x_0) has measure 3/5.  Appends the
    rows of each density call to ``calls`` when given."""

    def probs(xs, out, outcomes):
        for j, col in enumerate((xs[:, 0], 1.0 - xs[:, 0])[outcomes]):
            out[:, j] = col
        return out

    def slot0(xs):
        if calls is not None:
            calls.append(xs.shape[0])
        return np.sqrt(xs[:, 0])

    return ParamFamily(
        ParamBox([(0.0, 1.0)] * ndim),
        OutcomeSpace([0, 1]),
        probs,
        thickness_batch=[slot0] + [lambda xs: np.ones(xs.shape[0])] * (ndim - 1),
    )


def record_box_rules(monkeypatch) -> list:
    """The number of boxes of each ``_box_rules`` call, appended as made."""
    rules, evaluated = tvuniform._box_rules, []

    def spy(family, lo, hi):
        evaluated.append(len(lo))
        return rules(family, lo, hi)

    monkeypatch.setattr(tvuniform, "_box_rules", spy)
    return evaluated


@functools.cache
def comb_log_coefficients(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The binomial family's log coefficients from one ``math.comb`` call each."""
    return (
        np.array([math.log(math.comb(n, k)) for k in range(n + 1)]),
        np.array([math.log(n * math.comb(n - 1, j)) for j in range(n)]),
    )


def int_pmf(n: int, xs: np.ndarray) -> np.ndarray:
    """The binomial pmf with integer head counts and pivot, step for step as
    the family computes it in floats."""
    log_comb, ks, p = comb_log_coefficients(n)[0], np.arange(n + 1), xs[:, 0]
    out = np.empty((xs.shape[0], n + 1))
    upper = p > 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p, log_q = np.log(p), np.log1p(-p)
        out[...] = ks
        out -= (n * upper)[:, None]
        out *= (log_p - log_q)[:, None]
        out += (n * np.where(upper, log_p, log_q))[:, None]
        out += log_comb
    np.exp(out, out=out)
    out[p == 0.0] = ks == 0
    out[p == 1.0] = ks == n
    return out


def reference_fd_thickness(family: ParamFamily, x: tuple, k: int = 0) -> float:
    """The finite-difference thickness point by point, one ``probs`` call
    per evaluation: the oracle the batched estimator must equal bit for bit."""
    a, b = family.box.intervals[k]
    h, snap, xk = 1e-5 * (b - a), tvuniform._KINK_SNAP * (b - a), x[k]
    bps = np.array([a, *family.kinks[k], b])
    above, below = bps[bps > xk + snap], bps[bps < xk - snap]
    base, sides = family.probs(x), []
    for sign, room in ((1.0, above[0] - xk if above.size else 0.0),
                       (-1.0, xk - below[-1] if below.size else 0.0)):
        step = float(min(h, room))
        if step <= 0.0:
            continue
        rates = []
        for s in (step, step / 2.0):
            y = list(x)
            y[k] = xk + sign * s
            rates.append(0.5 * float(np.sum(np.abs(family.probs(tuple(y)) - base))) / s)
        d1, d2 = rates
        if abs(d2 - d1) > 0.1 * abs(2.0 * d2 - d1):
            raise StepTooLarge(f"step {step} in slot {k} at {x} is too coarse for "
                               "the local curvature")
        sides.append(2.0 * d2 - d1)
    return float(np.mean(sides))


def fd_only(fam: ParamFamily) -> ParamFamily:
    """The same family with no registered thickness."""
    return ParamFamily(fam.box, fam.space, fam.probs_batch_fn, kinks=fam.kinks,
                       outcome_span=fam.outcome_span_fn, name=fam.name, meta=fam.meta)


def cube_chart(fam: ParamFamily, closed_form: bool = False) -> ParamFamily:
    """A one-slot family traced by ``s = p**3``, with no registered
    thickness; or, with ``closed_form``, demo 04's chart, whose thickness is
    ``fam``'s at ``p = s**(1/3)`` times ``dp/ds = p / (3 s)``."""
    def thick(xs):
        s = np.maximum(xs[:, 0], 1e-300)
        p = s ** (1 / 3)
        return fam.thickness_batch_fns[0](p[:, None]) * p / (3.0 * s)

    return ParamFamily(
        fam.box, fam.space,
        lambda xs, out, outcomes: fam.probs_batch_fn(xs ** (1 / 3), out, outcomes),
        kinks=[tuple(k**3 for k in fam.kinks[0])],
        thickness_batch=[thick] if closed_form else None,
    )


def two_coins(thickness_batch=None) -> ParamFamily:
    """Two coins with independent biases: thickness 1 in each slot."""
    def probs(xs, out, outcomes):
        p, q = xs[:, 0], xs[:, 1]
        cols = [p * q, p * (1 - q), (1 - p) * q, (1 - p) * (1 - q)][outcomes]
        return np.stack(cols, axis=1)

    return ParamFamily(ParamBox([(0.0, 1.0), (0.0, 1.0)]), OutcomeSpace(["HH", "HT", "TH", "TT"]),
                       probs, thickness_batch=thickness_batch)


@pytest.fixture(scope="module")
def family():
    return binomial_family(N)


@pytest.fixture(scope="module")
def measure(family):
    return build_measure(family, resolution=24)


class TestThickness:
    def test_registered_matches_independent_closed_form(self, family):
        ps = np.linspace(0.001, 0.999, 211)
        for p, got in zip(ps, tvu_density(family, ps[:, None])):
            assert got == pytest.approx(panel_thickness(p), rel=1e-12)

    def test_finite_difference_matches_analytic_off_kinks(self, family):
        ps = [0.05, 0.123, 0.31, 0.49, 0.77, 0.95]
        for p, fd in zip(ps, thickness(family, np.array(ps)[:, None], 0)):
            assert fd == pytest.approx(panel_thickness(p), abs=1e-6)

    def test_finite_difference_at_kink_averages_one_sided_limits(self, family):
        # The thickness is continuous at kinks (both one-sided limits
        # agree), so the averaged estimate must still match.
        for k, fd in zip((0.1, 0.5, 0.9), thickness(family, [[0.1], [0.5], [0.9]])):
            assert fd == pytest.approx(panel_thickness(k), abs=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 10, 400])
    def test_closed_form_matches_derivative_l1_sum(self, n):
        kinks = np.arange(n + 1) / n
        near_ends = np.array([1e-12, 5e-13, 1.0 - 1e-12, 1.0 - 5e-13])
        ps = np.concatenate([kinks, kinks[1:-1] + 1e-12, kinks[1:-1] - 1e-12,
                             near_ends, np.linspace(0.0, 1.0, 1001)])
        got = binomial_family(n).thickness_batch_fns[0](ps[:, None])
        np.testing.assert_allclose(got, derivative_thickness(ps, n), rtol=1e-12, atol=0)

    def test_endpoints_equal_n_exactly(self, family):
        assert tvu_density(family, [[0.0], [1.0]]).tolist() == [float(N), float(N)]

    def test_point_density_is_the_batch_path_bitwise(self, family):
        # Each row's value, read alone or in any batch, is the same bits:
        # closed form (binomial) and finite differences (fd_only) alike.
        points = np.array([0.0, *KINKS, 0.05, 0.123, 0.37, 0.6180339887, 0.999, 1.0])
        order = np.random.default_rng(3).permutation(points.size)
        for fam in (family, fd_only(family)):
            for read in (lambda xs: tvu_density(fam, xs), lambda xs: thickness(fam, xs)):
                batch = read(points[:, None])
                alone = [read([[p]])[0].hex() for p in points]
                assert alone == [v.hex() for v in batch]
                assert read(points[order][:, None]).tolist() == batch[order].tolist()

    def test_endpoint_finite_difference_is_one_sided(self, family):
        np.testing.assert_allclose(thickness(family, [[0.0], [1.0]], 0), [N, N], atol=1e-3)

    def test_param_outside_box(self, family):
        with pytest.raises(IndexOutOfRange):
            thickness(family, [[1.5]], 0)

    @pytest.mark.parametrize("x", [1.5, -3.0, float("nan")])
    def test_points_outside_the_box_raise(self, family, x):
        # One bad row anywhere in a batch refuses it, on every checked entry.
        event = family.space.event([2])
        rows = [[0.0], [0.5], [x], [1.0]]
        for read in (lambda: tvu_density(family, rows), lambda: thickness(family, rows),
                     lambda: family.event_probs(rows, event), lambda: family.probs(x)):
            with pytest.raises(IndexOutOfRange, match="outside the box"):
                read()
        assert tvu_density(family, [[0.0], [1.0]]).tolist() == [float(N)] * 2
        np.testing.assert_array_equal(family.event_probs([[0.0], [1.0]], event), [0.0, 0.0])

    @pytest.mark.parametrize("rows", [[0.5, 0.6], [[[0.5]]], [[0.5, 0.5]]],
                             ids=["flat", "3-d", "two-slot"])
    def test_rows_of_the_wrong_shape_raise(self, family, rows):
        event = family.space.event([2])
        for read in (lambda: tvu_density(family, rows), lambda: thickness(family, rows),
                     lambda: family.event_probs(rows, event)):
            with pytest.raises(LengthMismatch, match=r"expected \(N, 1\) parameter rows"):
                read()

    def test_fd_on_unregistered_family_matches_chain_rule(self, family):
        # Same family driven through s = p^3 without registered
        # thickness: FD must recover t_p(s^(1/3)) * ds->dp factor.
        fam_s = cube_chart(family)
        for s in (0.2, 0.5, 0.9):
            p = s ** (1 / 3)
            want = panel_thickness(p) * p / (3.0 * s)
            assert thickness(fam_s, [[s]], 0)[0] == pytest.approx(want, rel=1e-5)

    def test_fd_refuses_a_step_too_coarse_for_the_curvature(self, family):
        # Near s = 0 the s = p^3 family's thickness (30,450.6 at s = 1e-6,
        # 5,903.1 at 1e-5 by the chain rule) bends within one 1e-5 step:
        # the estimates were -664.9 and 482.0, and the measure over the
        # family failed on a negative density.
        fam_s = cube_chart(family)
        for s in (1e-6, 1e-5):
            with pytest.raises(StepTooLarge, match=rf"step 1e-05 in slot 0 at \({s},\)"):
                thickness(fam_s, [[s]], 0)
        p = 1e-4 ** (1 / 3)
        want = panel_thickness(p) * p / (3.0 * 1e-4)
        assert thickness(fam_s, [[1e-4]], 0)[0] == pytest.approx(want, rel=2e-3)
        with pytest.raises(StepTooLarge):
            build_measure(fam_s)

    def test_fd_only_measure_matches_the_closed_form(self, family, measure):
        # build_measure's finite-difference fallback, on a family that
        # registers no thickness, against the closed-form measure.
        fd = ParamFamily(ParamBox([(0.0, 1.0)]), family.space, family.probs_batch_fn,
                         kinks=[tuple(KINKS)])
        m = build_measure(fd)
        assert fd.thickness_batch_fns[0] is None
        assert m.meta["converged"] is True
        assert m.z == pytest.approx(GOLDEN_Z, rel=1e-9)
        np.testing.assert_allclose(m.outcome_probs(), measure.outcome_probs(), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("make, chart", [(fd_only, 1), (fd_only, 10), (fd_only, 100),
                                             (cube_chart, 10)])
    def test_batch_equals_the_per_point_reference_bitwise(self, make, chart):
        fam = make(binomial_family(chart))
        kinks, snap = np.array(fam.kinks[0]), tvuniform._KINK_SNAP
        # Endpoints, kinks, inside the snap zone, on its edges, and a grid.
        points = np.concatenate([[0.0, 1.0], kinks, kinks - 1e-10, kinks + 1e-10,
                                 kinks - snap, kinks + snap, np.linspace(0.0, 1.0, 1001)])
        kept, want, refused = [], [], []
        for p in points:
            try:
                want.append(reference_fd_thickness(fam, (float(p),)).hex())
                kept.append(p)
            except StepTooLarge as exc:
                refused.append((p, str(exc)))
        assert [v.hex() for v in tvu_density(fam, np.array(kept)[:, None])] == want
        # Only the s = p^3 chart refuses, and only next to its singular end.
        assert all(p <= 1e-5 for p, _ in refused) and (make is cube_chart) == bool(refused)
        for p, message in refused:
            with pytest.raises(StepTooLarge, match=re.escape(message)):
                tvu_density(fam, [[p]])

    @pytest.mark.parametrize("rows, named", [([1e-6, 1e-5], 1e-6), ([1e-5, 1e-6], 1e-5),
                                             ([0.5] * 600 + [1e-5, 1e-6], 1e-5)])
    def test_batch_refusal_names_the_first_refused_row(self, family, rows, named):
        with pytest.raises(StepTooLarge, match=rf"step 1e-05 in slot 0 at \({named},\) is too"):
            tvu_density(cube_chart(family), np.array(rows)[:, None])

    def test_fd_density_makes_five_family_calls_per_block(self, monkeypatch):
        calls, sizes = [], []
        fam, density = binomial_family(100), tvuniform._density_rows

        def probs_batch(xs, out, outcomes):
            calls.append(len(xs))
            return fam.probs_batch_fn(xs, out, outcomes)

        counted = ParamFamily(fam.box, fam.space, probs_batch, kinks=fam.kinks)

        def spy(family, xs):
            before = len(calls)
            out = density(family, xs)
            sizes.append((len(out), len(calls) - before))
            return out

        monkeypatch.setattr(tvuniform, "_density_rows", spy)
        m = build_measure(counted)
        assert m.nodes.shape[0] > BLOCK_ROWS and max(rows for rows, _ in sizes) > BLOCK_ROWS
        for rows, made in sizes:
            assert made <= 5 * -(-rows // BLOCK_ROWS)

    @pytest.mark.parametrize("k, error", [(0.5, ConfigInvalid), ("0", ConfigInvalid),
                                          (True, ConfigInvalid), (1, IndexOutOfRange),
                                          (-1, IndexOutOfRange)])
    def test_a_bad_slot_is_a_typed_error(self, family, k, error):
        with pytest.raises(error):
            thickness(family, [[0.3]], k)


class TestMeasure:
    def test_normalizer_against_quad_and_golden(self, measure):
        z_quad = quad_with_kinks(panel_thickness)
        assert measure.z == pytest.approx(z_quad, rel=1e-10)
        assert measure.z == pytest.approx(GOLDEN_Z, rel=1e-9)

    def test_frozen_normalizer_is_the_exact_rational_one(self):
        z, m = exact_tvu_masses(N)
        assert z == Fraction("3.66021568") == Fraction(5719087, 1562500)
        assert [float(m[k] / z) for k in GOLDEN_HEAD_PROBS] == pytest.approx(
            list(GOLDEN_HEAD_PROBS.values()), rel=1e-15)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_outcome_probs_match_the_exact_rationals(self, n):
        # m_k and Z are sums of non-negative terms, so the pairwise sums add
        # only a few ulps; the rest is each term's rounding in the log-space
        # pmf and thickness, and GL-8 truncation, which is zero for n <= 8
        # (on each panel the integrand is a polynomial of degree 2n - 1).
        # The worst measured error is 3.0e-15 (n = 29; 2.3e-15 with 16
        # halving nodes per panel) under all three SIMD kernel sets, so 1e-14
        # leaves room for last bits and is five orders below the 1e-9 of the
        # frozen golden checks.
        z, m = exact_tvu_masses(n)
        measure = build_measure(binomial_family(n))
        exact = np.array([float(v / z) for v in m])
        np.testing.assert_allclose(measure.outcome_probs(), exact, rtol=1e-14, atol=0)
        assert measure.z == pytest.approx(float(z), rel=1e-14)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 30), data=st.data())
    def test_head_count_test_reads_the_exact_references(self, n, data):
        # The head-count test's reference column, hocs_curve's reference
        # and the evidence ratios along a dyadic grid, whose points are
        # exact floats, so each ratio has an exact rational value:
        # C(n, k) p^k (1 - p)^(n - k) over m_k / Z.
        k = data.draw(st.integers(0, n), label="k")
        step = Fraction(1, 2 ** data.draw(st.integers(1, 8), label="log2 steps"))
        exact = exact_head_probs(n)
        measure = binomial_measure(n)
        report = binomial_test(n, k, grid_step=float(step), measure=measure)
        np.testing.assert_allclose(report.reference, [float(v) for v in exact],
                                   rtol=1e-14, atol=0)
        assert all(Fraction(p) == i * step for i, p in enumerate(report.grid))
        curve = hocs_curve(measure, measure.family.space.event([k]), report.grid)
        np.testing.assert_allclose([r.reference_prob for r in curve], float(exact[k]),
                                   rtol=1e-14, atol=0)
        ratios = [float(math.comb(n, k) * (i * step) ** k * (1 - i * step) ** (n - k)
                        / exact[k]) for i in range(len(report.grid))]
        np.testing.assert_allclose([r.ratio for r in curve], ratios, rtol=1e-13, atol=0)
        np.testing.assert_allclose(report.ratios, ratios, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
    def test_err_estimate_is_within_a_factor_two_of_the_true_error(self, family, tol):
        # Demo 04's s = p**3 chart has a singular endpoint and needs rounds.
        # The true relative error of Z, against the exact Z(10), was 3.8x the
        # halving estimate; the GL-4 check puts it at 1.65-1.76x.
        m, z = build_measure(cube_chart(family, closed_form=True), tol=tol), exact_tvu_masses(N)[0]
        true = float(abs(Fraction(m.z) - z) / z)
        assert m.meta["panels"] > 24 and m.meta["err_estimate"] <= tol
        assert 0.5 <= true / m.meta["err_estimate"] <= 2.0

    def test_head_probs_against_quad_and_golden(self, family, measure):
        coeff = [math.comb(N, k) for k in range(N + 1)]
        for k, golden in GOLDEN_HEAD_PROBS.items():
            pmf = lambda p, k=k: coeff[k] * p**k * (1 - p) ** (N - k)
            want = quad_with_kinks(lambda p: pmf(p) * panel_thickness(p)) / measure.z
            got = measure.event_prob(family.space.event([k]))
            assert got == pytest.approx(want, rel=1e-9)
            assert got == pytest.approx(golden, rel=1e-9)

    def test_symmetry_and_total_mass(self, family, measure):
        probs = [measure.event_prob(family.space.event([k])) for k in range(N + 1)]
        for k in range(N + 1):
            assert probs[k] == pytest.approx(probs[N - k], rel=1e-12)
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-6)
        assert measure.event_prob(family.space.full_event()) == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("n", [10, 400])
    def test_pairwise_sums_match_fsum(self, n):
        m = build_measure(binomial_family(n))
        space = m.family.space
        probs = m.family.probs_matrix(m.nodes)
        z = fsum_reference(m, 1.0)
        events = [[k] for k in range(n + 1)]
        events += [list(range(0, n + 1, 2)), list(range(n // 2 + 1)), list(range(n + 1))]
        for idx in events:
            want = fsum_reference(m, probs[:, idx].sum(axis=1)) / z
            assert m.event_prob(space.event(idx)) == pytest.approx(want, rel=1e-13)
        for values in (m.nodes[:, 0], m.nodes[:, 0] ** 2, 1.0 - m.nodes[:, 0]):
            want = fsum_reference(m, values) / z
            assert m.expectation(values) == pytest.approx(want, rel=1e-13)
        observed, query = list(range(n // 2 + 1)), list(range(0, n + 1, 3))
        joint = sorted(set(observed) & set(query))
        want = fsum_reference(m, probs[:, joint].sum(axis=1)) / fsum_reference(
            m, probs[:, observed].sum(axis=1)
        )
        got = m.posterior_predictive(space.event(observed), space.event(query))
        assert got == pytest.approx(want, rel=1e-13)

    def test_memory_stays_linear_in_nodes_and_outcomes(self):
        n = 400
        tracemalloc.start()
        try:
            m = build_measure(binomial_family(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10e6
        cells = m.nodes.shape[0] * (n + 1)
        held = [getattr(m, name) for name in TvuMeasure.__slots__]
        arrays = [a for a in held if isinstance(a, np.ndarray)]
        assert arrays and all(a.size < cells for a in arrays)
        assert m.meta["bytes_held"] == sum(a.nbytes for a in arrays)
        assert m.meta["block_rows"] < m.nodes.shape[0]

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_meta_records_quadrature_diagnostics(self, ndim):
        max_panels = 512
        measure = build_measure(sqrt_family(ndim), resolution=4, max_panels=max_panels)
        meta = measure.meta
        assert meta["converged"] is True
        assert 0.0 <= meta["err_estimate"] <= meta["tol"]
        assert meta["resolution"] == 4
        assert meta["panels"] <= max_panels
        assert meta["panels"] * 8**ndim == measure.nodes.shape[0]
        # Each box costs its GL-8 rule and one GL-4 check per slot; a split
        # box's children are evaluated afresh.
        assert meta["evaluations"] >= meta["panels"] * (8**ndim + 4 * ndim * 8 ** (ndim - 1))

    def test_two_dimensional_singular_density_converges(self):
        m = build_measure(sqrt_family(2), resolution=8, tol=1e-9)
        assert m.z == pytest.approx(2 / 3, rel=1e-8)
        assert m.event_prob(m.family.space.event([0])) == pytest.approx(0.6, abs=1e-8)

    def test_panel_cap_raises_after_the_starting_boxes(self):
        # 8 x 8 starting boxes, each costing its GL-8 rule of 8^2 nodes and
        # one GL-4 check of 4 x 8 nodes per slot, against a cap of 8 boxes.
        calls = []
        with pytest.raises(QuadratureNotConverged):
            build_measure(sqrt_family(2, calls), resolution=8, tol=1e-9, max_panels=8)
        assert sum(calls) == 64 * (8**2 + 2 * 4 * 8)

    def test_two_dimensional_memory_stays_bounded(self):
        # A tensor grid refined by doubling every axis held 589,824 nodes
        # here, with a tracemalloc peak of about 31 MB.
        tracemalloc.start()
        try:
            m = build_measure(sqrt_family(2), resolution=24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.nodes.shape[0] < 589_824
        assert peak <= 16e6

    def test_three_dimensional_start_is_evaluated_in_chunks(self):
        # 512 starting boxes halved in one density batch peaked at 114.8 MB
        # against the 25.2 MB the measure holds; chunked, but copied out of
        # per-box records at the end, 42.6 MB.
        tracemalloc.start()
        try:
            m = build_measure(sqrt_family(3), resolution=8, tol=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * m.meta["bytes_held"]

    def test_one_dimensional_start_is_one_density_call(self):
        calls = []
        build_measure(sqrt_family(1, calls), resolution=2048, tol=1e-3)
        # Every starting box's GL-8 rule and its GL-4 check in one call.
        assert calls[0] == 2048 * (8 + 4)

    @pytest.mark.parametrize("n", [1, 3, 7, 10, 13, 400, 1100])
    @pytest.mark.parametrize("resolution", [5, 24, 100, 1000, 4096])
    def test_panel_edges_match_per_segment_linspace(self, n, resolution):
        bps = _breakpoints(binomial_family(n), 0)
        edges = []
        for a, b in zip(bps[:-1], bps[1:]):
            parts = max(1, math.ceil(resolution * (b - a) / (bps[-1] - bps[0])))
            edges.append(np.linspace(a, b, parts + 1))
        lo, hi = _panel_edges(bps, resolution)
        np.testing.assert_array_equal(lo, np.concatenate([e[:-1] for e in edges]))
        np.testing.assert_array_equal(hi, np.concatenate([e[1:] for e in edges]))

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_missed_tolerance_raises(self, ndim):
        # sqrt has an unbounded derivative at 0, so no GL rule integrates
        # it to 1e-14 within a cap of two boxes.
        fam = ParamFamily(
            ParamBox([(0.0, 1.0)] * ndim),
            OutcomeSpace([0, 1]),
            lambda x, out, outcomes: np.array([x[0], 1.0 - x[0]]),
            thickness_batch=[lambda xs: np.sqrt(xs[:, 0])] + [
                lambda xs: np.ones(xs.shape[0])] * (ndim - 1),
        )
        with pytest.raises(QuadratureNotConverged):
            build_measure(fam, resolution=2, tol=1e-14, max_panels=2)

    def test_large_n_stays_finite(self):
        n = 1100
        fam = binomial_family(n)
        ends = np.array([[0.0], [1.0]])
        np.testing.assert_array_equal(fam.thickness_batch_fns[0](ends), [n, n])
        pmf = fam.probs_matrix(np.array([[0.0], [0.3], [0.5], [1.0]]))
        assert pmf[0, 0] == 1.0 and pmf[0, 1:].sum() == 0.0
        assert pmf[-1, -1] == 1.0 and pmf[-1, :-1].sum() == 0.0
        np.testing.assert_allclose(pmf.sum(axis=1), 1.0, rtol=1e-12)
        assert pmf[2, n // 2] == pytest.approx(
            float(Fraction(math.comb(n, n // 2), 2**n)), rel=1e-12
        )
        m = build_measure(fam)
        assert math.isfinite(m.z) and m.z > 0.0
        assert m.meta["converged"] is True

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 400, 1100])
    def test_pascal_row_matches_math_comb_bitwise(self, n):
        for got, want in zip(tvuniform._binomial_log_coefficients(n), comb_log_coefficients(n)):
            assert got.tobytes() == want.tobytes()

    def test_family_makes_no_comb_calls(self, monkeypatch):
        calls = []
        comb = math.comb
        monkeypatch.setattr(math, "comb", lambda *a: calls.append(a) or comb(*a))
        binomial_family(400).probs(0.3)
        assert calls == []

    def test_pascal_row_is_built_on_first_evaluation_only(self, monkeypatch):
        built = []
        row = tvuniform._binomial_log_coefficients
        monkeypatch.setattr(tvuniform, "_binomial_log_coefficients",
                            lambda n: built.append(n) or row(n))
        with pytest.raises(ConfigInvalid, match="33554432"):
            build_measure(binomial_family(65535))
        assert built == []
        fam = binomial_family(10)
        assert built == []
        build_measure(fam)
        fam.probs(0.3)
        assert built == [10]
        # Each family builds its own row.
        binomial_family(10).thickness_batch_fns[0](np.array([[0.3]]))
        assert built == [10, 10]

    def test_float_pmf_matches_integer_pmf_bitwise(self):
        n = 400
        fam = binomial_family(n)
        ps = [0.0, 1e-300, 0.25, 0.5, np.nextafter(0.5, 1.0), 0.75, 1.0]
        for xs in (np.array(ps)[:, None], build_measure(fam).nodes):
            assert fam.probs_matrix(xs).tobytes() == int_pmf(n, xs).tobytes()

    @pytest.mark.parametrize(
        "make", [lambda: binomial_family(10), lambda: binomial_family(400), coin_match_family],
        ids=["binomial10", "binomial400", "coin-match"],
    )
    def test_outcome_probs_equal_singleton_event_probs_bitwise(self, make):
        m = build_measure(make())
        space = m.family.space
        want = [m.event_prob(space.event([label])) for label in space.labels]
        got = m.outcome_probs()
        assert got.tolist() == want
        assert got.tobytes() == np.array(want).tobytes()

    def test_refined_boxes_come_out_in_lexicographic_order(self, monkeypatch):
        # Every box the splitting makes, keyed by its node bytes; the
        # measure's nodes, cut into boxes, must list the boxes that were
        # never split, sorted by lower corner with slot 0 first.
        rules, corners = tvuniform._box_rules, {}

        def spy(family, lo, hi):
            fields = rules(family, lo, hi)
            for corner, nodes in zip(lo, fields[0]):
                corners[nodes.tobytes()] = tuple(corner.tolist())
            return fields

        monkeypatch.setattr(tvuniform, "_box_rules", spy)
        m = build_measure(sqrt_family(2), resolution=8, tol=1e-9)
        assert m.meta["panels"] > 8 * 8
        got = [corners[box.tobytes()] for box in m.nodes.reshape(-1, 8**2, 2)]
        assert len(got) == m.meta["panels"] == len(set(got))
        assert got == sorted(got)

    @pytest.mark.parametrize(
        "make",
        [*(functools.partial(binomial_family, n) for n in (1, 10, 17, 400, 1100)),
         bernoulli_family, coin_match_family],
        ids=["binomial1", "binomial10", "binomial17", "binomial400", "binomial1100",
             "bernoulli", "coin-match"],
    )
    def test_stock_families_meet_tol_without_a_round(self, make, monkeypatch):
        # Every box evaluated is a starting box: no round splits anything.
        evaluated = record_box_rules(monkeypatch)
        m = build_measure(make())
        assert sum(evaluated) == m.meta["panels"]
        assert m.meta["evaluations"] == m.meta["panels"] * (8 + 4)

    def test_a_round_stops_at_the_panel_cap(self, monkeypatch):
        # 8 x 8 starting boxes: uncapped, the first round splits several;
        # with room for one more box, it splits one and the cap ends the search.
        evaluated = record_box_rules(monkeypatch)
        build_measure(sqrt_family(2), resolution=8, tol=1e-9)
        assert evaluated[0] == 64 and evaluated[1] > 2
        evaluated.clear()
        with pytest.raises(QuadratureNotConverged, match="at 65 panels"):
            build_measure(sqrt_family(2), resolution=8, tol=1e-9, max_panels=65)
        assert evaluated == [64, 2]

    @pytest.mark.parametrize("ndim, resolution, tol", [(1, 2, 1e-12), (2, 4, 1e-8), (3, 4, 1e-6)])
    def test_err_estimate_is_summed_over_the_live_boxes(self, monkeypatch, ndim, resolution, tol):
        # Every box made, keyed by its node bytes: the final boxes' errors
        # over their values, each summed once, with no running total.
        rules, boxes = tvuniform._box_rules, {}

        def spy(family, lo, hi):
            fields = rules(family, lo, hi)
            nodes, _, _, values, errs = fields
            for box, value, err in zip(nodes, values, errs.sum(axis=1)):
                boxes[box.tobytes()] = value, err
            return fields

        monkeypatch.setattr(tvuniform, "_box_rules", spy)
        m = build_measure(sqrt_family(ndim), resolution=resolution, tol=tol)
        assert m.meta["panels"] > resolution**ndim
        live = [boxes[b.tobytes()] for b in m.nodes.reshape(m.meta["panels"], -1, ndim)]
        values, errs = (np.array([box[i] for box in live]) for i in range(2))
        assert m.meta["err_estimate"] == np.sum(errs) / np.sum(values)

    def test_start_past_the_cell_cap_is_refused_before_any_density_call(self, monkeypatch):
        # 2048 starting boxes of 8 nodes by 2049 outcomes pass 2**25 cells;
        # n = 2047 keeps 33,538,048.
        calls = []
        monkeypatch.setattr(tvuniform, "_density_rows", lambda *a: calls.append(a))
        with pytest.raises(ConfigInvalid, match="33554432.*the kinks alone force 2048 starting"):
            build_measure(binomial_family(2048))
        assert calls == []
        monkeypatch.undo()
        assert build_measure(binomial_family(2047)).meta["panels"] == 2047

    @pytest.mark.parametrize("n", [10, 400, 1100])
    def test_binomial_pmf_matches_exact_rationals(self, n):
        # For the float p = a / b (b a power of two) the pmf is the integer
        # C(n, k) a^k (b - a)^(n-k) over b^n.  Stepping k to k + 1 multiplies
        # by (n - k) a / ((k + 1) (b - a)), and the division is exact; int / int
        # rounds the exact ratio correctly.
        ps = [1e-9, 0.013, 0.3, 0.5, 0.77, 0.999, 1 - 1e-9]
        got = binomial_family(n).probs_matrix(np.array(ps)[:, None])
        for row, p in zip(got, ps):
            a, b = Fraction(p).as_integer_ratio()
            num, den = (b - a) ** n, b**n
            exact = []
            for k in range(n + 1):
                exact.append(num / den)
                num = num * (n - k) * a // ((k + 1) * (b - a))
            exact = np.array(exact)
            keep = exact > 1e-250
            np.testing.assert_allclose(row[keep], exact[keep], rtol=1e-11, atol=0)

    def test_resolution_doubling_moves_z_below_tolerance(self, family, measure):
        z2 = build_measure(family, resolution=48).z
        assert abs(z2 - measure.z) <= 1e-5 * measure.z

    def test_reparametrization_invariance(self, family, measure):
        # p = s^(1/3): same family traced at a different speed.  The
        # density is singular at s -> 0 yet integrable; both the
        # normalizer and every event probability must be unchanged.
        def probs_batch(xs, out, outcomes):
            return family.probs_batch_fn(xs ** (1 / 3), out, outcomes)

        def thick_batch(xs):
            s = xs[:, 0]
            p = np.where(s > 0, s, 1.0) ** (1 / 3)
            t = np.asarray([panel_thickness(v) for v in p])
            return np.where(s > 0, t * p / (3.0 * np.maximum(s, 1e-300)), np.inf)

        fam_s = ParamFamily(
            ParamBox([(0.0, 1.0)]),
            family.space,
            probs_batch,
            kinks=[tuple(k**3 for k in KINKS)],
            thickness_batch=[thick_batch],
        )
        m_s = build_measure(fam_s, resolution=24)
        assert m_s.z == pytest.approx(measure.z, rel=5e-4)
        for k in range(N + 1):
            a = m_s.event_prob(fam_s.space.event([k]))
            b = measure.event_prob(family.space.event([k]))
            assert a == pytest.approx(b, rel=5e-4)

    def test_pdf_is_normalized_density(self, family, measure):
        assert tvu_density(family, [[0.25]])[0] / measure.z == pytest.approx(
            panel_thickness(0.25) / measure.z, rel=1e-9
        )

    def test_degenerate_family_raises(self):
        flat = ParamFamily(
            ParamBox([(0.0, 1.0)]),
            OutcomeSpace([0, 1]),
            lambda xs, out, outcomes: np.full((xs.shape[0], 2), 0.5)[:, outcomes],
            thickness_batch=[lambda xs: np.zeros(xs.shape[0])],
        )
        with pytest.raises(DegenerateFamily):
            build_measure(flat)
        negative = ParamFamily(flat.box, flat.space, flat.probs_batch_fn,
                               thickness_batch=[lambda xs: -np.ones(xs.shape[0])])
        with pytest.raises(DegenerateFamily):
            tvu_density(negative, [[0.5]])

    @pytest.mark.parametrize("n", [0, 65_536])
    def test_binomial_family_refuses_n_past_one_block_of_cells(self, n):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigInvalid, match="33554432"):
                binomial_family(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_invalid_configs(self, family):
        with pytest.raises(ConfigInvalid):
            build_measure(family, resolution=0)
        with pytest.raises(ConfigInvalid):
            build_measure(family, tol=0.0)
        with pytest.raises(ConfigInvalid):
            build_measure(42)
        # 24^4 starting boxes of 3 * 8^4 evaluations; one box would fit.
        with pytest.raises(ConfigInvalid, match="lower the resolution$"):
            build_measure(sqrt_family(4))

    @pytest.mark.parametrize("bad", [
        {"tol": float("nan")}, {"tol": float("inf")}, {"resolution": 2.5},
        {"resolution": True}, {"resolution": 2, "max_panels": 2.5}, {"max_panels": float("inf")},
    ], ids=["tol-nan", "tol-inf", "resolution-2.5", "resolution-True", "max_panels-2.5",
            "max_panels-inf"])
    def test_build_measure_refuses_what_it_cannot_honour(self, bad):
        # A NaN tol passed every `err > tol * scale` test as False, so the
        # splitting ran to max_panels and reported itself converged.
        with pytest.raises(ConfigInvalid):
            build_measure(binomial_family(10), **bad)


class TestSimpleFamilies:
    def test_coin_match_density_and_marginal(self):
        fam = coin_match_family()
        m = build_measure(fam)
        assert tvu_density(fam, [[0.37]]).tolist() == [1.0]
        assert m.z == pytest.approx(1.0, rel=1e-12)
        H1 = fam.space.event(["H1H2", "H1T2"])
        assert m.event_prob(H1) == pytest.approx(0.5, rel=1e-12)

    def test_bernoulli_head_prob_is_half(self):
        m = build_measure(bernoulli_family())
        assert m.z == pytest.approx(1.0, rel=1e-12)
        assert m.event_prob(m.family.space.event(["H"])) == pytest.approx(
            0.5, rel=1e-12
        )

    def test_two_dimensional_box(self):
        # Two coins with independent biases: thickness 1 in each slot,
        # so Z = 1 and P(both heads) = 1/4.
        fam = two_coins([lambda xs: np.ones(xs.shape[0]), lambda xs: np.ones(xs.shape[0])])
        m = build_measure(fam, resolution=8)
        assert m.z == pytest.approx(1.0, rel=1e-9)
        assert m.event_prob(fam.space.event(["HH"])) == pytest.approx(0.25, rel=1e-6)

    def test_two_dimensional_box_by_finite_differences(self):
        fam = two_coins()
        m = build_measure(fam, resolution=8)
        assert m.z == pytest.approx(1.0, rel=1e-9)
        assert m.event_prob(fam.space.event(["HH"])) == pytest.approx(0.25, rel=1e-6)


def full_span(fam: ParamFamily) -> ParamFamily:
    """The same family with every outcome as its span."""
    return ParamFamily(fam.box, fam.space, fam.probs_batch_fn, kinks=fam.kinks,
                       thickness_batch=fam.thickness_batch_fns, name=fam.name, meta=fam.meta)


class TestOutcomeSpan:
    @pytest.mark.parametrize("n", [1, 2, 10, 30, 100, 400, 1000, 1447, 2047])
    def test_banded_outcome_masses_equal_a_full_pass_bitwise(self, n):
        banded = build_measure(binomial_family(n))
        full = TvuMeasure(full_span(banded.family), banded.nodes, banded.weights, banded.density)
        assert banded._outcome_mass.tobytes() == full._outcome_mass.tobytes()
        assert full.meta["outcome_cells"] == banded.nodes.shape[0] * (n + 1)
        assert banded.meta["outcome_cells"] <= full.meta["outcome_cells"]

    def test_outcome_cells_count_the_cells_the_pass_evaluates(self):
        assert build_measure(binomial_family(400)).meta["outcome_cells"] == 797_184
        m = build_measure(coin_match_family())  # registers no span
        assert m.meta["outcome_cells"] == m.nodes.shape[0] * 4

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 2000), ends=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
           inner=st.lists(st.floats(0.0, 1.0), max_size=6))
    @example(n=400, ends=[0.0, 0.0], inner=[])
    @example(n=400, ends=[1.0, 1.0], inner=[])
    @example(n=2000, ends=[0.0, 1.0], inner=[0.5])
    @example(n=2000, ends=[0.0, 1e-3], inner=[0.5])
    @example(n=2000, ends=[0.999, 1.0], inner=[0.5])
    @example(n=1, ends=[0.3, 0.3], inner=[])
    # The bound is an equality at k = 0 and k = n: here P(K = 0), then
    # P(K = n), is exp(-92.05), just above the floor of exp(-92.103).
    @example(n=2000, ends=[-math.expm1(-92.05 / 2000)] * 2, inner=[])
    @example(n=2000, ends=[math.exp(-92.05 / 2000)] * 2, inner=[])
    def test_span_leaves_out_only_outcomes_below_the_floor(self, n, ends, inner):
        a, b = sorted(ends)
        xs = np.clip(np.array([a, b, *(a + t * (b - a) for t in inner)]), a, b)[:, None]
        span = binomial_family(n).outcome_span(xs)
        assert 0 <= span.start < span.stop <= n + 1 and span.step is None
        outside = np.ones(n + 1, dtype=bool)
        outside[span] = False
        assert np.all(int_pmf(n, xs)[:, outside] < tvuniform.OUTCOME_FLOOR)

    @pytest.mark.parametrize("labels", [[123], [199, 200], [5, 123, 400], [0, 400]],
                             ids=["one", "two", "three-apart", "ends"])
    def test_event_probs_equal_the_full_tables_column_sums_bitwise(self, labels):
        fam = binomial_family(400)
        grid = np.linspace(0.0, 1.0, 1001)[:, None]
        event = fam.space.event(labels)
        want = fam.probs_matrix(grid)[:, list(event.indices)].sum(axis=1)
        assert fam.event_probs(grid, event).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "make", [lambda: binomial_family(400), bernoulli_family, coin_match_family],
        ids=["binomial400", "bernoulli", "coin-match"],
    )
    def test_sliced_probs_matrix_equals_the_full_tables_columns_bitwise(self, make):
        fam = make()
        xs = np.concatenate([[0.0, 1.0, 0.5, 1e-300], np.linspace(0.0, 1.0, 613)])[:, None]
        full = fam.probs_matrix(xs)
        m = len(fam.space)
        cuts = {0, 1, m // 3, m // 2, m - 1, m}
        for lo, hi in ((lo, hi) for lo in cuts for hi in cuts if lo < hi):
            got = fam.probs_matrix(xs, outcomes=slice(lo, hi))
            assert got.tobytes() == np.ascontiguousarray(full[:, lo:hi]).tobytes()
        assert fam.probs_matrix(xs, outcomes=slice(-1, None)).tobytes() == \
            np.ascontiguousarray(full[:, -1:]).tobytes()

    @pytest.mark.parametrize("outcomes", [slice(0, 2, 2), 1, [0, 1]])
    def test_a_slice_that_is_not_contiguous_is_refused(self, outcomes):
        with pytest.raises(ConfigInvalid):
            coin_match_family().probs_matrix([[0.5]], outcomes=outcomes)


def expanded(c: CredalSet) -> CredalSet:
    """``c`` with each member repeated by its multiplicity."""
    return CredalSet([d for d, k in zip(c.members, c.multiplicities) for _ in range(k)])


class TestCountingMeasure:
    def test_a_tower_over_a_set_builds_no_counting_measure(self, monkeypatch):
        calls, init = [], CountingMeasure.__init__
        monkeypatch.setattr(CountingMeasure, "__init__",
                            lambda self, *args: calls.append(args) or init(self, *args))
        c = urn_credal_set(UrnState(colors=("r", "y", "b"), ball_total=12))
        for mode in ("tvu", "grid"):
            build_tower(TowerConfig(base=c, base_samples=20, order_samples=20, max_order=2,
                                    base_mode=mode))
        assert calls == []

    def test_a_counting_measure_base_is_refused(self):
        c = urn_credal_set(UrnState(ball_total=3))
        with pytest.raises(ConfigInvalid, match=r"\.credal_set"):
            TowerConfig(base=CountingMeasure(c))

    @pytest.mark.parametrize("exclude", [True, 1.0])
    def test_excluded_member_is_a_true_integer(self, exclude):
        # The member a finite-mode ratio excludes from its reference is its
        # null; True or 1.0 must not exclude member 1.
        c = urn_credal_set(UrnState(colors=("r", "y", "b"), ball_total=3))
        with pytest.raises(ConfigInvalid, match="null must be an integer"):
            hocs_ratio(c, exclude, c.space.event(["r"]))

    def test_queries_never_change_the_measure(self):
        c = urn_credal_set(UrnState(colors=("r", "y", "b"), ball_total=12))
        m = CountingMeasure(c)
        fields = [getattr(m, name) for name in CountingMeasure.__slots__]
        # By symmetry every colour's mean share over the compositions is 1/3.
        events = [c.space.event(["r"]), c.space.event(["y", "b"])]
        assert [m.event_prob(e) for e in events] == [Fraction(1, 3), Fraction(2, 3)]
        assert m.posterior_predictive(events[0], events[1]) == 0
        assert m.posterior_predictive(events[1], events[1]) == 1
        assert all(getattr(m, name) is f for name, f in zip(CountingMeasure.__slots__, fields))

    def test_uniform_grid_degenerate_case_matches_continuum(self):
        # 101 exact members p = i/100 of a 1-toss family: the counting
        # average of p is exactly 1/2, agreeing with the continuum.
        sp = OutcomeSpace(["H", "T"])
        members = [
            make_rational_distribution(sp, [Fraction(i, 100), 1 - Fraction(i, 100)])
            for i in range(101)
        ]
        m = CountingMeasure(CredalSet(members))
        got = m.event_prob(sp.event(["H"]))
        assert got == Fraction(1, 2)
        continuum = build_measure(bernoulli_family()).event_prob(
            bernoulli_family().space.event(["H"])
        )
        assert abs(float(got) - continuum) < 1e-3

    def test_exclusion_renormalizes(self):
        sp = OutcomeSpace(["H", "T"])
        members = [
            make_rational_distribution(sp, [w, 1 - w])
            for w in (Fraction(0), Fraction(1, 2), Fraction(1))
        ]
        c = CredalSet(members)
        e = sp.event(["H"])
        assert CountingMeasure(c).event_prob(e) == Fraction(1, 2)
        # A finite-mode null is excluded from its own reference.
        assert [r.reference_prob for r in hocs_curve(c, e, [1, 2])] == [0.5, 0.25]
        with pytest.raises(IndexOutOfRange):
            hocs_ratio(c, 7, e)

    def test_multiplicity_weighting(self):
        # Each member counts once; the set expanded by its multiplicities
        # weights members by them.
        sp = OutcomeSpace(["H", "T"])
        a = make_rational_distribution(sp, [1, 0])
        b = make_rational_distribution(sp, [0, 1])
        c = CredalSet([a, b], multiplicities=[3, 1])
        e = sp.event(["H"])
        assert CountingMeasure(c).event_prob(e) == Fraction(1, 2)
        assert CountingMeasure(expanded(c)).event_prob(e) == Fraction(3, 4)
        assert hocs_ratio(expanded(c), 3, e).reference_prob == 1

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_mass_vector_matches_brute_force_over_members(self, data):
        # Oracle: each probability summed member by member in exact
        # arithmetic; the measure must return it exactly, or rounded once
        # to a float when any member is a float.  Over the members other
        # than a null, the same sum is hocs_curve's reference, rounded
        # once to a float.  Sets mix exact and float members,
        # and may hold a member more than once: each copy counts.
        k = data.draw(st.integers(2, 4), label="outcomes")
        sp = OutcomeSpace([f"o{i}" for i in range(k)])
        n = data.draw(st.integers(1, 5), label="members")
        kinds = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="exact")
        exact = all(kinds)
        weights = st.lists(st.integers(0, 9), min_size=k, max_size=k).filter(any)
        members = [
            (make_rational_distribution if kind else make_distribution)(sp, data.draw(weights))
            for kind in kinds
        ]
        members += data.draw(st.lists(st.sampled_from(members), max_size=3), label="duplicates")
        n = len(members)
        mults = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        cset = CredalSet(members, multiplicities=mults)
        m = CountingMeasure(cset)
        counts = [1] * n

        def subset():
            return sp.event_from_indices(data.draw(st.sets(st.integers(0, k - 1))))

        def oracle(num, den):
            return num / den if exact else float(num / den)

        def mass(member, event):
            return sum((Fraction(member.probs[o]) for o in event.indices), Fraction(0))

        e = subset()
        keep = list(zip(counts, members))
        got = m.event_prob(e)
        assert type(got) is (Fraction if exact else float)
        assert got == oracle(sum(c * mass(d, e) for c, d in keep), sum(counts))
        if n > 1:
            j = data.draw(st.integers(0, n - 1), label="null")
            rest = keep[:j] + keep[j + 1:]
            want = float(sum(c * mass(d, e) for c, d in rest) / sum(c for c, _ in rest))
            if want == 0:
                with pytest.raises(ZeroEvidence):
                    hocs_ratio(cset, j, e)
            else:
                assert hocs_ratio(cset, j, e).reference_prob == want

        observed, query = subset(), subset()
        den = sum(c * mass(d, observed) for c, d in keep)
        if den == 0:
            with pytest.raises(ZeroEvidence):
                m.posterior_predictive(observed, query)
        else:
            num = sum(c * mass(d, query & observed) for c, d in keep)
            assert m.posterior_predictive(observed, query) == oracle(num, den)

    def test_build_measure_refuses_a_credal_set(self):
        c = CredalSet([make_rational_distribution(OutcomeSpace(["H", "T"]), [1, 3])])
        with pytest.raises(ConfigInvalid, match="CountingMeasure"):
            build_measure(c)

    def test_events_of_another_space_are_rejected(self):
        sp = OutcomeSpace(["H", "T"])
        m = CountingMeasure(CredalSet([make_rational_distribution(sp, [1, 3])]))
        pair = product_space(sp, 2)
        with pytest.raises(SpaceMismatch):
            m.event_prob(pair.event(["H,H"]))
        # Lifted members live on the pair space, so single-draw events
        # no longer fit them.
        lifted = CountingMeasure(CredalSet([iid_extension(d, 2) for d in m.credal_set]))
        with pytest.raises(SpaceMismatch):
            lifted.posterior_predictive(sp.event(["H"]), sp.event(["H"]))


@pytest.fixture(scope="module")
def flat_coin():
    return build_measure(bernoulli_family())


class TestPosteriorPredictive:
    # Draws sharing the parameter are independent given it, so a predictive
    # after several draws is a ratio of two expectations over the nodes.
    def test_laplace_rule_of_succession(self, flat_coin):
        # Flat measure over a 1-toss bias family, one head observed:
        # P(next head) = int p^2 / int p = 2/3.
        p = flat_coin.family.probs_matrix(flat_coin.nodes)[:, 0]
        got = flat_coin.expectation(p**2) / flat_coin.expectation(p)
        assert got == pytest.approx(2 / 3, rel=1e-9)

    @pytest.mark.parametrize("heads, tails", [(h, t) for h in range(15) for t in range(15 - h)])
    def test_rule_of_succession(self, flat_coin, heads, tails):
        # After h heads and t tails, P(next head) = (h + 1) / (h + t + 2).
        p, q = flat_coin.family.probs_matrix(flat_coin.nodes).T
        likelihood = p**heads * q**tails
        got = flat_coin.expectation(likelihood * p) / flat_coin.expectation(likelihood)
        assert got == pytest.approx((heads + 1) / (heads + tails + 2), rel=1e-13)

    def test_zero_evidence_raises(self):
        base = bernoulli_family()
        m = build_measure(base)
        empty = base.space.event([])
        with pytest.raises(ZeroEvidence):
            m.posterior_predictive(empty, base.space.event(["H"]))

    def test_counting_route_with_lift_is_exact(self):
        sp = OutcomeSpace(["H", "T"])
        members = [
            make_rational_distribution(sp, [Fraction(i, 4), 1 - Fraction(i, 4)])
            for i in range(5)
        ]
        m = CountingMeasure(CredalSet([iid_extension(d, 2) for d in members]))
        pair = product_space(sp, 2)
        first_h = pair.event([f"H,{c}" for c in sp.labels])
        second_h = pair.event([f"{c},H" for c in sp.labels])
        got = m.posterior_predictive(first_h, second_h)
        # sum p^2 / sum p over p in {0, 1/4, 1/2, 3/4, 1}
        want = Fraction(sum(Fraction(i, 4) ** 2 for i in range(5)), 1) / sum(
            Fraction(i, 4) for i in range(5)
        )
        assert got == want


def _float_set() -> CredalSet:
    # No member gives "c" any mass, so {"c"} is a non-empty event of mass zero.
    sp = OutcomeSpace(["a", "b", "c"])
    return CredalSet([make_distribution(sp, w) for w in ([0.1, 0.9, 0.0], [0.7, 0.3, 0.0],
                                                         [1 / 3, 2 / 3, 0.0])])


QUERY_MEASURES = {
    "tvu": lambda: build_measure(binomial_family(10)),
    "exact counting": lambda: CountingMeasure(urn_credal_set(ball_total=6)),
    "float counting": lambda: CountingMeasure(_float_set()),
}


class TestOneQueryPath:
    # Both measures answer through one mass-vector base: an event is
    # m[E] / total, a conditional m[query & observed] / m[observed].

    @pytest.fixture(scope="class", params=list(QUERY_MEASURES))
    def case(self, request):
        """The measure, its space, the mass of an event, the total and the result type."""
        measure = QUERY_MEASURES[request.param]()
        if isinstance(measure, TvuMeasure):
            # numpy's pairwise sum of the held masses, divided once.
            return (measure, measure.family.space,
                    lambda e: measure._outcome_mass[list(e.indices)].sum(), measure.z, float)
        # The exact mass of each outcome, summed afresh from the members.
        members, space = measure.credal_set.members, measure.credal_set.space
        mass = [sum(Fraction(d.probs[o]) for d in members) for o in range(len(space))]
        exact = all(isinstance(d.probs[0], Fraction) for d in members)
        return (measure, space, lambda e: sum((mass[o] for o in e.indices), Fraction(0)),
                len(members), Fraction if exact else float)

    @staticmethod
    def events(space: OutcomeSpace) -> list:
        if len(space) <= 4:
            return [space.event_from_indices(c) for r in range(len(space) + 1)
                    for c in itertools.combinations(range(len(space)), r)]
        rng = np.random.default_rng(33)
        return [space.event_from_indices(np.flatnonzero(rng.random(len(space)) < 0.5))
                for _ in range(40)]

    def test_no_measure_defines_its_own_queries(self):
        for cls in (TvuMeasure, CountingMeasure):
            assert not {"event_prob", "posterior_predictive"} & set(vars(cls))

    def test_queries_equal_the_mass_formulas(self, case):
        measure, space, mass, total, result = case
        events = self.events(space)
        for event in events:
            got = measure.event_prob(event)
            assert type(got) is result and got == result(mass(event) / total)
        for observed, query in itertools.product(events, events):
            den = mass(observed)
            if den > 0:
                got = measure.posterior_predictive(observed, query)
                assert type(got) is result and got == result(mass(query & observed) / den)

    def test_an_empty_event_has_a_zero_of_the_result_type(self, case):
        measure, space, _, _, result = case
        empty, full = space.event([]), space.full_event()
        for got in (measure.event_prob(empty), measure.posterior_predictive(full, empty)):
            assert type(got) is result and got == 0

    def test_zero_mass_evidence_is_refused(self, case):
        measure, space, mass, _, _ = case
        # The empty event, and {"c"} of the float set.
        zero = [space.event([])] + [e for e in self.events(space) if e.indices and mass(e) == 0]
        for observed in zero:
            with pytest.raises(ZeroEvidence):
                measure.posterior_predictive(observed, space.full_event())

    def test_events_of_another_space_are_refused(self, case):
        measure, space = case[:2]
        own, foreign = space.full_event(), OutcomeSpace(["x", "y"]).full_event()
        with pytest.raises(SpaceMismatch):
            measure.event_prob(foreign)
        with pytest.raises(SpaceMismatch):
            measure.posterior_predictive(foreign, own)
        with pytest.raises(SpaceMismatch):
            measure.posterior_predictive(own, foreign)
        # A foreign query is refused even when the evidence has zero mass.
        with pytest.raises(SpaceMismatch):
            measure.posterior_predictive(space.event([]), foreign)


class TestSampling:
    def test_samples_are_nodes_in_proportion_to_their_mass(self, measure):
        size = 1601
        xs = measure.sample_params(np.random.default_rng(1), size)
        nodes = measure.nodes[:, 0]
        assert np.isin(xs, nodes).all()
        assert len(np.unique(xs)) < xs.size  # heavy nodes are drawn again
        counts = (xs[:, None] == nodes).sum(axis=0)
        mass = measure.weights * measure.density
        # Stratified draws: a node whose mass spans L strata is drawn
        # more than L - 2 and fewer than L + 2 times.
        assert np.all(np.abs(counts - size * mass / mass.sum()) < 2)

    def test_a_towers_base_over_a_set_draws_each_member_equally(self):
        # Multiplicities do not weight the draws: each member counts once.
        sp = OutcomeSpace(["a", "b"])
        members = [make_rational_distribution(sp, [i, 6 - i]) for i in range(7)]
        c = CredalSet(members, multiplicities=[5, 1, 3, 2, 1, 1, 4])
        for seed in range(5):
            tower = build_tower(TowerConfig(base=c, base_samples=400, max_order=1, seed=seed))
            counts = np.bincount(tower.base_params.astype(int), minlength=7)
            assert np.all(np.abs(counts - 400 / 7) < 2)

    def test_draws_never_pass_the_end_or_land_on_zero_mass(self):
        # Density zero on the upper half of the box, so the last nodes
        # carry no mass; offsets just below 1 put the last stratum's point
        # at the total mass after rounding.
        fam = ParamFamily(
            ParamBox([(0.0, 1.0)]),
            OutcomeSpace(["H", "T"]),
            lambda xs, out, outcomes: np.concatenate([xs, 1 - xs], axis=1)[:, outcomes],
            kinks=[(0.5,)],
            thickness_batch=[lambda xs: np.where(xs[:, 0] < 0.5, 1.0, 0.0)],
        )
        m = build_measure(fam)

        class TopOffsets:
            def random(self, size):
                return np.full(size, np.nextafter(1.0, 0.0))

        for rng in (TopOffsets(), np.random.default_rng(0)):
            xs = m.sample_params(rng, 64)
            assert np.isin(xs, m.nodes[:, 0]).all()
            assert np.all(xs < 0.5)

    def test_sampling_is_deterministic_given_seed(self, measure):
        a = measure.sample_params(np.random.default_rng(9), 500)
        b = measure.sample_params(np.random.default_rng(9), 500)
        assert a.tobytes() == b.tobytes()

    def test_sample_mean_matches_density_mean(self, measure):
        rng = np.random.default_rng(4)
        xs = measure.sample_params(rng, 200_000)
        want = measure.expectation(measure.nodes[:, 0])
        # sd of the mean ~ 0.0007; allow 4 sigma
        assert xs.mean() == pytest.approx(want, abs=3e-3)


class TestProductFamilies:
    def test_iid_extension_exact(self):
        sp = OutcomeSpace(["r", "y"])
        d = make_rational_distribution(sp, [1, 2])
        lifted = iid_extension(d, 2)
        assert lifted.probs == (
            Fraction(1, 9),
            Fraction(2, 9),
            Fraction(2, 9),
            Fraction(4, 9),
        )


class TestParamBox:
    def test_validation(self):
        with pytest.raises(ConfigInvalid):
            ParamBox([])
        with pytest.raises(ConfigInvalid):
            ParamBox([(0.0, 0.0)])
        with pytest.raises(ConfigInvalid):
            ParamBox([(0.0, math.inf)])

    def test_kinks_must_be_interior(self):
        with pytest.raises(ConfigInvalid):
            ParamFamily(
                ParamBox([(0.0, 1.0)]),
                OutcomeSpace([0, 1]),
                lambda xs, out, outcomes: np.concatenate([xs, 1 - xs], axis=1)[:, outcomes],
                kinks=[(0.0,)],
            )


class TestGaussLegendreRules:
    @pytest.mark.parametrize("rule, m", [(_GL8, 8), (_GL4, 4)], ids=["GL8", "GL4"])
    def test_constants_are_leggauss_bit_for_bit(self, rule, m):
        # The package writes the rules out rather than importing
        # numpy.polynomial; the test may import it.
        for got, want in zip(rule, np.polynomial.legendre.leggauss(m)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rule, degree", [(_GL8, 15), (_GL4, 7)], ids=["GL8", "GL4"])
    def test_rules_integrate_polynomials_exactly(self, rule, degree):
        # An m-point rule is exact for x**k, k <= 2m - 1: the integral over
        # [-1, 1] is 2 / (k + 1) for even k and 0 for odd k.  The sums are
        # exact fractions, so only the float64 nodes and weights err: each
        # lies a few ulps from the true value (the GL-8 moments miss by up
        # to 1.22e-15), so the bound is 16 ulps of 1.
        x, w = ([Fraction(v) for v in a.tolist()] for a in rule)
        for k in range(degree + 1):
            exact = Fraction(2, k + 1) if k % 2 == 0 else 0
            moment = sum(wi * xi**k for wi, xi in zip(w, x))
            assert abs(moment - exact) <= 16 * np.finfo(np.float64).eps, k
