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

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from credal import (
    ConfigInvalid,
    CountingMeasure,
    CredalSet,
    DegenerateFamily,
    IndexOutOfRange,
    OutcomeSpace,
    ParamBox,
    ParamFamily,
    QuadratureNotConverged,
    StepTooLarge,
    TvuMeasure,
    ZeroEvidence,
    bernoulli_family,
    binomial_family,
    build_measure,
    coin_match_family,
    component_event,
    iid_extension,
    make_rational_distribution,
    product_family,
    product_space,
    thickness,
    tvu_density,
)

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


def fsum_reference(measure, values) -> float:
    """Exactly rounded quadrature sum over the same products as the library."""
    return math.fsum((measure.weights * measure.density * values).tolist())


def quad_with_kinks(f) -> float:
    val, err = integrate.quad(f, 0.0, 1.0, points=KINKS, limit=400)
    assert err < 1e-10
    return val


@pytest.fixture(scope="module")
def family():
    return binomial_family(N)


@pytest.fixture(scope="module")
def measure(family):
    return build_measure(family, resolution=24)


class TestThickness:
    def test_registered_matches_independent_closed_form(self, family):
        for p in np.linspace(0.001, 0.999, 211):
            got = tvu_density(family, p)
            assert got == pytest.approx(panel_thickness(p), rel=1e-12)

    def test_finite_difference_matches_analytic_off_kinks(self, family):
        for p in (0.05, 0.123, 0.31, 0.49, 0.77, 0.95):
            fd = thickness(family, p, 0)
            assert fd == pytest.approx(panel_thickness(p), abs=1e-6)

    def test_finite_difference_at_kink_averages_one_sided_limits(self, family):
        # The thickness is continuous at kinks (both one-sided limits
        # agree), so the averaged estimate must still match.
        for k in (0.1, 0.5, 0.9):
            assert thickness(family, k, 0) == pytest.approx(
                panel_thickness(k), abs=1e-6
            )

    @pytest.mark.parametrize("n", [1, 2, 10, 400])
    def test_closed_form_matches_derivative_l1_sum(self, n):
        kinks = np.arange(n + 1) / n
        near_ends = np.array([1e-12, 5e-13, 1.0 - 1e-12, 1.0 - 5e-13])
        ps = np.concatenate([kinks, kinks[1:-1] + 1e-12, kinks[1:-1] - 1e-12,
                             near_ends, np.linspace(0.0, 1.0, 1001)])
        got = binomial_family(n).thickness_batch_fns[0](ps[:, None])
        np.testing.assert_allclose(got, derivative_thickness(ps, n), rtol=1e-12, atol=0)

    def test_endpoints_equal_n_exactly(self, family):
        assert tvu_density(family, 0.0) == float(N)
        assert tvu_density(family, 1.0) == float(N)

    def test_endpoint_finite_difference_is_one_sided(self, family):
        assert thickness(family, 0.0, 0) == pytest.approx(float(N), abs=1e-3)
        assert thickness(family, 1.0, 0) == pytest.approx(float(N), abs=1e-3)

    def test_step_too_large(self, family):
        with pytest.raises(StepTooLarge):
            thickness(family, 0.5, 0, h=1.5)

    def test_param_outside_box(self, family):
        with pytest.raises(IndexOutOfRange):
            thickness(family, 1.5, 0)

    def test_fd_on_unregistered_family_matches_chain_rule(self, family):
        # Same family driven through s = p^3 without registered
        # thickness: FD must recover t_p(s^(1/3)) * ds->dp factor.
        fam_s = ParamFamily(
            ParamBox([(0.0, 1.0)]),
            family.space,
            lambda xs, out: family.probs_batch_fn(xs ** (1 / 3), out),
            kinks=[tuple(k**3 for k in KINKS)],
        )
        for s in (0.2, 0.5, 0.9):
            p = s ** (1 / 3)
            want = panel_thickness(p) * p / (3.0 * s)
            assert thickness(fam_s, s, 0) == pytest.approx(want, rel=1e-5)


class TestMeasure:
    def test_normalizer_against_quad_and_golden(self, measure):
        z_quad = quad_with_kinks(panel_thickness)
        assert measure.z == pytest.approx(z_quad, rel=1e-10)
        assert measure.z == pytest.approx(GOLDEN_Z, rel=1e-9)

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

    def test_meta_records_quadrature_diagnostics(self, measure):
        meta = measure.meta
        assert meta["converged"] is True
        assert 0.0 <= meta["err_estimate"] <= meta["tol"]
        assert meta["panels"] * 16 == measure.nodes.shape[0]
        assert meta["evaluations"] >= meta["panels"] * 24

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_missed_tolerance_raises(self, ndim):
        # sqrt has an unbounded derivative at 0, so no GL rule integrates
        # it to 1e-14 with this few panels or refinement levels.
        fam = ParamFamily(
            ParamBox([(0.0, 1.0)] * ndim),
            OutcomeSpace([0, 1]),
            lambda x, out: np.array([x[0], 1.0 - x[0]]),
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
        def probs_batch(xs, out):
            return family.probs_batch_fn(xs ** (1 / 3), out)

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
        assert measure.pdf(0.25) == pytest.approx(
            panel_thickness(0.25) / measure.z, rel=1e-9
        )

    def test_degenerate_family_raises(self):
        flat = ParamFamily(
            ParamBox([(0.0, 1.0)]),
            OutcomeSpace([0, 1]),
            lambda xs, out: np.full((xs.shape[0], 2), 0.5),
            thickness_batch=[lambda xs: np.zeros(xs.shape[0])],
        )
        with pytest.raises(DegenerateFamily):
            build_measure(flat)

    def test_invalid_configs(self, family):
        with pytest.raises(ConfigInvalid):
            build_measure(family, resolution=0)
        with pytest.raises(ConfigInvalid):
            build_measure(family, tol=0.0)
        with pytest.raises(ConfigInvalid):
            build_measure(42)


class TestSimpleFamilies:
    def test_coin_match_density_and_marginal(self):
        fam = coin_match_family()
        m = build_measure(fam)
        assert tvu_density(fam, 0.37) == 1.0
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
        def probs(xs, out):
            p, q = xs[:, 0], xs[:, 1]
            return np.stack([p * q, p * (1 - q), (1 - p) * q, (1 - p) * (1 - q)], axis=1)

        fam = ParamFamily(
            ParamBox([(0.0, 1.0), (0.0, 1.0)]),
            OutcomeSpace(["HH", "HT", "TH", "TT"]),
            probs,
            thickness_batch=[
                lambda xs: np.ones(xs.shape[0]),
                lambda xs: np.ones(xs.shape[0]),
            ],
        )
        m = build_measure(fam, resolution=8)
        assert m.z == pytest.approx(1.0, rel=1e-9)
        assert m.event_prob(fam.space.event(["HH"])) == pytest.approx(0.25, rel=1e-6)


class TestCountingMeasure:
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
        m = CountingMeasure(CredalSet(members))
        e = sp.event(["H"])
        assert m.event_prob(e) == Fraction(1, 2)
        assert m.event_prob(e, exclude=1) == Fraction(1, 2)
        assert m.event_prob(e, exclude=2) == Fraction(1, 4)
        with pytest.raises(IndexOutOfRange):
            m.event_prob(e, exclude=7)

    def test_multiplicity_weighting(self):
        sp = OutcomeSpace(["H", "T"])
        a = make_rational_distribution(sp, [1, 0])
        b = make_rational_distribution(sp, [0, 1])
        c = CredalSet([a, b], multiplicities=[3, 1])
        e = sp.event(["H"])
        assert CountingMeasure(c).event_prob(e) == Fraction(1, 2)
        assert CountingMeasure(c, use_multiplicities=True).event_prob(
            e
        ) == Fraction(3, 4)


class TestPosteriorPredictive:
    def test_laplace_rule_of_succession(self):
        # Flat measure over a 1-toss bias family, one head observed:
        # P(next head) = int p^2 / int p = 2/3.
        base = bernoulli_family()
        m = build_measure(base)
        pair = product_family(base, 2)
        first_h = component_event(pair.space, base.space, 2, 0, "H")
        second_h = component_event(pair.space, base.space, 2, 1, "H")
        got = m.posterior_predictive(first_h, second_h, family=pair)
        assert got == pytest.approx(2 / 3, rel=1e-9)

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
        m = CountingMeasure(CredalSet(members))
        pair = product_space(sp, 2)
        first_h = component_event(pair, sp, 2, 0, "H")
        second_h = component_event(pair, sp, 2, 1, "H")
        got = m.posterior_predictive(
            first_h, second_h, lift=lambda d: iid_extension(d, 2)
        )
        # sum p^2 / sum p over p in {0, 1/4, 1/2, 3/4, 1}
        want = Fraction(sum(Fraction(i, 4) ** 2 for i in range(5)), 1) / sum(
            Fraction(i, 4) for i in range(5)
        )
        assert got == want


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

    def test_counting_measure_draws_follow_the_weights(self):
        sp = OutcomeSpace(["a", "b"])
        members = [make_rational_distribution(sp, [i, 4 - i]) for i in range(4)]
        m = CountingMeasure(CredalSet(members, multiplicities=[5, 1, 3, 2]),
                            use_multiplicities=True)
        idx = m.sample_members(np.random.default_rng(3), 400)
        counts = np.bincount(idx, minlength=4)
        assert np.all(np.abs(counts - 400 * np.array([5, 1, 3, 2]) / 11) < 2)

    def test_draws_never_pass_the_end_or_land_on_zero_mass(self):
        # Density zero on the upper half of the box, so the last nodes
        # carry no mass; offsets just below 1 put the last stratum's point
        # at the total mass after rounding.
        fam = ParamFamily(
            ParamBox([(0.0, 1.0)]),
            OutcomeSpace(["H", "T"]),
            lambda xs, out: np.concatenate([xs, 1 - xs], axis=1),
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
    def test_product_probs_are_kron_powers(self):
        base = bernoulli_family()
        pair = product_family(base, 2)
        got = pair.probs(0.3)
        want = np.kron([0.3, 0.7], [0.3, 0.7])
        np.testing.assert_allclose(got, want, atol=1e-15)
        batch = pair.probs_matrix(np.array([[0.3], [0.6]]))
        np.testing.assert_allclose(batch[1], np.kron([0.6, 0.4], [0.6, 0.4]))

    def test_component_event_indexing(self):
        sp = OutcomeSpace(["r", "y", "b"])
        trip = product_space(sp, 3)
        e = component_event(trip, sp, 3, 1, "y")
        assert len(e) == 9
        assert all(lab.split(",")[1] == "y" for lab in e.labels)

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

    def test_contains_and_clip(self):
        box = ParamBox([(0.0, 1.0), (-1.0, 1.0)])
        assert box.contains((0.5, 0.0))
        assert not box.contains((1.5, 0.0))
        assert box.clip((2.0, -3.0)) == (1.0, -1.0)

    def test_kinks_must_be_interior(self):
        with pytest.raises(ConfigInvalid):
            ParamFamily(
                ParamBox([(0.0, 1.0)]),
                OutcomeSpace([0, 1]),
                lambda xs, out: np.concatenate([xs, 1 - xs], axis=1),
                kinks=[(0.0,)],
            )
