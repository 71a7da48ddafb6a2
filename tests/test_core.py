"""Core geometry tests: distributions, TV distance, conditioning, sampling.

The TV implementation is checked against an independent oracle — the
literal supremum over all 2^n events — and against metric axioms on
large random batches.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from credal import (
    ConfigInvalid,
    Event,
    FiniteDistribution,
    IndexOutOfRange,
    LengthMismatch,
    NegativeWeight,
    OutcomeSpace,
    RationalDistribution,
    SpaceMismatch,
    ZeroProbabilityEvent,
    ZeroTotal,
    condition,
    event_probability,
    make_distribution,
    make_rational_distribution,
    sample_l1_uniform,
    stable_sum,
    tv_distance,
)
from credal.core import sample_l1_uniform_rows
from credal.io import format_float


def tv_sup_oracle(p: np.ndarray, q: np.ndarray) -> float:
    """sup_E |p(E) - q(E)| by exhaustive enumeration of all events."""
    n = p.size
    best = 0.0
    for mask in range(1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        best = max(best, abs(p[idx].sum() - q[idx].sum()))
    return best


class TestOutcomeSpaceAndEvents:
    def test_labels_must_be_distinct_and_nonempty(self):
        with pytest.raises(LengthMismatch):
            OutcomeSpace([])
        with pytest.raises(LengthMismatch):
            OutcomeSpace(["a", "a"])

    def test_index_and_unknown_label(self):
        sp = OutcomeSpace(["a", "b", "c"])
        assert sp.index("c") == 2
        with pytest.raises(IndexOutOfRange):
            sp.index("z")

    def test_event_construction_sorts_and_dedups(self):
        sp = OutcomeSpace(list("abcd"))
        e = Event(sp, [3, 1, 3])
        assert e.indices == (1, 3)
        assert e.labels == ("b", "d")

    def test_event_index_bounds(self):
        sp = OutcomeSpace(list("ab"))
        with pytest.raises(IndexOutOfRange):
            Event(sp, [2])
        with pytest.raises(IndexOutOfRange):
            Event(sp, [-1])

    @pytest.mark.parametrize("bad", [0.9, True, "1"])
    def test_event_indices_must_be_true_integers(self, bad):
        # int() would read 0.9 as 0, True as 1 and "1" as 1.
        sp = OutcomeSpace(["a", "b", "c"])
        with pytest.raises(ConfigInvalid, match="event index must be an integer"):
            sp.event_from_indices([bad])
        with pytest.raises(ConfigInvalid):
            Event(sp, [0, bad])
        assert sp.event_from_indices([np.int64(1), np.uint8(2)]).indices == (1, 2)

    def test_event_algebra(self):
        sp = OutcomeSpace(list("abcd"))
        e = sp.event(["a", "b"])
        f = sp.event(["b", "c"])
        assert (e & f).labels == ("b",)
        assert e.complement().labels == ("c", "d")
        assert sp.full_event().indices == (0, 1, 2, 3)

    def test_event_space_mismatch(self):
        e = OutcomeSpace(list("ab")).event(["a"])
        f = OutcomeSpace(list("xy")).event(["x"])
        with pytest.raises(SpaceMismatch):
            e & f

    @pytest.mark.parametrize("bad", ["ab", "a", None, 3])
    def test_event_labels_must_be_a_sequence(self, bad):
        # A bare string is not split into one-character labels: on this
        # space "ab" would have named the event {a, b}, not the label "ab".
        sp = OutcomeSpace(["a", "b", "ab"])
        with pytest.raises(ConfigInvalid, match="event labels must be a sequence"):
            sp.event(bad)
        assert sp.event(["ab"]).labels == ("ab",)
        assert sp.event(("a", "b")).labels == ("a", "b")


class TestMakeDistribution:
    def test_normalizes_preserving_proportions(self):
        sp = OutcomeSpace([0, 1, 2])
        d = make_distribution(sp, [2, 0, 2])
        assert d.probs.tolist() == [0.5, 0.0, 0.5]

    def test_already_normalized_passes_through(self):
        sp = OutcomeSpace([0, 1, 2])
        d = make_distribution(sp, [0.1, 0.9, 0.0])
        assert d.probs.tolist() == [0.1, 0.9, 0.0]

    def test_validation_errors(self):
        sp = OutcomeSpace([0, 1, 2])
        with pytest.raises(NegativeWeight):
            make_distribution(sp, [1, -1, 1])
        with pytest.raises(ZeroTotal):
            make_distribution(sp, [0, 0, 0])
        with pytest.raises(LengthMismatch):
            make_distribution(sp, [1, 1])
        # Finite weights whose total overflows are refused, with no warning first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroTotal, match="finite positive total"):
                make_distribution(sp, [1e308, 1e308, 0])

    def test_constructor_rejects_unnormalized(self):
        sp = OutcomeSpace([0, 1])
        with pytest.raises(ZeroTotal):
            FiniteDistribution(sp, [0.5, 0.6])

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_values_are_refused(self, bad):
        # Before, FiniteDistribution(sp, [nan, nan]) was accepted (a NaN
        # total passed the sum check), make_distribution(sp, [inf, 0])
        # returned [nan, 0], and the exact constructors raised a raw
        # ValueError or OverflowError from Fraction.
        sp = OutcomeSpace([0, 1])
        for build in (lambda: FiniteDistribution(sp, [bad, bad]),
                      lambda: FiniteDistribution(sp, [bad, 0.0]),
                      lambda: make_distribution(sp, [bad, 0]),
                      lambda: make_distribution(sp, [bad, 1]),
                      lambda: make_rational_distribution(sp, [bad, 1]),
                      lambda: RationalDistribution(sp, [bad, 0])):
            with pytest.raises(ZeroTotal):
                build()

    def test_probs_are_readonly(self):
        d = make_distribution(OutcomeSpace([0, 1]), [1, 1])
        with pytest.raises(ValueError):
            d.probs[0] = 0.9


class TestTVDistance:
    def test_matches_sup_over_events_exhaustively(self):
        rng = np.random.default_rng(20260819)
        for n in (2, 3, 5, 8, 12):
            sp = OutcomeSpace(list(range(n)))
            for _ in range(3):
                p = sample_l1_uniform(sp, rng)
                q = sample_l1_uniform(sp, rng)
                got = tv_distance(p, q)
                want = tv_sup_oracle(p.probs, q.probs)
                assert abs(got - want) < 1e-12

    def test_metric_axioms_random_triples(self):
        rng = np.random.default_rng(7)
        n, m = 6, 10_000
        a = sample_l1_uniform_rows(n, m, rng)
        b = sample_l1_uniform_rows(n, m, rng)
        c = sample_l1_uniform_rows(n, m, rng)

        def tv_rows(x, y):
            return 0.5 * np.abs(x - y).sum(axis=1)

        dab, dba = tv_rows(a, b), tv_rows(b, a)
        dac, dcb = tv_rows(a, c), tv_rows(c, b)
        assert np.array_equal(dab, dba)                      # symmetry
        assert np.all(dab >= 0.0) and np.all(dab <= 1.0)     # range
        assert np.all(tv_rows(a, a) == 0.0)                  # identity
        assert np.all(dab <= dac + dcb + 1e-12)              # triangle

    def test_disjoint_supports_give_one(self):
        sp = OutcomeSpace([0, 1])
        p = make_distribution(sp, [1, 0])
        q = make_distribution(sp, [0, 1])
        assert tv_distance(p, q) == 1.0

    def test_space_mismatch(self):
        p = make_distribution(OutcomeSpace([0, 1]), [1, 1])
        q = make_distribution(OutcomeSpace([5, 6]), [1, 1])
        with pytest.raises(SpaceMismatch):
            tv_distance(p, q)

    def test_rational_inputs(self):
        sp = OutcomeSpace([0, 1])
        p = make_rational_distribution(sp, [1, 3])
        q = make_rational_distribution(sp, [3, 1])
        assert tv_distance(p, q) == pytest.approx(0.5, abs=1e-15)


class TestConditioning:
    def test_uniform_conditioned_on_half(self):
        sp = OutcomeSpace([0, 1, 2, 3])
        u = make_distribution(sp, [1, 1, 1, 1])
        d = condition(u, sp.event([0, 1]))
        assert d.probs.tolist() == [0.5, 0.5, 0.0, 0.0]

    def test_result_supported_inside_event(self):
        rng = np.random.default_rng(3)
        sp = OutcomeSpace(list(range(7)))
        d = sample_l1_uniform(sp, rng)
        e = sp.event([1, 4, 5])
        c = condition(d, e)
        assert event_probability(c, e) == pytest.approx(1.0, abs=1e-12)
        assert event_probability(c, e.complement()) == 0.0
        # proportions inside the event are preserved
        ratio = c.probs[4] / c.probs[1]
        assert ratio == pytest.approx(d.probs[4] / d.probs[1], rel=1e-12)

    def test_float_result_divides_each_probability_once_by_the_mass(self):
        rng = np.random.default_rng(11)
        sp = OutcomeSpace(list(range(9)))
        for _ in range(50):
            d = sample_l1_uniform(sp, rng)
            idx = sorted(rng.choice(9, size=rng.integers(1, 9), replace=False).tolist())
            want = np.zeros(9)
            want[idx] = d.probs[idx] / stable_sum(d.probs[idx])
            got = condition(d, sp.event_from_indices(idx))
            assert type(got) is FiniteDistribution
            assert got.probs.tobytes() == want.tobytes()

    def test_zero_probability_event_raises(self):
        sp = OutcomeSpace([0, 1, 2])
        d = make_distribution(sp, [1, 1, 0])
        with pytest.raises(ZeroProbabilityEvent):
            condition(d, sp.event([2]))
        with pytest.raises(ZeroProbabilityEvent):
            condition(make_rational_distribution(sp, [1, 1, 0]), sp.event([2]))

    def test_event_probability_empty_event(self):
        sp = OutcomeSpace([0, 1])
        d = make_distribution(sp, [1, 1])
        assert event_probability(d, Event(sp, [])) == 0.0

    def test_event_probability_of_an_exact_distribution_is_exact(self):
        sp = OutcomeSpace(["a", "b"])
        d = make_rational_distribution(sp, [1, 3])
        assert event_probability(d, sp.event(["a"])) == Fraction(1, 4)
        assert event_probability(d, Event(sp, [])) == 0
        with pytest.raises(SpaceMismatch):
            event_probability(d, OutcomeSpace(["a", "c"]).event(["a"]))


class TestRationalDistribution:
    def test_exact_probabilities(self):
        sp = OutcomeSpace(["r", "y", "b"])
        d = make_rational_distribution(sp, [2, 3, 5])
        assert d.prob(sp.event(["r", "b"])) == Fraction(7, 10)

    def test_exact_conditioning(self):
        sp = OutcomeSpace(["r", "y", "b"])
        d = make_rational_distribution(sp, [2, 3, 5])
        c = condition(d, sp.event(["y", "b"]))
        assert type(c) is RationalDistribution
        assert c.probs == (Fraction(0), Fraction(3, 8), Fraction(5, 8))

    def test_sum_must_be_exactly_one(self):
        sp = OutcomeSpace([0, 1])
        with pytest.raises(ZeroTotal):
            RationalDistribution(sp, [Fraction(1, 2), Fraction(1, 3)])

    def test_to_float_round_trip(self):
        sp = OutcomeSpace([0, 1, 2])
        d = make_rational_distribution(sp, [1, 1, 2])
        f = d.to_float()
        assert f.probs.tolist() == [0.25, 0.25, 0.5]


class TestSimplexSampling:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        rows = sample_l1_uniform_rows(9, 500, rng)
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(rows >= 0.0)

    def test_byte_identical_given_seed(self):
        a = sample_l1_uniform_rows(5, 100, np.random.default_rng(42))
        b = sample_l1_uniform_rows(5, 100, np.random.default_rng(42))
        assert a.tobytes() == b.tobytes()

    def test_spawned_streams_differ(self):
        g1, g2 = np.random.default_rng(0).spawn(2)
        a = sample_l1_uniform_rows(5, 10, g1)
        b = sample_l1_uniform_rows(5, 10, g2)
        assert a.tobytes() != b.tobytes()

    def test_two_outcome_marginal_is_uniform(self):
        # For n=2 the first coordinate is Uniform[0,1]:
        # mean 1/2 and P(x <= 1/3) = 1/3.
        rng = np.random.default_rng(123)
        x = sample_l1_uniform_rows(2, 100_000, rng)[:, 0]
        assert x.mean() == pytest.approx(0.5, abs=0.01)
        assert (x <= 1 / 3).mean() == pytest.approx(1 / 3, abs=0.01)

    def test_three_outcome_marginal_moments(self):
        # For n=3 each coordinate is Beta(1,2): mean 1/3 and
        # P(x < 1/3) = 1 - (2/3)^2 = 5/9.
        rng = np.random.default_rng(321)
        x = sample_l1_uniform_rows(3, 100_000, rng)[:, 0]
        assert x.mean() == pytest.approx(1 / 3, abs=0.01)
        assert (x < 1 / 3).mean() == pytest.approx(5 / 9, abs=0.01)

    def test_single_sample_is_distribution(self):
        sp = OutcomeSpace(list("abc"))
        d = sample_l1_uniform(sp, np.random.default_rng(5))
        assert isinstance(d, FiniteDistribution)
        assert d.space is sp


class TestNumericHelpers:
    def test_stable_sum_is_pairwise_within_its_error_bound(self):
        # One rule at every length: numpy's pairwise sum, bit for bit.  On
        # non-negative terms it lies within (log2 n + 16) roundings of the
        # total from math.fsum: numpy's base case adds 8 interleaved runs of
        # at most 16 terms, and the pairwise tree above it adds log2 depth.
        rng = np.random.default_rng(9)
        for size in (1, 7, 128, 10_000, 10_001, 200_000):
            x = np.exp(rng.normal(scale=10.0, size=size))
            got, exact = stable_sum(x), math.fsum(x.tolist())
            assert got.hex() == float(np.sum(x)).hex()
            assert abs(got - exact) <= (math.log2(size) + 16) * 2.0**-53 * exact

    def test_float_formatting_round_trips(self):
        rng = np.random.default_rng(8)
        values = [0.1, 1 / 3, math.pi, 1e-300, 3.66021568]
        values += list(rng.standard_normal(50))
        for v in values:
            assert float(format_float(v)) == v

    def test_serialization_round_trip(self):
        sp = OutcomeSpace(["x", "y", "z"])
        d = make_distribution(sp, [0.2, 0.3, 0.5])
        d2 = FiniteDistribution.from_dict(d.to_dict())
        assert d2.space == d.space
        assert d2.probs.tolist() == d.probs.tolist()
