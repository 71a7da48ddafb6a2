"""Credal set conditioning, event mapping, and the preservation laws.

The two laws the event map must uphold:

* probabilities survive the relabeling — for any source event f, a
  conditioned member assigns map_event(f) exactly the mass the original
  member assigns f given E;
* pulling a mapped event back returns f & E (the map forgets exactly
  the part outside E, nothing else).
"""

from fractions import Fraction

import numpy as np
import pytest

from credal import (
    AllMembersZero,
    ConfigInvalid,
    CredalSet,
    EventMap,
    LengthMismatch,
    OutcomeSpace,
    ZeroProbabilityEvent,
    condition,
    credal_condition,
    event_probability,
    make_distribution,
    make_rational_distribution,
    probability_range,
    sample_l1_uniform,
    tv_distance,
    urn_credal_set,
)
from credal.sets import MERGE_TOL
from credal.tvuniform import coin_match_family


def grid_coin_match_set(m: int = 101) -> CredalSet:
    fam = coin_match_family()
    ps = np.linspace(0.0, 1.0, m)
    members = [fam.eval(p) for p in ps]
    return CredalSet(members, labels=[float(p) for p in ps])


class TestCredalSet:
    def test_needs_members(self):
        with pytest.raises(LengthMismatch):
            CredalSet([])

    def test_members_share_space(self):
        a = make_distribution(OutcomeSpace([0, 1]), [1, 1])
        b = make_distribution(OutcomeSpace([2, 3]), [1, 1])
        with pytest.raises(Exception):
            CredalSet([a, b])

    @pytest.mark.parametrize("counts", [[1.7, 1], [2.9, 1], [True, 1], ["2", 1], [0, 1], [-1, 1]])
    def test_multiplicities_are_positive_true_integers(self, counts):
        # Before, int() truncated 1.7 to 1 and a zero count raised LengthMismatch.
        space = OutcomeSpace([0, 1])
        members = [make_distribution(space, [1, 1]), make_distribution(space, [1, 3])]
        with pytest.raises(ConfigInvalid):
            CredalSet(members, multiplicities=counts)
        assert CredalSet(members, multiplicities=[np.int64(3), 1]).multiplicities == (3, 1)

    @pytest.mark.parametrize("i", [1.5, True, "1"])
    def test_member_index_is_a_true_integer(self, i):
        # Before, member(1.5) raised a raw TypeError and member(True) was member 1.
        c = grid_coin_match_set(3)
        with pytest.raises(ConfigInvalid, match="member index must be an integer"):
            c.member(i)
        assert c.member(np.int64(1)) is c.members[1]

    def test_probability_range(self):
        c = grid_coin_match_set(11)
        e = c.space.event(["H1H2", "T1H2"])  # coin 2 heads: probability p
        lo, hi = probability_range(c, e)
        assert (lo, hi) == (0.0, 1.0)


class TestEventMap:
    def test_target_space_is_event_outcomes(self):
        sp = OutcomeSpace(list("abcd"))
        emap = EventMap(sp.event(["b", "d"]))
        assert emap.target_space.labels == ("b", "d")

    def test_empty_event_rejected(self):
        sp = OutcomeSpace(list("ab"))
        with pytest.raises(LengthMismatch):
            EventMap(sp.event([]))

    def test_map_and_preimage_round_trip(self):
        sp = OutcomeSpace(list("abcdef"))
        E = sp.event(["a", "c", "e", "f"])
        emap = EventMap(E)
        f = sp.event(["b", "c", "f"])
        g = emap.map_event(f)
        assert g.labels == ("c", "f")
        assert emap.preimage(g) == f & E          # pullback gives f & E
        assert emap.map_event(emap.preimage(g)) == g  # forward is onto

    @pytest.mark.parametrize("exact", [False, True])
    def test_zero_mass_distribution_is_refused_as_condition_refuses_it(self, exact):
        sp = OutcomeSpace(list("abc"))
        make = make_rational_distribution if exact else make_distribution
        with pytest.raises(ZeroProbabilityEvent):
            EventMap(sp.event(["a", "b"])).map_distribution(make(sp, [0, 0, 1]))

    def test_map_is_many_to_one_not_injective(self):
        sp = OutcomeSpace(list("abcd"))
        emap = EventMap(sp.event(["a", "b"]))
        f1 = sp.event(["a", "c"])
        f2 = sp.event(["a", "d"])
        assert f1 != f2
        assert emap.map_event(f1) == emap.map_event(f2)


class TestCredalCondition:
    def test_coin_match_conditioned_on_first_heads(self):
        c = grid_coin_match_set(101)
        H1 = c.space.event(["H1H2", "H1T2"])
        conditioned, emap = credal_condition(c, H1)
        # Every member P_p = (p/2, (1-p)/2, p/2, (1-p)/2) has P(H1) = 1/2,
        # so all 101 survive, collapsing to (p, 1-p) over the H1 outcomes.
        assert emap.target_space.labels == ("H1H2", "H1T2")
        assert len(conditioned) == 101
        ps = np.linspace(0.0, 1.0, 101)
        got = np.array([m.probs[0] for m in conditioned.members])
        np.testing.assert_allclose(np.sort(got), ps, atol=1e-12)
        # The match event {H1H2, T1T2} maps to {H1H2}; its range dilates
        # from [1/2, 1/2] marginally to the full unit interval.
        match = c.space.event(["H1H2", "T1T2"])
        lo, hi = probability_range(conditioned, emap.map_event(match))
        assert (lo, hi) == (0.0, 1.0)

    def test_probability_preservation_random_sets(self):
        rng = np.random.default_rng(17)
        sp = OutcomeSpace(list(range(6)))
        members = [sample_l1_uniform(sp, rng) for _ in range(8)]
        c = CredalSet(members)
        E = sp.event([0, 2, 3, 5])
        conditioned, emap = credal_condition(c, E)
        for before, after in zip(c.members, conditioned.members):
            for _ in range(5):
                f = sp.event(rng.choice(6, size=3, replace=False))
                want = event_probability(condition(before, E), f & E)
                got = after.prob(emap.map_event(f))
                assert abs(got - want) < 1e-12

    def test_zero_mass_members_are_dropped(self):
        sp = OutcomeSpace([0, 1, 2])
        alive = make_distribution(sp, [1, 1, 0])
        dead = make_distribution(sp, [0, 0, 1])
        c = CredalSet([alive, dead], labels=["alive", "dead"])
        conditioned, _ = credal_condition(c, sp.event([0, 1]))
        assert len(conditioned) == 1
        assert conditioned.labels == ("alive",)

    def test_all_members_zero_raises(self):
        sp = OutcomeSpace([0, 1, 2])
        c = CredalSet([make_distribution(sp, [1, 1, 0])])
        with pytest.raises(AllMembersZero):
            credal_condition(c, sp.event([2]))

    def test_collapsing_members_merge_with_multiplicity(self):
        sp = OutcomeSpace([0, 1, 2])
        # Distinct joints, identical conditionals on {0, 1}.
        a = make_distribution(sp, [0.2, 0.2, 0.6])
        b = make_distribution(sp, [0.3, 0.3, 0.4])
        c_ = make_distribution(sp, [0.1, 0.3, 0.6])
        conditioned, _ = credal_condition(CredalSet([a, b, c_]), sp.event([0, 1]))
        assert len(conditioned) == 2
        assert conditioned.multiplicities == (2, 1)
        assert conditioned.total_multiplicity() == 3

    def test_float_merge_is_a_rounding_grid_not_a_tv_threshold(self):
        sp = OutcomeSpace(["a", "b", "c"])
        on_ab = sp.event(["a", "b"])

        def pair(*xs):
            members = [make_distribution(sp, [x, 1.0 - x, 0.0]) for x in xs]
            conditioned, _ = credal_condition(CredalSet(members), on_ab)
            return tv_distance(*members), conditioned

        # 50 times closer than MERGE_TOL in TV, but a rounding boundary lies between.
        tv, split = pair(0.25 + 0.49e-12, 0.25 + 0.51e-12)
        assert tv == pytest.approx(2.0e-14, rel=0.01)
        assert split.multiplicities == (1, 1)
        # 24 times farther apart, but on the same multiples of MERGE_TOL.
        tv, merged = pair(0.25 + 0.01e-12, 0.25 + 0.49e-12)
        assert tv == pytest.approx(4.8e-13, rel=0.01)
        assert merged.multiplicities == (2,)

    def test_rational_members_condition_exactly(self):
        sp = OutcomeSpace(["r", "y", "b"])
        m1 = make_rational_distribution(sp, [1, 2, 3])
        m2 = make_rational_distribution(sp, [2, 4, 6])  # same ratios -> merges
        m3 = make_rational_distribution(sp, [1, 1, 0])
        c = CredalSet([m1, m2, m3])
        conditioned, emap = credal_condition(c, sp.event(["r", "y"]))
        assert len(conditioned) == 2
        assert conditioned.members[0].probs == (Fraction(1, 3), Fraction(2, 3))
        assert conditioned.members[1].probs == (Fraction(1, 2), Fraction(1, 2))
        assert conditioned.multiplicities == (2, 1)


def restrict(d, event) -> list:
    """``d``'s probabilities on the event's outcomes, in source order."""
    return [d.probs[i] for i in event.indices]


class TestOneConditioningRule:
    # credal_condition's members are condition() followed by restriction,
    # bit for bit: there is no second normalization anywhere.
    @pytest.mark.parametrize("seed", range(20))
    def test_float_members_are_restricted_conditionals_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        sp = OutcomeSpace(list(range(n)))
        members = [sample_l1_uniform(sp, rng) for _ in range(50)]
        E = sp.event(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
        conditioned, emap = credal_condition(CredalSet(members), E)
        assert len(conditioned) == len(members)
        want = [np.asarray(restrict(condition(m, E), E)).tobytes() for m in members]
        assert [m.probs.tobytes() for m in conditioned.members] == want
        assert [emap.map_distribution(m).probs.tobytes() for m in members] == want

    def test_exact_members_are_restricted_conditionals(self):
        c = urn_credal_set(ball_total=12)
        E = c.space.event(["red", "blue"])
        conditioned, _ = credal_condition(c, E)
        # Exact conditionals merge when equal, keeping the first one's place.
        want = dict.fromkeys(tuple(restrict(condition(m, E), E))
                             for m in c.members if m.prob(E) > 0)
        assert [m.probs for m in conditioned.members] == list(want)
        assert conditioned.total_multiplicity() == len(c) - 1  # (0, 12, 0) is dropped
