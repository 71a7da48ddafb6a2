"""Acceptance suite: the deliverable-level checks, one per criterion.

Each test prints a single ``ACCEPTANCE <n> <name>: PASS|FAIL`` line
(run with ``pytest -s`` to see them live).  Tolerances are stated
inline next to every comparison; golden values are frozen reference
numbers the implementation must reproduce independently.
"""

import functools
import json
import time
from fractions import Fraction

import numpy as np

from credal import (
    TowerConfig,
    UrnState,
    binomial_family,
    build_measure,
    build_tower,
    coin_match_family,
    convergence_stats,
    dilation_profile,
    hocs_ratio,
    sample_l1_uniform,
    thickness,
    tv_distance,
    urn_update,
)
from credal.cli import main as cli_main
from credal.core import OutcomeSpace, sample_l1_uniform_rows


def criterion(num: int, name: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num} {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {num} {name}: PASS")

        return wrapper

    return deco


# ---------------------------------------------------------------------------
# 1. Exact urn posteriors
# ---------------------------------------------------------------------------


@criterion(1, "urn posteriors exact (Fraction equality, < 1 s)")
def test_criterion_1_urn_exact():
    t0 = time.perf_counter()
    flat = urn_update(UrnState())
    one_red = urn_update(UrnState(history=("red",)))
    two_red = urn_update(UrnState(history=("red", "red")))
    red_yellow = urn_update(UrnState(history=("red", "yellow")))
    elapsed = time.perf_counter() - t0

    assert flat["red"] == Fraction(1, 3)
    assert one_red["red"] == Fraction(91, 180)
    assert two_red["red"] == Fraction(24841, 40950)
    assert red_yellow["red"] == Fraction(181, 450)
    assert elapsed < 1.0, f"took {elapsed:.3f} s"


# ---------------------------------------------------------------------------
# 2. Uniform-measure head-count table
# ---------------------------------------------------------------------------

# Golden reference table for the 10-toss family (head count -> uniform
# probability); agreement required within 5e-3 relative.
GOLDEN_TABLE = [
    0.147688334187352,
    0.100306540575736,
    0.0803729874336117,
    0.0713748966559957,
    0.0672460670033027,
    0.0660223482880037,
]


@criterion(2, "head-count table within 5e-3 relative (< 5 s)")
def test_criterion_2_head_count_table():
    t0 = time.perf_counter()
    family = binomial_family(10)
    measure = build_measure(family, resolution=24)
    got = [measure.event_prob(family.space.event([k])) for k in range(11)]
    elapsed = time.perf_counter() - t0

    golden = GOLDEN_TABLE + GOLDEN_TABLE[-2::-1]  # symmetric in k <-> 10 - k
    for k, (g, want) in enumerate(zip(got, golden)):
        rel = abs(g - want) / want
        assert rel < 5e-3, f"k={k}: {g} vs {want} (rel {rel:.2e})"
    assert elapsed < 5.0, f"took {elapsed:.3f} s"


# ---------------------------------------------------------------------------
# 3. Evidence-ratio golden rows
# ---------------------------------------------------------------------------


@criterion(3, "evidence ratios (0.3%/0.5%/0.3%, endpoints exactly 0)")
def test_criterion_3_hocs_rows():
    family = binomial_family(10)
    measure = build_measure(family, resolution=24)
    one_head = family.space.event([1])
    four_heads = family.space.event([4])

    rows = [
        (hocs_ratio(measure, 0.1, one_head).ratio, 3.866381637, 3e-3),
        (hocs_ratio(measure, 0.5, one_head).ratio, 0.097459051, 5e-3),
        (hocs_ratio(measure, 0.4, four_heads).ratio, 3.733746474, 3e-3),
    ]
    for got, want, tol in rows:
        rel = abs(got - want) / want
        assert rel < tol, f"{got} vs {want} (rel {rel:.2e}, tol {tol})"
    assert hocs_ratio(measure, 0.0, one_head).ratio == 0.0
    assert hocs_ratio(measure, 1.0, one_head).ratio == 0.0


# ---------------------------------------------------------------------------
# 4. Higher-order convergence at full scale
# ---------------------------------------------------------------------------

# Defaults 1601 base / 1601 per order / 5 orders; the seed is pinned
# here so the Monte-Carlo outcome is reproducible.
CONVERGENCE_SEED = 0


@criterion(4, "tower convergence, defaults with pinned seed (< 2 min)")
def test_criterion_4_convergence_replication():
    t0 = time.perf_counter()
    family = binomial_family(10)
    measure = build_measure(family, resolution=24)
    event = family.space.event([1])
    reference = measure.event_prob(event)
    cfg = TowerConfig(
        base=measure,
        base_samples=1601,
        order_samples=1601,
        max_order=5,
        seed=CONVERGENCE_SEED,
        base_mode="tvu",
    )
    stats = convergence_stats(build_tower(cfg), event, reference=reference)
    elapsed = time.perf_counter() - t0

    sds = {s.order: s.sd for s in stats}
    for o in (2, 3, 4):
        assert sds[o] > sds[o + 1], f"sd not decreasing at order {o}: {sds}"
    top = stats[-1]
    assert top.sd / top.mean < 1e-4, f"order-5 sd/mean {top.sd / top.mean:.2e}"
    rel = abs(top.mean - reference) / reference
    assert rel < 0.02, f"order-5 mean {top.mean} vs reference {reference} (rel {rel:.2%})"
    assert elapsed < 120.0, f"took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 5. Dilation and concentration
# ---------------------------------------------------------------------------


@criterion(5, "dilation: order-1 spans [0,1], higher orders concentrate")
def test_criterion_5_dilation():
    family = coin_match_family()
    pre = family.space.event(["H1H2", "H1T2"])
    match = family.space.event(["H1H2", "T1T2"])
    cfg = TowerConfig(
        base=family,
        base_samples=101,
        order_samples=1000,
        max_order=5,
        seed=0,
        base_mode="grid",
    )
    profile = dilation_profile(build_tower(cfg), pre, match)

    o1 = profile.order(1)
    assert o1.vmin == 0.0 and o1.vmax == 1.0  # exact at the grid endpoints
    assert profile.order(2).band_fraction(0.25, 0.75) > o1.band_fraction(0.25, 0.75)
    wm5 = profile.order(5).weighted_mean
    assert 0.48 <= wm5 <= 0.52, f"order-5 weighted mean {wm5}"


# ---------------------------------------------------------------------------
# 6. Metric and measure property batteries
# ---------------------------------------------------------------------------


@criterion(6, "property batteries: TV oracle, metric axioms, invariance")
def test_criterion_6_property_batteries():
    # (a) TV equals the supremum over all 2^12 events.
    rng = np.random.default_rng(123)
    sp = OutcomeSpace(list(range(12)))
    p = sample_l1_uniform(sp, rng)
    q = sample_l1_uniform(sp, rng)
    masks = np.arange(1 << 12)[:, None] >> np.arange(12) & 1
    sup = np.abs(masks @ (p.probs - q.probs)).max()
    assert abs(tv_distance(p, q) - sup) < 1e-12

    # (b) Metric axioms on 10^4 random triples.
    a = sample_l1_uniform_rows(6, 10_000, rng)
    b = sample_l1_uniform_rows(6, 10_000, rng)
    c = sample_l1_uniform_rows(6, 10_000, rng)
    d = lambda x, y: 0.5 * np.abs(x - y).sum(axis=1)  # noqa: E731
    assert np.all(d(a, b) <= d(a, c) + d(c, b) + 1e-12)
    assert np.array_equal(d(a, b), d(b, a))
    assert np.all((d(a, b) >= 0) & (d(a, b) <= 1))

    # (c) Reparametrization invariance within 5e-4: p vs s = p^3.
    family = binomial_family(10)
    measure = build_measure(family)
    from credal import ParamBox, ParamFamily

    def thick_batch(xs):
        s = np.maximum(xs[:, 0], 1e-300)
        pcol = s ** (1 / 3)
        base = family.thickness_batch_fns[0](pcol[:, None])
        return base * pcol / (3.0 * s)

    fam_s = ParamFamily(
        ParamBox([(0.0, 1.0)]),
        family.space,
        lambda xs, out: family.probs_batch_fn(xs ** (1 / 3), out),
        kinks=[tuple((k / 10) ** 3 for k in range(1, 10))],
        thickness_batch=[thick_batch],
    )
    m_s = build_measure(fam_s)
    for k in range(11):
        a_ = measure.event_prob(family.space.event([k]))
        b_ = m_s.event_prob(family.space.event([k]))
        assert abs(a_ - b_) / a_ < 5e-4, f"k={k}: {a_} vs {b_}"

    # (d) Finite-difference thickness within 1e-6 of the closed form
    # away from kinks.
    for p0 in (0.05, 0.26, 0.49, 0.83):
        fd = thickness(family, p0, 0)
        closed = float(family.thickness_batch_fns[0](np.array([[p0]]))[0])
        assert abs(fd - closed) < 1e-6, f"p={p0}: {fd} vs {closed}"


# ---------------------------------------------------------------------------
# 7. Command-line determinism
# ---------------------------------------------------------------------------


@criterion(7, "CLI byte-determinism across runs and thread counts")
def test_criterion_7_cli_determinism(tmp_path):
    args = [
        "converge", "--base-samples", "300", "--order-samples", "300",
        "--max-order", "3", "--seed", "42",
    ]
    runs = {}
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / tag
        assert cli_main(args + ["--threads", threads, "--out", str(out)]) == 0
        runs[tag] = out
    for name in ("table.csv", "stats.csv"):
        baseline = (runs["a"] / name).read_bytes()
        assert (runs["b"] / name).read_bytes() == baseline
        assert (runs["c"] / name).read_bytes() == baseline
    digests = [
        json.loads((runs[t] / "manifest.json").read_text())["outputs"]
        for t in ("a", "b", "c")
    ]
    assert digests[0] == digests[1] == digests[2]

    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    for out in (out1, out2):
        assert cli_main(["binomial-test", "--out", str(out)]) == 0
    for name in ("reference.csv", "hocs.csv", "density.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
