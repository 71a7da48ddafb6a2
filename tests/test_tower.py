"""Tower construction, determinism, chains, and dilation statistics."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import simd
from credal import (
    AllDropped,
    ConfigInvalid,
    CredalSet,
    IndexOutOfRange,
    OutcomeSpace,
    TowerConfig,
    UrnState,
    bernoulli_family,
    binomial_family,
    build_measure,
    build_tower,
    coin_match_family,
    convergence_stats,
    dilation_profile,
    make_distribution,
    urn_credal_set,
)
from credal import tower as tower_module


def _streamed_level(cfg: TowerConfig, order: int, prev: np.ndarray,
                    shape: np.ndarray | None = None) -> np.ndarray:
    """Level ``order`` mixed from ``prev`` as ``tower.STREAMS`` documents it:
    block ``b`` draws one C-order (S x block rows) array from its stream,
    flat weights ``-log(1 - U)`` or ``standard_gamma(shape[:, None])``."""
    gen = np.random.default_rng(cfg.seed).spawn(cfg.max_order)[order - 1]
    rows, block = cfg.order_samples, tower_module.BLOCK_ROWS
    out = []
    for b, g in enumerate(gen.spawn(-(-rows // block))):
        n = min(block, rows - b * block)
        if shape is None:
            x = -np.log(1.0 - g.random((prev.shape[0], n)))
        else:
            x = g.standard_gamma(np.broadcast_to(shape[:, None], (shape.size, n)))
        out.append((x / x.sum(axis=0)).T @ prev)
    return np.vstack(out)


def _distinct_runs(tower: tower_module.Tower) -> tuple[np.ndarray, np.ndarray]:
    """The base's distinct rows, one per run of equal particles, and the
    runs' lengths: what level 2 mixes over a base with repeats."""
    params = tower.base_params
    starts = np.flatnonzero(np.r_[True, params[1:] != params[:-1]])
    return tower.levels[0][starts], np.diff(np.r_[starts, params.size]).astype(np.float64)


@pytest.fixture(scope="module")
def small_tower():
    fam = binomial_family(10)
    cfg = TowerConfig(base=fam, base_samples=400, order_samples=400, max_order=4, seed=5)
    return fam, build_tower(cfg)


class TestConfig:
    def test_validation(self):
        fam = bernoulli_family()
        with pytest.raises(ConfigInvalid):
            TowerConfig(base=fam, base_samples=0)
        with pytest.raises(ConfigInvalid):
            TowerConfig(base=fam, order_samples=0)
        with pytest.raises(ConfigInvalid):
            TowerConfig(base=fam, max_order=0)
        with pytest.raises(ConfigInvalid):
            TowerConfig(base=fam, base_mode="magic")
        with pytest.raises(ConfigInvalid):
            TowerConfig(base=fam, seed=-1)
        with pytest.raises(ConfigInvalid):
            TowerConfig(base="not a family")

    @pytest.mark.parametrize("field", ["base_samples", "order_samples", "max_order", "seed"])
    @pytest.mark.parametrize("value", [1.5, -0.5, 2.0, float("nan"), "3", True, None])
    def test_integer_fields_must_be_integers(self, field, value):
        with pytest.raises(ConfigInvalid, match=f"{field} must be an integer"):
            TowerConfig(base=bernoulli_family(), **{field: value})

    @pytest.mark.parametrize("n_jobs", [1.5, 2.0, "2", True, None])
    def test_n_jobs_must_be_an_integer(self, n_jobs):
        cfg = TowerConfig(base=bernoulli_family(), base_samples=4, order_samples=4, max_order=2)
        with pytest.raises(ConfigInvalid, match="n_jobs must be an integer"):
            build_tower(cfg, n_jobs=n_jobs)

    def test_numpy_integers_are_integers(self):
        cfg = TowerConfig(base=bernoulli_family(), base_samples=np.int64(4),
                          order_samples=np.uint8(4), max_order=np.int32(2), seed=np.uint64(7))
        assert (cfg.base_samples, cfg.order_samples, cfg.max_order, cfg.seed) == (4, 4, 2, 7)
        assert type(cfg.seed) is int
        assert build_tower(cfg, n_jobs=np.int64(2)).meta["level_sizes"] == [4, 4]

    @pytest.mark.parametrize("sizes", [
        # levels held: (100 + 39 * 2**16) particles x 16 outcomes
        dict(base=binomial_family(15), base_samples=100, order_samples=2**16, max_order=40),
        # a level mixed over: (2**24 + 1) base particles x 2 outcomes
        dict(base=bernoulli_family(), base_samples=2**24 + 1, order_samples=1, max_order=2),
        # no stream spawned per order
        dict(base=bernoulli_family(), max_order=2**40),
    ])
    def test_oversized_tower_raises_before_drawing(self, sizes):
        cfg = TowerConfig(base_mode="grid", **sizes)
        with pytest.raises(ConfigInvalid, match="cells"):
            build_tower(cfg)

    def test_long_draw_rows_fit_one_small_workspace(self):
        # Each row draws 2**17 + 1 weights, one block 2**25 + 256 in all, but a
        # thread holds one 128-row chunk of a block's draws at a time, and the
        # levels fit the cap.
        base = 2**17 + 1
        cfg = TowerConfig(base=bernoulli_family(), base_samples=base, order_samples=256,
                          max_order=2, base_mode="grid")
        tower = build_tower(cfg)
        assert tower.meta["level_sizes"] == [base, 256]
        assert tower.meta["workspace_bytes"] == 2**15 * 8


class TestDeterminism:
    def test_same_seed_same_tower(self):
        fam = bernoulli_family()
        cfg = TowerConfig(base=fam, base_samples=64, order_samples=64, max_order=3, seed=9)
        t1, t2 = build_tower(cfg), build_tower(cfg)
        assert len(t1.levels) == 3
        for v1, v2 in zip(t1.levels, t2.levels):
            assert v1.tobytes() == v2.tobytes()

    def test_thread_count_never_changes_values(self):
        # The 128 draws repeat some of the measure's nodes, so level 2 takes
        # Gamma weights over the 110 distinct rows, in 3 blocks.
        fam = binomial_family(6)
        cfg = TowerConfig(base=fam, base_samples=128, order_samples=600, max_order=3, seed=2)
        t1 = build_tower(cfg, n_jobs=1)
        assert t1.meta["mixed_over"] == [110, 600]
        e = fam.space.event([1])
        for n_jobs in (2, 4):
            tn = build_tower(cfg, n_jobs=n_jobs)
            for v1, vn in zip(t1.levels, tn.levels):
                assert v1.tobytes() == vn.tobytes()
            for v1, vn in zip(t1.implied_vectors(e), tn.implied_vectors(e)):
                assert v1.tobytes() == vn.tobytes()

    def test_different_seeds_differ(self):
        fam = bernoulli_family()
        t1 = build_tower(TowerConfig(base=fam, base_samples=32, order_samples=32,
                                     max_order=2, seed=0))
        t2 = build_tower(TowerConfig(base=fam, base_samples=32, order_samples=32,
                                     max_order=2, seed=1))
        assert t1.levels[1].tobytes() != t2.levels[1].tobytes()

    def test_levels_follow_the_block_stream_layout(self):
        # 300 rows per order: one full 256-row block and a partial one.
        fam = binomial_family(3)
        cfg = TowerConfig(base=fam, base_samples=5, order_samples=300, max_order=3,
                          base_mode="grid", seed=4)
        tower = build_tower(cfg)
        for order, (prev, level) in enumerate(zip(tower.levels, tower.levels[1:]), start=2):
            np.testing.assert_allclose(level, _streamed_level(cfg, order, prev),
                                       rtol=0, atol=1e-14)

    def test_openblas_threads_never_change_cli_bytes(self, tmp_path):
        # At 600 particles a BLAS matmul in place of einsum already gives
        # different bytes under 1 and 2 OpenBLAS threads.
        argv = [sys.executable, "-m", "credal.cli", "converge", "--events", "0,1,5",
                "--base-samples", "600", "--order-samples", "600", "--max-order", "3"]
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for blas_threads in ("1", "2"):
            out = tmp_path / blas_threads
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run(argv + ["--out", str(out)], env=env, check=True,
                           capture_output=True, timeout=120)
            outputs.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
        assert len(outputs[0]) == 6
        assert outputs[0] == outputs[1]


class TestDrawWorkspace:
    # SHA-256 of every level, by numpy SIMD dispatch (see ``simd``).
    # "sub-blocked" mixes 3000 base particles into 300 rows per order (a
    # full block and a partial one), and those 300 into the next 300; "one
    # call" mixes 101 grid particles, fewer than one chunk of DRAW_ROWS.
    # Only the sub-blocked base comes from a binomial measure, whose nodes
    # depend on the exp and log kernels; its level-1 digests were recorded
    # when each quadrature box became one GL-8 rule.  The two "finite" cases
    # take their base from the 91 exact members of a 12-ball urn's credal
    # set, drawn or enumerated.  The two drawn bases ("sub-blocked",
    # "finite tvu") repeat rows, so their level 2 mixes the distinct base
    # rows with one Gamma weight each.  Levels 2 and 3 of every case were
    # re-recorded when each block came to draw its weights weight-major, in
    # chunks of DRAW_ROWS rows below, flat ones as log(1 - U): the log
    # kernel and the einsum kernel's FMA make every case but "finite grid"
    # dispatch-dependent there.  Level 1 keeps its digests.
    URN12 = urn_credal_set(UrnState(ball_total=12))
    CASES = {
        "sub-blocked": dict(base=binomial_family(10), base_samples=3000, order_samples=300,
                            max_order=3, seed=3),
        "one call": dict(base=coin_match_family(), base_samples=101, order_samples=300,
                         max_order=3, seed=0, base_mode="grid"),
        "finite tvu": dict(base=URN12, base_samples=500, order_samples=300, max_order=3,
                           seed=5, base_mode="tvu"),
        "finite grid": dict(base=URN12, base_samples=500, order_samples=300, max_order=3,
                            seed=5, base_mode="grid"),
    }
    FINITE_GRID = ["394821109e069faf26bc6e62b1ad5e06f5a970323cbceb1b1509d32c290941ac",
                   "06fbee3d74c3f3007c54ef3aac22ec723ee76c965175e3bd50aac71817e459ff",
                   "7cd298dff7fb5149a8a2a3d738412c0bc8711749f96a8932a21e9504b9e6e9f9"]
    WITHOUT_AVX512 = {
        "sub-blocked": ["8f259a237e2b4c8a0e2652195ea4087e6afd441df6d3e952b23504409c379369",
                        "d07c891556c159e54ba75c382f7a191b0e4681daf3781c55e5d48896b4c87136",
                        "ad77abf4dedcce77f0f31dfb4a84e6b93eef542ed8b3622dee0af1deb7e7776f"],
        "one call": ["3bda025a68340f81fd0d345380670250c62c43362f0b2ed2b0ebae1c67a1836f",
                     "24948a2a3febe5e306c8cb03b657c95a7de6423249c8f8142d34bac76cc51e74",
                     "18daddd6a79eb273dbba097aeb73749af84a14023ac96ff788e76a87b4da5309"],
        "finite tvu": ["8a84d9b04085f2f9e3667879355991c680d01314479a8160eccc60f8f656ca11",
                       "79b90b7fd24c8b5d23b1fe98f85e2c7fb3b6e8e23968c10d0ed3b9ee32e89f09",
                       "bc94f5e91890134aa0b327b376ba7c3e068492256ba88d25784a42fb756baec8"],
        "finite grid": FINITE_GRID,
    }
    GOLDEN = {
        simd.AVX512: {
            "sub-blocked": ["8c1fbee89c571a04c0da536c81d86b1fb2e649ac625e37aa256a2859756ad3cd",
                            "faa97d6b0d060767e73f06a58c52bb1708ce1f5abaca4a9ffd1aabd59c22d2f3",
                            "20df689b7b089116b920d1ed9f540edae2f4303ad2326a7f48e40f06ae5636a5"],
            "one call": ["3bda025a68340f81fd0d345380670250c62c43362f0b2ed2b0ebae1c67a1836f",
                         "5445f3a775b0e1fa7fdaab04b7c33ea50db7949c9b6221acdad0c463ce28898f",
                         "29a41a6aec4902c66d346dae75ffdb6e03b314a267b5d365849aa42fa7bfd1e8"],
            "finite tvu": ["8a84d9b04085f2f9e3667879355991c680d01314479a8160eccc60f8f656ca11",
                           "79b90b7fd24c8b5d23b1fe98f85e2c7fb3b6e8e23968c10d0ed3b9ee32e89f09",
                           "a1abc7cc88e5ddbc4384f6607f6001f7199303049496d8074ad7814e2b610f59"],
            "finite grid": FINITE_GRID,
        },
        simd.AVX2: WITHOUT_AVX512,
        simd.BASELINE: WITHOUT_AVX512,
    }

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_levels_keep_their_bytes(self, case, n_jobs):
        digests = simd.recorded(self.GOLDEN)[case]
        tower = build_tower(TowerConfig(**self.CASES[case]), n_jobs=n_jobs)
        assert [hashlib.sha256(v.tobytes()).hexdigest() for v in tower.levels] == digests

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_build_peak_stays_near_the_levels(self, n_jobs):
        # The benchmark's converge shape.  Drawing each 256-row block as one
        # array peaked at 7.8 MB on one thread and 14.0 MB on two.
        m = build_measure(binomial_family(10))
        # A first build in the process also allocates one-time state (the
        # thread pool's module, numpy's lazy imports); keep it untraced.
        build_tower(TowerConfig(base=m, base_samples=8, order_samples=8, max_order=2), n_jobs=2)
        cfg = TowerConfig(base=m, base_samples=3000, order_samples=3000, max_order=5)
        tracemalloc.start()
        try:
            tower = build_tower(cfg, n_jobs=n_jobs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tower.meta["bytes_held"] == 5 * 3000 * 11 * 8
        assert peak <= tower.meta["bytes_held"] + 2**20


class TestMixingKernel:
    # A level mixes DRAW_ROWS rows of the level below at a time, for every row
    # of a block.  "grid" mixes 1000 = 7 x 128 + 104 rows (a partial last
    # chunk) into 300 (a partial last block); "repeated" is a drawn base, so
    # level 2 mixes its D distinct rows with Gamma weights.  Chunk heights
    # 1, 7, the default and one above every width are patched in.
    CASES = {
        "grid": dict(base=binomial_family(4), base_samples=1000, order_samples=300,
                     max_order=3, base_mode="grid", seed=8),
        "repeated": dict(base=binomial_family(4), base_samples=3000, order_samples=300,
                         max_order=3, seed=8),
    }
    HEIGHTS = [1, 7, 128, 10**9]

    @pytest.mark.parametrize("draw_rows", HEIGHTS)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_thread_counts_never_change_values(self, monkeypatch, case, draw_rows):
        monkeypatch.setattr(tower_module, "DRAW_ROWS", draw_rows)
        cfg = TowerConfig(**self.CASES[case])
        want = build_tower(cfg, n_jobs=1)
        for n_jobs in (2, 3):
            got = build_tower(cfg, n_jobs=n_jobs)
            assert [v.tobytes() for v in got.levels] == [v.tobytes() for v in want.levels]
        for v in want.levels:
            np.testing.assert_allclose(v.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("draw_rows", [1, 7, 10**9])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_chunk_height_only_moves_rounding(self, monkeypatch, case, draw_rows):
        # A value is a sum of fixed chunk partials, so the chunk height sets
        # its rounding, never its draws.
        cfg = TowerConfig(**self.CASES[case])
        want = build_tower(cfg).levels
        monkeypatch.setattr(tower_module, "DRAW_ROWS", draw_rows)
        got = build_tower(cfg, n_jobs=2).levels
        assert got[0].tobytes() == want[0].tobytes()
        for g, w in zip(got[1:], want[1:]):
            np.testing.assert_allclose(g, w, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("draw_rows", [1, 7, 10**9])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_draws_follow_the_stream(self, monkeypatch, case, draw_rows):
        monkeypatch.setattr(tower_module, "DRAW_ROWS", draw_rows)
        cfg = TowerConfig(**self.CASES[case])
        tower = build_tower(cfg, n_jobs=2)
        prev, shape = tower.levels[0], None
        if case == "repeated":
            prev, shape = _distinct_runs(tower)
            assert shape.size == tower.meta["mixed_over"][0] < 3000
        for order, level in enumerate(tower.levels[1:], start=2):
            np.testing.assert_allclose(level, _streamed_level(cfg, order, prev, shape),
                                       rtol=0, atol=1e-14)
            prev, shape = level, None

    @pytest.mark.parametrize("base_mode", ["grid", "tvu"])
    def test_an_outcome_no_base_row_reaches_stays_a_positive_zero(self, base_mode):
        # Flat weights are drawn as log(1 - U) <= 0; a zero mixed with them
        # must not come out as -0.0.  In "tvu" mode level 2 takes Gamma weights.
        space = OutcomeSpace(["a", "b", "never"])
        members = [make_distribution(space, p) for p in ([0.5, 0.5, 0.0], [0.2, 0.8, 0.0])]
        cfg = TowerConfig(base=CredalSet(members), base_samples=10, order_samples=5,
                          max_order=3, base_mode=base_mode)
        for v in build_tower(cfg).levels:
            assert v[:, 2].tobytes() == np.zeros(v.shape[0]).tobytes()


class TestStructure:
    def test_level_rows_are_distributions(self, small_tower):
        _, tower = small_tower
        for v in tower.levels:
            assert np.all(v >= 0.0)
            np.testing.assert_allclose(v.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_meta_records_the_layout(self, small_tower):
        _, tower = small_tower
        assert set(tower.meta) == {"level_sizes", "bytes_held", "block_rows", "mixed_over",
                                   "draw_rows", "workspace_bytes", "streams"}
        assert tower.meta["level_sizes"] == [400, 400, 400, 400]
        assert tower.meta["bytes_held"] == sum(v.nbytes for v in tower.levels)
        assert tower.meta["block_rows"] == 256
        assert tower.meta["draw_rows"] == 128
        # 400 draws repeat 208 distinct nodes.  Every level mixes over more
        # than 128 rows into full 256-row blocks: 128 x 256 draws at a time.
        assert tower.meta["mixed_over"] == [208, 400, 400]
        assert tower.meta["workspace_bytes"] == 128 * 256 * 8
        assert "spawn" in tower.meta["streams"]
        assert "standard_gamma(c_u)" in tower.meta["streams"]

    def test_meta_records_the_widths_mixed_over(self):
        # The benchmark's converge shape: 3000 draws over the n = 10
        # measure repeat 240 distinct nodes, which level 2 mixes; levels 3
        # to 5 mix all 3000 rows below.  Each level draws 128 rows below x
        # 256 block rows at a time; a grid of 101 into 50 rows draws all
        # 101 x 50 at once.
        m = build_measure(binomial_family(10))
        tower = build_tower(TowerConfig(base=m, base_samples=3000, order_samples=3000))
        assert tower.meta["mixed_over"] == [240, 3000, 3000, 3000]
        assert np.unique(tower.base_params).size == 240
        assert tower.meta["workspace_bytes"] == 128 * 256 * 8
        grid = build_tower(TowerConfig(base=m.family, base_samples=101, order_samples=50,
                                       max_order=3, base_mode="grid"))
        assert grid.meta["mixed_over"] == [101, 50]
        assert grid.meta["workspace_bytes"] == 50 * 101 * 8

    def test_full_event_chain_stays_at_one(self, small_tower):
        fam, tower = small_tower
        for v in tower.implied_vectors(fam.space.full_event()):
            assert np.max(np.abs(v - 1.0)) < 1e-9

    def test_implied_values_stay_inside_base_hull(self, small_tower):
        fam, tower = small_tower
        e = fam.space.event([0, 1])
        vecs = tower.implied_vectors(e)
        lo, hi = vecs[0].min(), vecs[0].max()
        for v in vecs[1:]:
            assert v.min() >= lo - 1e-12
            assert v.max() <= hi + 1e-12

    def test_implied_probability_indexing(self, small_tower):
        # Particle j of order i implies implied_vectors(E)[i - 1][j]: its row's column sum.
        fam, tower = small_tower
        e = fam.space.event([1])
        vecs = tower.implied_vectors(e)
        assert vecs[1][7] == tower.levels[1][7, 1]
        assert [v.shape for v in vecs] == [(tower.n_particles(i),) for i in range(1, 5)]

    def test_n_particles(self, small_tower):
        _, tower = small_tower
        assert tower.max_order == 4
        assert tower.n_particles(1) == 400
        assert tower.n_particles(np.int64(4)) == 400
        for order in (0, 5):
            with pytest.raises(IndexOutOfRange):
                tower.n_particles(order)
        for order in (1.5, True, "2"):
            with pytest.raises(ConfigInvalid, match="order must be an integer"):
                tower.n_particles(order)


class TestBaseModes:
    def test_grid_mode_enumerates_family(self):
        fam = bernoulli_family()
        cfg = TowerConfig(base=fam, base_samples=11, max_order=1, base_mode="grid")
        tower = build_tower(cfg)
        np.testing.assert_allclose(tower.base_params, np.linspace(0, 1, 11))
        np.testing.assert_allclose(tower.base_probs[:, 0], np.linspace(0, 1, 11))

    def test_tvu_mode_draws_measure_nodes_by_mass(self):
        fam = binomial_family(10)
        m = build_measure(fam)
        cfg = TowerConfig(base=m, base_samples=1601, max_order=1,
                          base_mode="tvu", seed=3)
        params = build_tower(cfg).base_params
        nodes = m.nodes[:, 0]
        assert np.isin(params, nodes).all()
        counts = (params[:, None] == nodes).sum(axis=0)
        mass = m.weights * m.density
        assert np.all(np.abs(counts - 1601 * mass / mass.sum()) < 2)

    @pytest.mark.parametrize("n", [100, 400])
    @pytest.mark.parametrize("half", [False, True])
    def test_tvu_base_mean_matches_event_prob(self, n, half):
        # The base is drawn from the measure, so its mean implied
        # probability is the measure's, up to the stratification error.
        m = build_measure(binomial_family(n))
        event = m.family.space.event([n // 2 if half else 1])
        cfg = TowerConfig(base=m, base_samples=1601, max_order=1, seed=0)
        base_mean = build_tower(cfg).implied_vectors(event)[0].mean()
        ref = m.event_prob(event)
        assert abs(base_mean - ref) / ref < 5e-3

    def test_credal_set_grid_base_uses_members(self):
        sp = OutcomeSpace(["a", "b"])
        members = [make_distribution(sp, [w, 1 - w]) for w in (0.2, 0.5, 0.9)]
        c = CredalSet(members)
        tower = build_tower(TowerConfig(base=c, max_order=2, base_mode="grid",
                                        order_samples=16))
        np.testing.assert_allclose(tower.base_probs[:, 0], [0.2, 0.5, 0.9])

    def test_credal_set_multiplicity_expansion(self):
        # A grid base enumerates each member once, so a set expanded by
        # its multiplicities repeats each member by its count.
        sp = OutcomeSpace(["a", "b"])
        members = [make_distribution(sp, [w, 1 - w]) for w in (0.2, 0.9)]
        c = CredalSet(members, multiplicities=[3, 1])
        once = build_tower(TowerConfig(base=c, max_order=1, base_mode="grid"))
        np.testing.assert_allclose(once.base_probs[:, 0], [0.2, 0.9])
        repeated = CredalSet([d for d, k in zip(c.members, c.multiplicities) for _ in range(k)])
        tower = build_tower(TowerConfig(base=repeated, max_order=1, base_mode="grid"))
        np.testing.assert_allclose(tower.base_probs[:, 0], [0.2, 0.2, 0.2, 0.9])

    def test_prebuilt_measure_base(self):
        fam = binomial_family(4)
        m = build_measure(fam)
        cfg = TowerConfig(base=m, base_samples=50, max_order=2, order_samples=50, seed=1)
        tower = build_tower(cfg)
        assert tower.base_probs.shape == (50, 5)


def _exponential_level_2(tower: tower_module.Tower) -> np.ndarray:
    """Level 2 drawn unaggregated: each row S standard exponentials over all
    S base rows, in the block stream layout, weight-major: block ``b`` draws
    one (S x block rows) array."""
    cfg, base = tower.config, tower.levels[0]
    gen = np.random.default_rng(cfg.seed).spawn(cfg.max_order)[1]
    rows, block = cfg.order_samples, tower.meta["block_rows"]
    out = []
    for b, g in enumerate(gen.spawn(-(-rows // block))):
        x = g.standard_exponential((base.shape[0], min(block, rows - b * block)))
        out.append((x / x.sum(axis=0)).T @ base)
    return np.vstack(out)


class TestAggregatedLevel2:
    # A flat Dirichlet over S particles, summed over runs of equal ones, is
    # Dirichlet(run lengths) over the distinct ones, so the Gamma-weighted
    # level 2 has the unaggregated level's law.  Per seed, both are drawn
    # over the same base; the order-2 mean and sd of each event's values
    # must agree over the seeds within four standard errors of their
    # paired differences.
    SEEDS = range(8)

    @pytest.mark.parametrize("base, events", [
        (binomial_family(10), [[0], [5]]),
        (TestDrawWorkspace.URN12, [["red"], ["blue"]]),
    ], ids=["binomial 10", "12-ball urn"])
    def test_order_2_matches_the_unaggregated_law(self, base, events):
        diffs = []
        for seed in self.SEEDS:
            tower = build_tower(TowerConfig(base=base, base_samples=3000, order_samples=3000,
                                            max_order=2, seed=seed))
            assert tower.meta["mixed_over"][0] < 3000
            oracle = _exponential_level_2(tower)
            row = []
            for labels in events:
                cols = list(tower.space.event(labels).indices)
                new, old = tower.levels[1][:, cols].sum(1), oracle[:, cols].sum(1)
                row += [new.mean() - old.mean(), new.std() - old.std()]
            diffs.append(row)
        diffs = np.array(diffs)
        se = diffs.std(axis=0, ddof=1) / np.sqrt(len(self.SEEDS))
        assert np.all(np.abs(diffs.mean(axis=0)) <= 4.0 * se), (diffs.mean(axis=0), se)


class TestConvergence:
    def test_sd_contracts_and_mean_tracks_reference(self):
        fam = binomial_family(10)
        m = build_measure(fam)
        e = fam.space.event([1])
        ref = m.event_prob(e)
        cfg = TowerConfig(base=m, base_samples=800, order_samples=800,
                          max_order=4, seed=0)
        stats = convergence_stats(build_tower(cfg), e, reference=ref)
        sds = [s.sd for s in stats]
        assert sds[1] > sds[2] > sds[3]
        assert stats[-1].sd / stats[-1].mean < 1e-3
        assert abs(stats[-1].mean - ref) / ref < 0.05
        assert stats[0].max_dev_from_reference > stats[-1].max_dev_from_reference

    def test_order_sd_ratio_follows_the_mixing_law(self):
        # Given level i - 1 (S values, population variance s^2), an order-i
        # value is a flat-Dirichlet mixture of them: variance s^2 / (S + 1),
        # and excess kurtosis 6 b / S for a level below of kurtosis b (the
        # cumulants of a sum of exponential-weighted terms).  The population
        # variance of the S order-i values then has mean (S - 1) / S times
        # that and relative sd sqrt((2 + 6 b / S) / S) to first order, half
        # of which carries over to the sd.  Each ratio must lie within four
        # of those sds.
        S = 1601
        fam = binomial_family(10)
        cfg = TowerConfig(base=fam, base_samples=S, order_samples=S, max_order=5, seed=0)
        stats = convergence_stats(build_tower(cfg), fam.space.event([1]))
        law = np.sqrt((S + 1) * S / (S - 1))
        for below, above in zip(stats, stats[1:]):
            c = below.values - below.values.mean()
            b = np.mean(c**4) / np.mean(c**2) ** 2
            rel_sd = 0.5 * np.sqrt((2.0 + 6.0 * b / S) / S)
            ratio = below.sd / above.sd
            assert abs(ratio / law - 1.0) < 4.0 * rel_sd, (below.order, ratio, law)

    def test_stats_without_reference(self, small_tower):
        fam, tower = small_tower
        stats = convergence_stats(tower, fam.space.event([2]))
        assert all(s.max_dev_from_reference is None for s in stats)
        assert [s.order for s in stats] == [1, 2, 3, 4]


@pytest.fixture(scope="module")
def profile():
    fam = coin_match_family()
    pre = fam.space.event(["H1H2", "H1T2"])
    match = fam.space.event(["H1H2", "T1T2"])
    cfg = TowerConfig(base=fam, base_samples=11, order_samples=500,
                      max_order=4, seed=6, base_mode="grid")
    return dilation_profile(build_tower(cfg), pre, match)


class TestDilation:
    def test_order1_values_equal_grid_biases(self, profile):
        # P_p(match | coin1 heads) = (p/2) / (1/2) = p exactly.
        np.testing.assert_array_equal(
            np.sort(profile.order(1).values), np.linspace(0.0, 1.0, 11)
        )
        assert profile.n_dropped == 0

    def test_higher_orders_concentrate(self, profile):
        b1 = profile.order(1).band_fraction(0.25, 0.75)
        b2 = profile.order(2).band_fraction(0.25, 0.75)
        assert b2 > b1
        assert profile.order(2).sd < profile.order(1).sd

    def test_weighted_mean_is_chain_ratio(self, profile):
        # Coin 1 is fair, so the conditioning chain is exactly 1/2
        # everywhere and the weighted mean equals the mean of values.
        o2 = profile.order(2)
        assert o2.weighted_mean == pytest.approx(np.mean(o2.values), rel=1e-12)
        assert 0.4 < profile.order(4).weighted_mean < 0.6

    def test_all_dropped_raises(self):
        fam = coin_match_family()
        cfg = TowerConfig(base=fam, base_samples=5, order_samples=5,
                          max_order=2, base_mode="grid")
        tower = build_tower(cfg)
        empty = fam.space.event([])
        with pytest.raises(AllDropped):
            dilation_profile(tower, empty, fam.space.event(["H1H2"]))

    def test_zero_mass_base_particles_dropped(self):
        # Grid includes p = 0 and p = 1; conditioning on "coin 2 heads"
        # kills the p = 0 member only.
        fam = coin_match_family()
        pre = fam.space.event(["H1H2", "T1H2"])  # coin 2 heads, prob p
        cfg = TowerConfig(base=fam, base_samples=11, order_samples=50,
                          max_order=2, base_mode="grid", seed=8)
        profile = dilation_profile(build_tower(cfg), pre, fam.space.event(["H1H2"]))
        assert profile.n_dropped == 1
        assert profile.order(1).n == 10
