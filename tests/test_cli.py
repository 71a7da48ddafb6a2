"""Command line behavior: files, formats, determinism, exit codes."""

import csv
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import simd
from credal import TowerConfig, build_tower, cli, coin_match_family, dilation_profile
from credal.cli import main


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestUrnCommand:
    def test_prints_exact_fractions(self, tmp_path, capsys):
        code = main(["urn", "--history", "red", "--out", str(tmp_path)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["red"] == "91/180"
        rows = read_csv(tmp_path / "urn.csv")
        assert rows[0] == {"color": "red", "prob": "91/180"}

    def test_unknown_color_exits_2(self, tmp_path, capsys):
        code = main(["urn", "--history", "green", "--out", str(tmp_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_flag_exits_2(self, capsys):
        assert main(["urn", "--mode", "telepathy"]) == 2

    def test_json_format(self, tmp_path, capsys):
        code = main(["urn", "--history", "red,yellow", "--format", "json",
                     "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "urn.json").read_text())
        assert payload["predictive"]["red"] == "181/450"

    def test_ball_override(self, tmp_path, capsys):
        code = main(["urn", "--history", "red", "--balls", "100",
                     "--out", str(tmp_path)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["red"] == "101/200"

    def test_urn_is_refused_by_its_work_not_its_ball_count(self, tmp_path, capsys):
        code = main(["urn", "--colors", "a,b", "--balls", "3343", "--history", "a,b,a",
                     "--out", str(tmp_path)])
        assert code == 0
        probs = json.loads(capsys.readouterr().out)
        assert sum(Fraction(v) for v in probs.values()) == 1

    def test_urn_with_wide_powers_is_refused(self, tmp_path, capsys):
        # 300,000 balls are few powers, but after 200 draws each spans 60 words.
        code = main(["urn", "--colors", "a,b", "--balls", "300000", "--history",
                     ",".join(["a"] * 200), "--out", str(tmp_path)])
        assert code == 2
        assert "300000 balls" in capsys.readouterr().err


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bt")
    code = main(["binomial-test", "--n", "10", "--k", "1",
                 "--out", str(out), "--svg"])
    assert code == 0
    return out


class TestBinomialTestCommand:
    def test_writes_all_files_and_manifest(self, outdir):
        names = {p.name for p in outdir.iterdir()}
        assert {"reference.csv", "hocs.csv", "density.csv",
                "manifest.json", "hocs.svg", "density.svg"} <= names

    def test_reference_row_round_trips(self, outdir):
        rows = read_csv(outdir / "reference.csv")
        assert float(rows[1]["prob"]) == pytest.approx(
            0.10047892013917162, rel=1e-12
        )
        assert len(rows) == 11

    def test_hocs_endpoints_zero(self, outdir):
        rows = read_csv(outdir / "hocs.csv")
        assert float(rows[0]["ratio"]) == 0.0
        assert float(rows[-1]["ratio"]) == 0.0
        assert len(rows) == 1001

    def test_csv_uses_lf_line_endings(self, outdir):
        raw = (outdir / "reference.csv").read_bytes()
        assert b"\r" not in raw

    def test_manifest_digests_every_output(self, outdir):
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["command"] == "binomial-test"
        assert set(manifest["outputs"]) == {
            "reference.csv", "hocs.csv", "density.csv", "hocs.svg", "density.svg"
        }
        assert all(len(d) == 64 for d in manifest["outputs"].values())

    def test_svg_is_wellformed_enough(self, outdir):
        text = (outdir / "hocs.svg").read_text()
        assert text.startswith("<svg xmlns=")
        assert text.rstrip().endswith("</svg>")

    def test_json_format_writes_single_report(self, tmp_path):
        code = main(["binomial-test", "--n", "4", "--k", "2",
                     "--grid-step", "0.1", "--format", "json",
                     "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["n"] == 4
        assert not (tmp_path / "reference.csv").exists()

    @pytest.mark.parametrize("step", ["0", "-0.1", "1.5", "nan", "inf", "1e-300", "1e-9", "5e-324"])
    def test_bad_grid_step_exits_2(self, tmp_path, capsys, step):
        assert main(["binomial-test", "--n", "4", "--k", "2", "--grid-step", step,
                     "--out", str(tmp_path)]) == 2
        assert "grid step" in capsys.readouterr().err

    def test_fine_grid_step_runs(self, tmp_path):
        assert main(["binomial-test", "--n", "10", "--grid-step", "1e-5",
                     "--out", str(tmp_path)]) == 0
        assert len(read_csv(tmp_path / "hocs.csv")) == 100_001

    def test_fine_grid_step_runs_at_large_n(self, tmp_path):
        # The likelihood reads one head count, so the grid is priced by its rows.
        assert main(["binomial-test", "--n", "1000", "--k", "3", "--grid-step", "1e-5",
                     "--out", str(tmp_path)]) == 0
        assert len(read_csv(tmp_path / "hocs.csv")) == 100_001


@pytest.mark.parametrize("command", ["binomial-test", "converge"])
@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_an_out_that_cannot_be_a_directory_exits_2_before_computing(
        tmp_path, capsys, monkeypatch, command, out):
    # An existing file ended in FileExistsError, and a directory under a
    # file in NotADirectoryError after the whole tower was built: exit 3.
    (tmp_path / "file").write_text("kept")
    built = []
    for name in ("build_measure", "build_tower"):
        monkeypatch.setattr(cli, name, lambda *a, **k: built.append(a))
    assert main([command, "--out", str(tmp_path / out)]) == 2
    assert "--out" in capsys.readouterr().err
    assert built == [] and (tmp_path / "file").read_text() == "kept"


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs a /proc file system")
def test_an_out_directory_that_takes_no_file_exits_2_before_computing(capsys, monkeypatch):
    # /proc exists and takes no new file, even for root; the run used to
    # compute everything and then end in FileNotFoundError, exit 3.
    def refuse(*args, **kwargs):
        raise AssertionError("computed before checking --out")

    for name in ("build_measure", "build_tower"):
        monkeypatch.setattr(cli, name, refuse)
    assert main(["converge", "--out", "/proc"]) == 2
    assert "--out /proc" in capsys.readouterr().err


def test_the_probe_leaves_no_file_behind(tmp_path, capsys):
    assert main(["urn", "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "urn.csv"]


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    builds, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    try:
        argv = ["converge", "--base-samples", "40", "--order-samples", "40", "--max-order", "2"]
        assert main([*argv, "--out", str(tmp_path / "a")]) == 0
        assert main([*argv, "--out", str(tmp_path / "b")]) == 0
    finally:
        cli._parser.cache_clear()
    assert builds == [1]
    for name in ("table.csv", "stats.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert cli.build_parser() is not cli.build_parser()


class TestConvergeCommand:
    def test_deterministic_across_runs_and_threads(self, tmp_path):
        args = ["converge", "--base-samples", "200", "--order-samples", "200",
                "--max-order", "3", "--seed", "11"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--threads", "1", "--out", str(d1)]) == 0
        assert main(args + ["--threads", "4", "--out", str(d2)]) == 0
        for name in ("table.csv", "stats.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        m1 = json.loads((d1 / "manifest.json").read_text())
        m2 = json.loads((d2 / "manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"]

    def test_stats_columns_and_table_shape(self, tmp_path):
        assert main(["converge", "--base-samples", "150", "--order-samples",
                     "100", "--max-order", "3", "--out", str(tmp_path)]) == 0
        stats = read_csv(tmp_path / "stats.csv")
        assert list(stats[0]) == ["order", "mean", "sd", "max_dev_from_reference"]
        assert [r["order"] for r in stats] == ["1", "2", "3"]
        table = read_csv(tmp_path / "table.csv")
        assert list(table[0]) == ["functionidx", "firstorder", "secondorder",
                                  "thirdorder"]
        assert len(table) == 150  # deepest order column
        assert table[149]["secondorder"] == ""  # shorter columns padded
        col = [float(r["firstorder"]) for r in table]
        assert col == sorted(col)

    def test_multiple_events_get_suffixed_files(self, tmp_path):
        assert main(["converge", "--events", "0,5", "--base-samples", "60",
                     "--order-samples", "40", "--max-order", "2",
                     "--out", str(tmp_path)]) == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert {"table_heads0.csv", "stats_heads0.csv",
                "table_heads5.csv", "stats_heads5.csv"} <= names

    def test_bad_events_exit_2(self, tmp_path, capsys):
        assert main(["converge", "--events", "0,99",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_bad_n_is_reported_as_such(self, tmp_path, capsys, n):
        # converge names the bad --n as binomial-test and tvu-density do,
        # not as an --events range of 0..n.
        errors = []
        for command in ("converge", "binomial-test", "tvu-density"):
            assert main([command, "--n", n, "--out", str(tmp_path)]) == 2
            errors.append(capsys.readouterr().err)
        assert f"got n={n}" in errors[0]
        assert errors[0] == errors[1] == errors[2]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("events", ["", ","])
    def test_empty_events_are_reported_as_such(self, tmp_path, capsys, events):
        assert main(["converge", "--events", events, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "--events needs at least one head count" in err
        assert "must lie in" not in err
        assert not list(tmp_path.iterdir())

    def test_repeated_events_exit_2(self, tmp_path, capsys):
        assert main(["converge", "--events", "1,1", "--out", str(tmp_path)]) == 2
        assert "repeat" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command", ["converge", "dilation", "binomial-test", "urn", "tvu-density"])
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_bad_threads_exit_2(self, tmp_path, capsys, command, threads):
        assert main([command, "--threads", threads, "--out", str(tmp_path)]) == 2
        assert "n_jobs" in capsys.readouterr().err

    def test_large_n_runs(self, tmp_path, capsys):
        # n >= 1030 overflowed float binomial coefficients.
        assert main(["converge", "--n", "1100", "--events", "0,550",
                     "--base-samples", "40", "--order-samples", "40",
                     "--max-order", "2", "--out", str(tmp_path)]) == 0
        stats = read_csv(tmp_path / "stats_heads550.csv")
        assert [r["order"] for r in stats] == ["1", "2"]


class TestDilationCommand:
    def test_summary_and_profile(self, tmp_path, capsys):
        assert main(["dilation", "--samples", "150", "--orders", "3",
                     "--seed", "4", "--out", str(tmp_path)]) == 0
        summary = read_csv(tmp_path / "summary.csv")
        assert [r["order"] for r in summary] == ["1", "2", "3"]
        assert float(summary[0]["vmin"]) == 0.0
        assert float(summary[0]["vmax"]) == 1.0
        assert float(summary[1]["band_fraction"]) > float(
            summary[0]["band_fraction"]
        )
        profile = read_csv(tmp_path / "profile.csv")
        assert len(profile) == 101 + 150 + 150

    def test_json_format_carries_the_csv_values(self, tmp_path, capsys):
        argv = ["dilation", "--grid", "21", "--samples", "40", "--orders", "3", "--seed", "9"]
        assert main([*argv, "--out", str(tmp_path / "csv")]) == 0
        assert main([*argv, "--format", "json", "--out", str(tmp_path / "json")]) == 0
        payload = json.loads((tmp_path / "json" / "dilation.json").read_text())
        summary = read_csv(tmp_path / "csv" / "summary.csv")
        assert [{h: float(o[h]) for h in summary[0]} for o in payload["orders"]] == [
            {h: float(v) for h, v in row.items()} for row in summary]
        profile = read_csv(tmp_path / "csv" / "profile.csv")
        for o in payload["orders"]:
            rows = [r for r in profile if int(r["order"]) == o["order"]]
            assert [int(r["particle"]) for r in rows] == list(range(len(o["values"])))
            assert [float(r["value"]) for r in rows] == o["values"]
        assert len(profile) == sum(len(o["values"]) for o in payload["orders"]) == 21 + 40 + 40

    def test_tvu_base_records_its_measure(self, tmp_path, capsys):
        # The CLI builds the measure in its own stage, with the call the tower
        # would make, so the data equal a library tower over the family.
        assert main(["dilation", "--base-mode", "tvu", "--grid", "31", "--samples", "40",
                     "--orders", "3", "--seed", "7", "--out", str(tmp_path)]) == 0
        family = coin_match_family()
        tower = build_tower(TowerConfig(family, base_samples=31, order_samples=40, max_order=3,
                                        seed=7, base_mode="tvu"))
        space = family.space
        profile = dilation_profile(tower, space.event(["H1H2", "H1T2"]),
                                   space.event(["H1H2", "T1T2"]))
        rows = read_csv(tmp_path / "profile.csv")
        assert [float(r["value"]) for r in rows] == [
            float(v) for o in profile.orders for v in o.values]
        summary = read_csv(tmp_path / "summary.csv")
        assert [float(r["weighted_mean"]) for r in summary] == [
            o.weighted_mean for o in profile.orders]
        diagnostics = json.loads((tmp_path / "manifest.json").read_text())["diagnostics"]
        assert diagnostics["measure"]["converged"] is True
        assert {"measure", "tower", "stats"} <= set(diagnostics["stages"])

    def test_stdout_mentions_range(self, tmp_path, capsys):
        main(["dilation", "--samples", "60", "--orders", "2",
              "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert "order 1 range" in out


class TestTvuDensityCommand:
    def test_density_table_and_z(self, tmp_path, capsys):
        assert main(["tvu-density", "--points", "101",
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "density.csv")
        assert len(rows) == 101
        assert float(rows[0]["density"]) == 10.0   # endpoint thickness = n
        assert float(rows[-1]["density"]) == 10.0
        z_line = capsys.readouterr().out.strip()
        z = float(z_line.split("Z=")[1])
        assert z == pytest.approx(3.66021568, rel=1e-9)

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_bad_points_exit_2(self, tmp_path, capsys, points):
        code = main(["tvu-density", "--points", points, "--svg", "--out", str(tmp_path)])
        assert code == 2
        assert "--points" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["binomial-test", "--n"],
    ["converge", "--n"],
    ["tvu-density", "--n"],
    ["urn", "--balls"],
    ["tvu-density", "--points"],
    ["converge", "--base-samples"],
    ["converge", "--order-samples"],
    ["converge", "--max-order"],
    ["dilation", "--grid"],
    ["dilation", "--samples"],
    ["dilation", "--orders"],
])
def test_oversized_requests_exit_2_before_allocating(tmp_path, capsys, argv):
    tracemalloc.start()
    try:
        code = main([*argv, str(2**40), "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "33554432" in capsys.readouterr().err
    assert peak < 10e6


@pytest.mark.parametrize("command", ["binomial-test", "converge", "tvu-density"])
def test_n_past_the_measure_cap_exits_2(tmp_path, capsys, command):
    # 8192 starting panels of 8 nodes by 8193 outcomes pass 2**25 cells, and
    # the 8191 kinks force them at every resolution.
    assert main([command, "--n", "8192", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "33554432" in err and "the kinks alone force 8192 starting boxes" in err
    assert "lower the resolution" not in err


@pytest.mark.parametrize("argv, name, sizes", [
    (["converge", "--base-samples", "50", "--order-samples", "30", "--max-order", "3"],
     "table.svg", [50, 30, 30]),
    (["dilation", "--grid", "20", "--samples", "10", "--orders", "3"],
     "dilation.svg", [20, 10, 10]),
])
def test_charts_of_unequal_orders_hold_no_nan(tmp_path, argv, name, sizes):
    # Each order is one polyline with one point per particle of that order.
    assert main([*argv, "--svg", "--out", str(tmp_path)]) == 0
    svg = (tmp_path / name).read_text()
    assert "nan" not in svg
    lines = re.findall(r'<polyline points="([^"]*)"', svg)
    assert [len(points.split()) for points in lines] == sizes


# Small flags for each subcommand, the meta objects its manifest must carry
# and the stages it times.
DIAGNOSTICS = {
    "binomial-test": (["--n", "6", "--grid-step", "0.1"], {"measure"}, {"measure", "test"}),
    "converge": (["--n", "4", "--base-samples", "30", "--order-samples", "30",
                  "--max-order", "2"], {"measure", "tower"}, {"measure", "tower", "stats"}),
    "dilation": (["--grid", "11", "--samples", "30", "--orders", "2"], {"tower"},
                 {"tower", "stats"}),
    "tvu-density": (["--n", "4", "--points", "11"], {"measure"}, {"measure", "density"}),
    "urn": (["--balls", "6", "--history", "red"], {"urn"}, {"update"}),
}


@pytest.mark.parametrize("command", sorted(DIAGNOSTICS))
def test_manifest_records_diagnostics(tmp_path, capsys, command):
    flags, keys, stages = DIAGNOSTICS[command]
    assert main([command, *flags, "--out", str(tmp_path)]) == 0
    diagnostics = json.loads((tmp_path / "manifest.json").read_text())["diagnostics"]
    assert set(diagnostics) == keys | {"stages"}
    assert set(diagnostics["stages"]) == stages | {"write", "hash"}
    assert all(seconds >= 0.0 for seconds in diagnostics["stages"].values())
    if "measure" in diagnostics:
        measure = diagnostics["measure"]
        assert measure["converged"] is True
        assert measure["block_rows"] > 0 and measure["bytes_held"] > 0
        assert {"err_estimate", "panels", "evaluations", "resolution", "tol"} <= set(measure)
    if "tower" in diagnostics:
        assert diagnostics["tower"]["bytes_held"] > 0
        assert diagnostics["tower"]["workspace_bytes"] > 0
        assert len(diagnostics["tower"]["level_sizes"]) == 2
    if "urn" in diagnostics:
        # three colours, 6 balls: 4 weights of one truncated product
        # (28 multiply-adds) and one last coefficient (7), each weight
        # listing 3 colours' 7 powers
        assert diagnostics["urn"] == {"degree": 6, "colors": 3, "multiply_adds": 4 * (28 + 7),
                                      "powers": 4 * 3 * 7}


@pytest.mark.parametrize("argv, cells", [
    (["binomial-test", "--n", "400", "--k", "123"], 797_184),
    (["tvu-density", "--n", "4", "--points", "11"], None),
], ids=["banded", "every-outcome"])
def test_manifest_records_the_cells_of_the_mass_pass(tmp_path, capsys, argv, cells):
    # binomial(4) keeps every head count at every node: 8 nodes per panel.
    assert main([*argv, "--out", str(tmp_path)]) == 0
    measure = json.loads((tmp_path / "manifest.json").read_text())["diagnostics"]["measure"]
    assert measure["outcome_cells"] == (cells or measure["panels"] * 8 * 5)


def test_repeated_op_reuses_freed_memory(tmp_path, capsys):
    # The measure's blocked passes evaluate every block into one reused
    # 1.6 MB workspace.  Were they to allocate and free block-sized matrices
    # instead, glibc's sliding trim threshold would hand them back to the
    # kernel, and every op would fault in about 10,000 fresh pages.
    resource = pytest.importorskip("resource")
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the fault bound is measured against glibc's malloc")
    argv = ["binomial-test", "--n", "400", "--k", "123"]
    for warm in range(2):
        assert main([*argv, "--out", str(tmp_path / f"warm{warm}")]) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main([*argv, "--out", str(tmp_path / "op")]) == 0
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 2_000


class TestSeedResolution:
    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CREDAL_SEED", "777")
        main(["urn", "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 777

    def test_explicit_seed_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CREDAL_SEED", "777")
        main(["urn", "--seed", "5", "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 5

    def test_garbage_env_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CREDAL_SEED", "lots")
        assert main(["urn", "--out", str(tmp_path)]) == 2


# SHA-256 of every data file of the quadrature path's commands, by numpy
# SIMD dispatch (see ``simd``).  The outcome-mass pass and the likelihood
# grid evaluate only the head counts that can carry mass; the AVX-512
# digests pin that they write the bytes a pass over every head count
# writes.  The AVX2 and baseline kernels were recorded from the same code
# and happen to write the same bytes as each other.  The reference.csv and
# hocs.csv digests were re-recorded when each quadrature box became one GL-8
# rule; those tables lie within 3.5e-14 (n = 400) and 8.2e-14 (n = 1000)
# relative of the exact rational head-count probabilities under every
# recorded dispatch, where the tables before them lay within 3.0e-14 and
# 7.1e-14.
_WITHOUT_AVX512 = {
    ("binomial-test", "--n", "400", "--k", "123"): {
        "density.csv": "2c9c47ab6c4e00a3c315e0bc129d3ebdc3a6ffb0fa0f73e9f76c43d600f61caa",
        "hocs.csv": "283471cb85c2021675f2ac15972aca0efae3807a1161826e01369099e186fe2b",
        "reference.csv": "7b9ffc7db83c47743465409cdc8df8aceb4505b1808b71a4b4f01c697df35641",
    },
    ("binomial-test", "--n", "1000", "--k", "3"): {
        "density.csv": "41df6f0780aba011429bcde676234767488f1942797dfe2642e97021533f6d23",
        "hocs.csv": "7048f654dbbce96df5cb1576abf6adfadebdb6c6ebfbeed17295c43570e88062",
        "reference.csv": "5af33bb4b3b3713e1993f9fc2105e30d0d218bc29bacb7ec3383e8ae3c7f8949",
    },
    ("tvu-density", "--n", "400"): {
        "density.csv": "2c9c47ab6c4e00a3c315e0bc129d3ebdc3a6ffb0fa0f73e9f76c43d600f61caa",
    },
}
QUADRATURE_GOLDENS = {
    simd.AVX512: {
        ("binomial-test", "--n", "400", "--k", "123"): {
            "density.csv": "81550be47a0335d07d58ab74379c66312bcdb5794bd2e8fe9c42db7cded6d985",
            "hocs.csv": "3866e655ff4006c8ccae0ba982d65def8d5bcf4752d83e8372c86f206e6cf13e",
            "reference.csv": "40211d62c8bdd3bd28cee98f3be774b7d7b7caa09b7de47776fabeff91d12004",
        },
        ("binomial-test", "--n", "1000", "--k", "3"): {
            "density.csv": "5b5bd95cc2ad1d9ee063036b1e61f86811ca98e65994d3713113057464a72e4b",
            "hocs.csv": "47e7da214f424c8ed565da28ea6b92616e0ccba29fe0a31fe546e893518bc41d",
            "reference.csv": "a75d371dbf6249e14ae2d962b0b9700b8612555abf99b57d537b68fec0452c36",
        },
        ("tvu-density", "--n", "400"): {
            "density.csv": "81550be47a0335d07d58ab74379c66312bcdb5794bd2e8fe9c42db7cded6d985",
        },
    },
    simd.AVX2: _WITHOUT_AVX512,
    simd.BASELINE: _WITHOUT_AVX512,
}


@pytest.mark.parametrize("argv", sorted(_WITHOUT_AVX512), ids=" ".join)
def test_quadrature_outputs_match_golden_digests(tmp_path, capsys, argv):
    golden = simd.recorded(QUADRATURE_GOLDENS)[argv]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir() if p.name != "manifest.json"}
    assert digests == golden


@pytest.mark.parametrize("kernels", sorted(simd.STEERED))
def test_goldens_hold_under_other_simd_kernels(kernels):
    # The byte goldens rerun with numpy steered off AVX-512: each kernel
    # set must find and match its own recorded digests.
    disabled, key = simd.STEERED[kernels]
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled)
    got = subprocess.run([sys.executable, "-c", "import simd; print(simd.dispatch_key())"],
                         env=env, cwd=tests, capture_output=True, text=True, check=True)
    assert got.stdout.strip() == str(key)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_cli.py::test_quadrature_outputs_match_golden_digests",
         "tests/test_tower.py::TestDrawWorkspace::test_levels_keep_their_bytes"],
        env=env, cwd=tests.parent, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0 and "11 passed" in run.stdout, run.stdout[-3000:]
