"""Command line behavior: files, formats, determinism, exit codes."""

import csv
import json
import platform
from pathlib import Path

import pytest

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


# Small flags for each subcommand, and the meta objects its manifest must carry.
DIAGNOSTICS = {
    "binomial-test": (["--n", "6", "--grid-step", "0.1"], {"measure"}),
    "converge": (["--n", "4", "--base-samples", "30", "--order-samples", "30",
                  "--max-order", "2"], {"measure", "tower"}),
    "dilation": (["--grid", "11", "--samples", "30", "--orders", "2"], {"tower"}),
    "tvu-density": (["--n", "4", "--points", "11"], {"measure"}),
    "urn": (["--balls", "6", "--history", "red"], set()),
}


@pytest.mark.parametrize("command", sorted(DIAGNOSTICS))
def test_manifest_records_diagnostics(tmp_path, capsys, command):
    flags, keys = DIAGNOSTICS[command]
    assert main([command, *flags, "--out", str(tmp_path)]) == 0
    diagnostics = json.loads((tmp_path / "manifest.json").read_text())["diagnostics"]
    assert set(diagnostics) == keys
    if "measure" in diagnostics:
        measure = diagnostics["measure"]
        assert measure["converged"] is True
        assert measure["block_rows"] > 0 and measure["bytes_held"] > 0
        assert {"err_estimate", "panels", "evaluations", "resolution", "tol"} <= set(measure)
    if "tower" in diagnostics:
        assert diagnostics["tower"]["bytes_held"] > 0
        assert len(diagnostics["tower"]["level_sizes"]) == 2


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
