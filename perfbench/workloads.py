"""Workloads of the credal benchmark: op argv generation and output checks.

An op is one ``credal <subcommand>`` invocation.  A workload turns a
``random.Random`` seeded from the run's seed into op argv lists (the
program sees only those), and checks what each op wrote.  Every check
raises :class:`CheckFailed` on a wrong output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path


class CheckFailed(Exception):
    """An op's output broke one of the benchmark's correctness checks."""


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_manifest(out: Path) -> None:
    """Every file the op wrote is listed in manifest.json with its SHA-256."""
    listed = json.loads((out / "manifest.json").read_text())["outputs"]
    written = {p.name for p in out.iterdir() if p.name != "manifest.json"}
    if set(listed) != written:
        raise CheckFailed(f"manifest lists {sorted(listed)}, directory holds {sorted(written)}")
    for name, digest in listed.items():
        if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest:
            raise CheckFailed(f"{name}: SHA-256 differs from manifest.json")


def data_files(out: Path) -> dict[str, bytes]:
    """The op's data files by name; manifest.json records a duration, so it is left out."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def check_same_data(reference: dict[str, bytes], out: Path) -> None:
    """Determinism gate: the data files are byte-identical to the reference op's."""
    got = data_files(out)
    if got.keys() != reference.keys():
        raise CheckFailed(f"files {sorted(got)} differ from reference {sorted(reference)}")
    for name, data in got.items():
        if data != reference[name]:
            raise CheckFailed(f"{name}: bytes differ from the reference op")


def _seed(rng) -> list[str]:
    return ["--seed", str(rng.randrange(2**32))]


class Workload:
    name = ""

    def equivalents(self, argv) -> list[list[str]]:
        """Argv lists whose data files must equal those of op ``argv``: the op, repeated."""
        return [argv]


class Converge(Workload):
    """One tower queried for every single-head event of n tosses."""

    name = "converge"

    def __init__(self, n=10, samples=3000, max_order=5):
        self.n, self.samples, self.max_order = n, samples, max_order

    def argv(self, rng) -> list[str]:
        return [
            "converge", "--n", str(self.n),
            "--events", ",".join(str(k) for k in range(self.n + 1)),
            "--base-samples", str(self.samples), "--order-samples", str(self.samples),
            "--max-order", str(self.max_order), "--threads", "1",
        ] + _seed(rng)

    def equivalents(self, argv) -> list[list[str]]:
        # Thread count never changes results, so a two-thread op is a second reference.
        threaded = list(argv)
        threaded[threaded.index("--threads") + 1] = "2"
        return [argv, threaded]

    def check(self, out: Path, stdout: str) -> None:
        # The n + 1 single-head events partition the outcome space, so at every
        # order the per-event means of the implied probabilities sum to one.
        columns = [read_csv(out / f"stats_heads{k}.csv") for k in range(self.n + 1)]
        if any(len(col) != self.max_order for col in columns):
            raise CheckFailed(f"stats files need {self.max_order} order rows")
        for order in range(self.max_order):
            total = math.fsum(float(col[order]["mean"]) for col in columns)
            if abs(total - 1.0) > 1e-9:
                raise CheckFailed(f"order {order + 1}: event means sum to {total!r}")


class Quadrature(Workload):
    """The head-count test for n tosses: quadrature and 401 event probabilities."""

    name = "quadrature"

    def __init__(self, n=400):
        self.n = n

    def argv(self, rng) -> list[str]:
        return ["binomial-test", "--n", str(self.n), "--k", str(rng.randint(1, self.n - 1))]

    def check(self, out: Path, stdout: str) -> None:
        reference = read_csv(out / "reference.csv")
        if len(reference) != self.n + 1:
            raise CheckFailed(f"reference.csv has {len(reference)} rows, want {self.n + 1}")
        total = math.fsum(float(r["prob"]) for r in reference)
        if abs(total - 1.0) > 1e-9:
            raise CheckFailed(f"reference probabilities sum to {total!r}")
        # k lies strictly inside 0..n, so its likelihood at p = 0 and p = 1 is exactly zero.
        hocs = read_csv(out / "hocs.csv")
        if float(hocs[0]["ratio"]) != 0.0 or float(hocs[-1]["ratio"]) != 0.0:
            raise CheckFailed("ratio curve endpoints must be exact zeros")


class Urn(Workload):
    """Exact urn updating: every composition of the balls over the colours."""

    name = "urn"

    def __init__(self, colors=5, balls=48, draws=6):
        self.colors = [f"c{i}" for i in range(1, colors + 1)]
        self.balls, self.draws = balls, draws

    def argv(self, rng) -> list[str]:
        history = [rng.choice(self.colors) for _ in range(self.draws)]
        return ["urn", "--colors", ",".join(self.colors), "--balls", str(self.balls),
                "--history", ",".join(history)]

    def check(self, out: Path, stdout: str) -> None:
        rows = read_csv(out / "urn.csv")
        if [r["color"] for r in rows] != self.colors:
            raise CheckFailed("urn.csv must list every colour once, in order")
        total = sum(Fraction(r["prob"]) for r in rows)
        if total != 1:
            raise CheckFailed(f"predictive probabilities sum to {total}, not exactly 1")


FULL = {w.name: w for w in (Converge(), Quadrature())}
TINY = {w.name: w for w in (Converge(n=4, samples=60, max_order=3), Quadrature(n=20))}

# Urn ops are not a timed workload: their pure-Python enumeration amplifies the
# shared host's speed drift several times more than the other ops, so their
# run-to-run spread exceeds any usable bound.  The traced run still times a
# few of them for the inference.urn_* metrics; see worker.urn_probe.
URN = {"full": Urn(), "tiny": Urn(colors=3, balls=10, draws=3)}


# ---------------------------------------------------------------------------
# Frozen oracles: fixed inputs whose answers are known exactly.
# ---------------------------------------------------------------------------

Z10 = 3.66021568


def _check_z10(out: Path, stdout: str) -> None:
    z = float(stdout.split("Z=", 1)[1].split()[0])
    if abs(z - Z10) > 1e-9 * Z10:
        raise CheckFailed(f"Z(10) = {z!r}, want {Z10} to 9 digits")


def _urn_oracle(want: Fraction):
    def check(out: Path, stdout: str) -> None:
        got = {r["color"]: Fraction(r["prob"]) for r in read_csv(out / "urn.csv")}
        if got.get("red") != want:
            raise CheckFailed(f"P(red) = {got.get('red')}, want {want}")
    return check


ORACLES = [
    (["binomial-test", "--n", "10", "--k", "1"], _check_z10),
    (["urn", "--history", "red"], _urn_oracle(Fraction(91, 180))),
    (["urn", "--history", "red,red"], _urn_oracle(Fraction(24841, 40950))),
]
