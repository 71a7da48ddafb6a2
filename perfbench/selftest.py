"""Self-test of the benchmark itself.

Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload at tiny size, traced and untraced, and requires
each metric that BENCHMARK.json names, with its unit.  It then shows
that each check rejects a corrupted output: a flipped byte, an edited
value behind a re-hashed manifest, a determinism mismatch and wrong
oracle answers.  Last, it runs the benchmark in a directory without the
credal sources and requires a failure.  The file name keeps it out of
the test suite, so its timings never gate the tests.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import worker
from workloads import ORACLES, TINY, URN, CheckFailed, check_manifest, check_same_data, data_files, read_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_work" / "selftest"


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def rejects(check, out: Path, stdout: str = "") -> bool:
    try:
        check(out, stdout)
    except CheckFailed:
        return True
    return False


def edit_csv(path: Path, edit) -> None:
    """Apply ``edit`` to the rows of a CSV file and re-hash the manifest,
    so that only the workload's own check can notice."""
    rows = read_csv(path)
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    manifest_path = path.parent / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"] = {name: hashlib.sha256((path.parent / name).read_bytes()).hexdigest()
                           for name in manifest["outputs"]}
    manifest_path.write_text(json.dumps(manifest))


def _bump(rows, key, delta, row=0):
    rows[row][key] = repr(float(rows[row][key]) + delta)


# Per workload: the data file to edit and an edit its check must catch.
EDITS = {
    "converge": ("stats_heads0.csv", lambda rows: _bump(rows, "mean", 1e-6)),
    "quadrature": ("hocs.csv", lambda rows: _bump(rows, "ratio", 5e-324, row=-1)),
    "urn": ("urn.csv", lambda rows: rows[0].update(
        prob=str(Fraction(rows[0]["prob"]) + Fraction(1, 10**9)))),
}


def smoke() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
                 "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
                capture_output=True, text=True, cwd=ROOT, timeout=170)
            expect(proc.returncode == 0, f"{workload['name']} trace {trace}: {proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(result["correct"] and result["failed"] == 0, proc.stderr)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want[trace], f"{workload['name']} trace {trace}: metrics {got}")
            if trace:
                expect(result["metrics"]["inference.urn_update_s"]["value"] > 0,
                       f"{workload['name']}: the urn probe recorded no urn_update time")
            print(f"smoke {workload['name']} trace {trace}: ok")


def corruption() -> None:
    for name, workload in {**TINY, "urn": URN["tiny"]}.items():
        argv = workload.argv(random.Random(1))
        out = SCRATCH / name
        code, stdout = worker.invoke(argv, out)
        expect(code == 0, f"{name}: exit {code}")
        check_manifest(out)
        workload.check(out, stdout)
        reference = data_files(out)

        target = max(reference, key=lambda n: len(reference[n]))
        data = bytearray(reference[target])
        data[len(data) // 2] ^= 1
        (out / target).write_bytes(bytes(data))
        expect(rejects(lambda o, s: check_manifest(o), out), f"{name}: flipped byte passed manifest")
        expect(rejects(lambda o, s: check_same_data(reference, o), out),
               f"{name}: flipped byte passed the determinism gate")
        (out / target).write_bytes(reference[target])

        file, edit = EDITS[name]
        edit_csv(out / file, edit)
        check_manifest(out)
        expect(rejects(workload.check, out, stdout), f"{name}: edited {file} passed its check")
        shutil.rmtree(out)
        print(f"corruption {name}: rejected")

    for argv, check in ORACLES:
        out = SCRATCH / "oracle"
        code, stdout = worker.invoke(argv, out)
        expect(code == 0, f"{argv}: exit {code}")
        check(out, stdout)
        if argv[0] == "urn":
            edit_csv(out / "urn.csv", EDITS["urn"][1])   # perturbs P(red), the first row
        else:
            z = stdout.split("Z=", 1)[1].split()[0]
            stdout = stdout.replace(f"Z={z}", f"Z={float(z) + 1e-7!r}")
        expect(rejects(check, out, stdout), f"oracle {argv}: wrong answer passed")
        shutil.rmtree(out)
        print(f"oracle {' '.join(argv)}: rejected")


def bare_checkout() -> None:
    """Without src/credal the benchmark must fail without printing a result."""
    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "quadrature", "--seed", "1",
         "--seconds", "1", "--trace", "0"], capture_output=True, text=True, cwd=bare, timeout=170)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"bare checkout: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("bare checkout: refused")


def main() -> int:
    try:
        smoke()
        corruption()
        bare_checkout()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
