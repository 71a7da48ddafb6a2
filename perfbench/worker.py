"""One benchmark worker: set up, then run a closed loop of credal CLI ops.

run.py starts this as a fresh process.  The worker imports credal from
the checkout's ``src``, generates every op's argv from the seed, prints
``ready`` once the first op can be issued, then runs ops back to back
for the requested seconds and prints one JSON line of results.  With
``--setup-only`` it exits right after ``ready``.

Each op is one in-process ``credal.cli.main(argv)`` call into a fresh
output directory; only that call is timed.  Checks run between ops.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import credal  # noqa: E402
import credal.cli  # noqa: E402
from credal import TowerConfig, build_tower, coin_match_family  # noqa: E402
from spans import LAYER_METRICS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    FULL, ORACLES, TINY, URN, CheckFailed, check_manifest, check_same_data, data_files)

# A run issues at least this many timed ops, so that the op-time percentile
# with ten ops beyond it exists.
MIN_OPS = 11
MAX_OPS = 1000
URN_PROBE_OPS = 5
COUNT_METRICS = [
    "tvuniform.nodes", "tvuniform.event_prob_calls", "tower.held_mb", "tower.weight_draws",
    "tower.chain_flops",
]
URN_METRICS = ["inference.urn_compositions", "inference.urn_useful_ratio"]


def invoke(argv: list[str], out: Path) -> tuple[int, str]:
    """One op: the CLI's exit code and what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = credal.cli.main(argv + ["--out", str(out)])
    return code, buf.getvalue()


class Runner:
    """Issues ops, checks them and keeps the tallies that feed error_rate."""

    def __init__(self, workload, work: Path):
        self.workload, self.work = workload, work
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self._n = 0

    def run(self, argv, check, context=contextlib.nullcontext) -> tuple[float, Path, bool]:
        """Run and check one op; returns its wall time, output directory and verdict."""
        out = self.work / f"op{self._n}"
        self._n += 1
        self.attempted += 1
        with context():
            start = time.perf_counter()
            code, stdout = invoke(argv, out)
            wall = time.perf_counter() - start
        try:
            if code != 0:
                raise CheckFailed(f"exit code {code}: {stdout.strip()[-300:]}")
            check_manifest(out)
            check(out, stdout)
        except Exception:  # a wrong or missing output is a failed op, not a crashed run
            self.failed += 1
            self.errors.append(f"{' '.join(argv)}\n{traceback.format_exc(limit=2)}")
            return wall, out, False
        return wall, out, True

    def gate(self, reference: dict, argv, context=contextlib.nullcontext) -> None:
        """Run ``argv`` and require data files byte-identical to ``reference``."""
        _, out, ok = self.run(argv, self.workload.check, context)
        if ok:
            try:
                check_same_data(reference, out)
            except CheckFailed:
                self.failed += 1
                self.errors.append(f"determinism: {' '.join(argv)}\n{traceback.format_exc(limit=1)}")
        shutil.rmtree(out, ignore_errors=True)


def output_counts(out: Path) -> dict[str, int]:
    """Rows and bytes an op wrote, computed from its output directory."""
    rows = sum(p.read_bytes().count(b"\n") - 1 for p in out.glob("*.csv"))
    size = sum(p.stat().st_size for p in out.iterdir())
    return {"io.rows_written": rows, "io.bytes_written": size}


def src_loc() -> int:
    return sum(p.read_bytes().count(b"\n") for p in (SRC / "credal").rglob("*.py"))


def thread_speedup(scale: str, seed: int) -> float:
    """build_tower wall time at n_jobs = 1 over n_jobs = 2, on the dilation example's
    default-mode tower (credal dilation --grid 101 --samples 3000 --orders 8)."""
    grid, samples, orders = (101, 3000, 8) if scale == "full" else (11, 60, 3)
    cfg = TowerConfig(base=coin_match_family(), base_samples=grid, order_samples=samples,
                      max_order=orders, seed=seed, base_mode="grid")
    times = {1: 0.0, 2: 0.0}
    for jobs in (1, 2, 2, 1):   # ABBA order, so a drift in machine speed cancels
        start = time.perf_counter()
        build_tower(cfg, n_jobs=jobs)
        times[jobs] += time.perf_counter() - start
    return times[1] / times[2]


def urn_probe(runner: Runner, tracer: Tracer, scale: str, seed: int) -> dict[str, float]:
    """Trace a few checked urn ops for the inference.urn_* metrics.  They run
    under op ids -2, -3, ... so that they stay apart from the workload's ops."""
    urn = URN[scale]
    rng = random.Random(f"urn:{seed}")
    ids = [-2 - j for j in range(URN_PROBE_OPS)]
    for op in ids:
        _, out, _ = runner.run(urn.argv(rng), urn.check, lambda op=op: tracer.op(op))
        shutil.rmtree(out, ignore_errors=True)
    per_op = tracer.layer_times()
    metrics = {m: tracer.counts[ids[0]][m] for m in URN_METRICS}
    metrics["inference.urn_update_s"] = statistics.median(
        per_op[op]["inference.urn_update_s"] for op in ids)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--work", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not Path(credal.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"credal imported from {credal.__file__}, not from {SRC}")
    workload = (FULL if args.scale == "full" else TINY)[args.workload]
    rng = random.Random(f"{args.workload}:{args.seed}")
    ops = [workload.argv(rng) for _ in range(MAX_OPS)]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    work = Path(args.work)
    runner = Runner(workload, work)
    tracer = Tracer() if args.trace else None
    walls = {True: [], False: []}   # op wall times by whether the op was traced
    verified = 0
    deadline = time.perf_counter() + args.seconds
    for i, argv in enumerate(ops):
        if i >= MIN_OPS and time.perf_counter() >= deadline:
            break
        # The traced run alternates traced and untraced ops, starting traced.
        traced = tracer is not None and i % 2 == 0
        context = (lambda i=i: tracer.op(i)) if traced else contextlib.nullcontext
        wall, out, ok = runner.run(argv, workload.check, context)
        walls[traced].append(wall)
        verified += ok
        if i == 0:
            # A failed op 0 leaves an empty reference, so every gate fails too.
            reference = data_files(out) if ok else {}
            counts = output_counts(out) if ok else {"io.rows_written": 0, "io.bytes_written": 0}
        shutil.rmtree(out, ignore_errors=True)

    # Determinism gate: op 0 again (and any equivalent argv) must give the same bytes.
    # In the traced run the repeat also measures the tower build's allocation peak.
    for j, argv in enumerate(workload.equivalents(ops[0])):
        probe = tracer is not None and j == 0
        runner.gate(reference, argv, (lambda: tracer.op(-1, memory=True)) if probe else
                    contextlib.nullcontext)
    if tracer is not None:
        urn_metrics = urn_probe(runner, tracer, args.scale, args.seed)
    for argv, check in ORACLES:
        _, out, _ = runner.run(argv, check)
        shutil.rmtree(out, ignore_errors=True)

    result = {"attempted": runner.attempted, "failed": runner.failed, "errors": runner.errors}
    if tracer is None:
        timed = sorted(walls[False])
        n = len(timed)
        result["metrics"] = {
            "ops_per_s": verified / sum(timed),
            "op_p50_s": statistics.median(timed),
            # The highest percentile with ten ops beyond it.
            "op_tail_s": timed[n - 11],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        result["info"] = {"ops": n, "tail_percentile": round(100 * (n - 10) / n, 1)}
    else:
        per_op = tracer.layer_times()
        traced_ops = [op for op in per_op if op >= 0]
        metrics = {m: statistics.median(per_op[op][m] for op in traced_ops) for m in LAYER_METRICS}
        metrics.update({m: tracer.counts[0][m] for m in COUNT_METRICS})
        metrics.update(counts)
        metrics.update(urn_metrics)
        metrics["tower.build_peak_alloc_mb"] = tracer.counts[-1]["tower.build_peak_alloc_mb"]
        metrics["tower.thread_speedup"] = thread_speedup(args.scale, args.seed)
        metrics["src_loc"] = src_loc()
        metrics["trace_overhead_ratio"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]))
        result["metrics"] = metrics
        result["info"] = {"traced_ops": len(walls[True]), "untraced_ops": len(walls[False])}
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
