"""Benchmark of the credal command line, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload {converge,quadrature} \\
        --seed N --seconds S --trace {0,1}

A run is a closed loop with one client in one fresh worker process
(worker.py): each op is one in-process ``credal.cli.main(argv)`` call,
issued as soon as the previous one has been checked.  The op argv lists
are generated from ``--seed``; see workloads.py.

``--trace 0`` prints the end-to-end metrics: ops_per_s, op_p50_s,
op_tail_s, peak_rss_mb and setup_s.  setup_s is the median, over
several fresh workers, of the time from starting the worker until it
can issue its first op; half of those workers start before the timed
worker and half after it, so a drift in machine speed during the run
moves both halves alike.  ``--trace 1`` prints the per-layer metrics of
a traced run (spans.py).  The last line of output is one JSON object
with the keys correct, attempted, failed and metrics.

The run exits non-zero without a result when the checkout has no
``src/credal`` or the worker dies.  Op outputs go to ``.perfbench_work``
and span files to ``.perfbench_out``, both inside the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import FULL

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 5   # set-up-only workers on each side of the timed worker
WORKER_TIMEOUT_S = 160
UNITS = {
    "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
    "cli.self_s": "s", "io.write_s": "s", "io.hash_s": "s", "io.rows_written": "count",
    "io.bytes_written": "bytes", "tvuniform.build_measure_s": "s", "tvuniform.nodes": "count",
    "tvuniform.event_prob_s": "s", "tvuniform.event_prob_calls": "count",
    "tvuniform.sample_params_s": "s", "tower.build_s": "s", "tower.query_s": "s",
    "tower.held_mb": "MB", "tower.build_peak_alloc_mb": "MB", "tower.weight_draws": "count",
    "tower.chain_flops": "flop", "tower.thread_speedup": "ratio",
    "inference.urn_update_s": "s", "inference.urn_compositions": "count",
    "inference.urn_useful_ratio": "ratio", "inference.binomial_test_self_s": "s",
    "src_loc": "lines", "trace_overhead_ratio": "ratio",
}


def start_worker(args, work: Path, extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns it and its set-up time."""
    # The program's own --threads is the only parallelism: no BLAS or OpenMP pools.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale,
           "--work", str(work)] + extra
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker did not become ready: {line!r}")
    return proc, setup


def finish(proc: subprocess.Popen) -> str:
    """Wait for a worker, killing it if it overruns; returns its standard output."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("worker timed out")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FULL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the self-test")
    args = parser.parse_args()

    if not (ROOT / "src" / "credal" / "__init__.py").is_file():
        print(f"error: no credal source tree at {ROOT / 'src' / 'credal'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / str(os.getpid())
    extra = []
    if args.trace:
        spans_dir = ROOT / ".perfbench_out"
        spans_dir.mkdir(exist_ok=True)
        extra = ["--spans", str(spans_dir / f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        setups = []

        def sample_setups():
            for _ in range(0 if args.trace else SETUP_SAMPLES):
                proc, setup = start_worker(args, work, ["--setup-only"])
                finish(proc)
                setups.append(setup)

        sample_setups()
        proc, setup = start_worker(args, work, extra)
        setups.append(setup)
        result = json.loads(finish(proc).strip().splitlines()[-1])
        sample_setups()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    for error in result["errors"]:
        print(f"failed op: {error}", file=sys.stderr)
    info = dict(result["info"], error_rate=result["failed"] / result["attempted"])
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
