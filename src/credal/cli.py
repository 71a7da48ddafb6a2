"""Command line interface.

Subcommands::

    credal binomial-test   head-count test: reference table, ratio curve, density
    credal converge        higher-order tower spread per order
    credal urn             exact urn posterior predictive after a draw history
    credal dilation        conditional spread of the coin-matching example
    credal tvu-density     uniformity density of the head-count family

Every subcommand accepts ``--seed`` (falling back to the ``CREDAL_SEED``
environment variable, then 0), ``--threads``, ``--out`` and ``--format
{csv,json}``, and finishes by writing a ``manifest.json`` recording the
command, flags, seed, package version, duration, a SHA-256 digest of
every file it wrote, and ``diagnostics``: the ``meta`` of the uniform
measure (quadrature diagnostics and layout) and of the tower, for the
subcommands that build them, the urn's work done (``urn``), and
``stages``, the wall seconds spent in each named stage of the run (for
example ``measure``, ``tower``, ``stats``, ``write`` and ``hash``).  With a fixed seed and fixed flags
all data outputs are byte-identical across runs and thread counts.

Exit codes: 0 success; 2 usage or validation error; 3 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__
from .core import MAX_GRID_CELLS
from .errors import ConfigInvalid, CredalError
from .inference import UrnState, binomial_test, urn_update, urn_work
from .io import format_float, format_value, sha256_file, write_csv, write_json
from .svg import write_line_chart
from .tower import TowerConfig, build_tower, convergence_stats, dilation_profile
from .tvuniform import binomial_family, build_measure, coin_match_family, tvu_density

__all__ = ["main"]

_ORDINALS = [
    "first", "second", "third", "fourth", "fifth",
    "sixth", "seventh", "eighth", "ninth", "tenth",
]

# The concentration band used by the dilation summary.
_BAND = (0.25, 0.75)


def _order_name(i: int) -> str:
    return f"{_ORDINALS[i - 1]}order" if i <= len(_ORDINALS) else f"order{i}"


class _Run:
    """Creates the output directory and checks that it takes a file, so that a bad
    ``--out`` is refused before any computation; collects files; writes the manifest."""

    def __init__(self, args, command: str):
        self.args = args
        self.command = command
        self.out = Path(args.out)
        try:
            self.out.mkdir(parents=True, exist_ok=True)
            # Not ``os.access``: for root it calls /proc writable.
            with tempfile.TemporaryFile(dir=self.out):
                pass
        except OSError as exc:
            raise ConfigInvalid(f"--out {args.out}: cannot write to the directory "
                                f"({exc.strerror or exc})") from None
        self.t0 = time.perf_counter()
        self.files: list[Path] = []
        self.diagnostics: dict = {}
        self.stages: dict[str, float] = {}

    def timed(self, stage: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, with its wall time added to ``stage``."""
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.stages[stage] = self.stages.get(stage, 0.0) + time.perf_counter() - start

    def write(self, writer, name: str, *args, **kwargs) -> None:
        """Write output file ``name`` with ``writer`` and record it."""
        self.files.append(self.timed("write", writer, self.out / name, *args, **kwargs))

    def finish(self) -> None:
        skip = {"func", "out", "command"}
        flags = {
            k: (str(v) if isinstance(v, Path) else v)
            for k, v in vars(self.args).items()
            if k not in skip and not callable(v)
        }
        outputs = self.timed("hash", lambda: {p.name: sha256_file(p) for p in sorted(self.files)})
        write_json(self.out / "manifest.json", {
            "command": self.command,
            "flags": flags,
            "seed": self.args.seed,
            "threads": self.args.threads,
            "version": __version__,
            "duration_s": time.perf_counter() - self.t0,
            "outputs": outputs,
            "diagnostics": {**self.diagnostics, "stages": self.stages},
        })


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("CREDAL_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CredalError(f"CREDAL_SEED must be an integer, got {env!r}") from None
    return 0


def _common_flags(sub: argparse.ArgumentParser, svg: bool = True) -> None:
    sub.add_argument("--seed", type=int, default=None,
                     help="RNG seed (default: $CREDAL_SEED or 0)")
    sub.add_argument("--threads", type=int, default=1,
                     help="worker threads; never changes results (default 1)")
    sub.add_argument("--out", default=".", help="output directory (default .)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="data file format (default csv)")
    if svg:
        sub.add_argument("--svg", action="store_true", help="also write SVG charts")


# ---------------------------------------------------------------------------
# binomial-test
# ---------------------------------------------------------------------------


def _cmd_binomial_test(args) -> int:
    run = _Run(args, "binomial-test")
    measure = run.timed("measure", build_measure, binomial_family(args.n),
                        resolution=args.resolution)
    report = run.timed("test", binomial_test, args.n, args.k,
                       grid_step=args.grid_step, measure=measure)
    run.diagnostics["measure"] = measure.meta
    if args.format == "json":
        run.write(write_json, "report.json", report.to_payload())
    else:
        run.write(write_csv, "reference.csv", ["heads", "prob"],
                  [range(len(report.reference)), report.reference])
        run.write(write_csv, "hocs.csv", ["param", "ratio"], [report.grid, report.ratios])
        run.write(write_csv, "density.csv", ["param", "density"], [report.grid, report.density])
    if getattr(args, "svg", False):
        run.write(write_line_chart, "hocs.svg", report.grid, {"ratio": report.ratios},
                  title=f"evidence ratio, {args.k} of {args.n} heads",
                  xlabel="null bias p", ylabel="ratio")
        run.write(write_line_chart, "density.svg", report.grid, {"density": report.density},
                  title=f"uniformity density, n={args.n}",
                  xlabel="bias p", ylabel="density")
    run.finish()
    print(f"n={args.n} k={args.k} Z={format_float(report.z)}")
    print(f"reference[{args.k}]={format_float(report.observed_reference())}")
    print(f"ratio[p=0]={format_float(report.ratios[0])} "
          f"ratio[p=1]={format_float(report.ratios[-1])}")
    return 0


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def _parse_events(text: str, n: int) -> list[int]:
    try:
        ks = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise CredalError(f"--events must be comma-separated integers, got {text!r}")
    if not ks:
        raise CredalError(f"--events needs at least one head count, got {text!r}")
    if any(not 0 <= k <= n for k in ks):
        raise CredalError(f"--events entries must lie in 0..{n}")
    if len(set(ks)) != len(ks):
        raise CredalError(f"--events entries must not repeat, got {text!r}")
    return ks


def _cmd_converge(args) -> int:
    run = _Run(args, "converge")
    family = binomial_family(args.n)
    events = _parse_events(args.events, args.n)
    measure = run.timed("measure", build_measure, family, resolution=args.resolution)
    cfg = TowerConfig(
        base=measure,
        base_samples=args.base_samples,
        order_samples=args.order_samples,
        max_order=args.max_order,
        seed=args.seed,
        base_mode=args.base_mode,
    )
    tower = run.timed("tower", build_tower, cfg, n_jobs=args.threads)
    run.diagnostics.update(measure=measure.meta, tower=tower.meta)

    single = len(events) == 1
    payload = {"n": args.n, "events": {}}
    for k in events:
        event = family.space.event([k])
        reference = measure.event_prob(event)
        stats = run.timed("stats", convergence_stats, tower, event, reference=reference)
        sorted_cols = [np.sort(s.values) for s in stats]
        depth = max(c.size for c in sorted_cols)
        header = ["functionidx"] + [_order_name(s.order) for s in stats]
        stat_header = ["order", "mean", "sd", "max_dev_from_reference"]
        stat_columns = [[getattr(s, name) for s in stats] for name in stat_header]
        suffix = "" if single else f"_heads{k}"
        if args.format == "json":
            payload["events"][str(k)] = {
                "reference": reference,
                "stats": [
                    {"order": s.order, "n": s.n, "mean": s.mean, "sd": s.sd,
                     "max_dev_from_reference": s.max_dev_from_reference}
                    for s in stats
                ],
                "sorted_values": {str(s.order): c.tolist()
                                  for s, c in zip(stats, sorted_cols)},
            }
        else:
            run.write(write_csv, f"table{suffix}.csv", header, [range(depth), *sorted_cols])
            run.write(write_csv, f"stats{suffix}.csv", stat_header, stat_columns)
        if getattr(args, "svg", False):
            run.write(
                write_line_chart, f"table{suffix}.svg",
                np.arange(depth),
                {_order_name(s.order): c for s, c in zip(stats, sorted_cols)},
                title=f"implied probability of {k} heads by order",
                xlabel="sorted particle index", ylabel="implied probability")
        print(f"event: {k} heads of {args.n}  reference={format_float(reference)}")
        for s in stats:
            print(f"  order {s.order}: n={s.n} mean={format_float(s.mean)} "
                  f"sd={format_float(s.sd)} "
                  f"max_dev={format_float(s.max_dev_from_reference)}")
    if args.format == "json":
        run.write(write_json, "converge.json", payload)
    run.finish()
    return 0


# ---------------------------------------------------------------------------
# urn
# ---------------------------------------------------------------------------


def _cmd_urn(args) -> int:
    run = _Run(args, "urn")
    colors = tuple(c for c in args.colors.split(",") if c)
    history = tuple(c for c in args.history.split(",") if c)
    state = UrnState(colors=colors, ball_total=args.balls, history=history)
    predictive = run.timed("update", urn_update, state, mode=args.mode)
    run.diagnostics["urn"] = urn_work(state)
    printable = {c: format_value(v) for c, v in predictive.items()}
    if args.format == "json":
        run.write(write_json, "urn.json", {
            "colors": list(colors), "ball_total": args.balls,
            "history": list(history), "mode": args.mode,
            "predictive": printable,
        })
    else:
        run.write(write_csv, "urn.csv", ["color", "prob"],
                  [list(predictive), list(predictive.values())])
    run.finish()
    print(json.dumps(printable, indent=2, sort_keys=False))
    return 0


# ---------------------------------------------------------------------------
# dilation
# ---------------------------------------------------------------------------


def _cmd_dilation(args) -> int:
    run = _Run(args, "dilation")
    family = coin_match_family()
    space = family.space
    pre = space.event(["H1H2", "H1T2"])      # coin 1 came up heads
    match = space.event(["H1H2", "T1T2"])    # the two coins agree
    base = family
    if args.base_mode == "tvu":
        base = run.timed("measure", build_measure, family)
        run.diagnostics["measure"] = base.meta
    cfg = TowerConfig(
        base=base,
        base_samples=args.grid,
        order_samples=args.samples,
        max_order=args.orders,
        seed=args.seed,
        base_mode=args.base_mode,
    )
    tower = run.timed("tower", build_tower, cfg, n_jobs=args.threads)
    run.diagnostics["tower"] = tower.meta
    profile = run.timed("stats", dilation_profile, tower, pre, match)

    lo, hi = _BAND
    summary = [{"order": o.order, "n": o.n, "n_excluded": o.n_excluded, "mean": o.mean,
                "sd": o.sd, "weighted_mean": o.weighted_mean, "vmin": o.vmin,
                "vmax": o.vmax, "band_fraction": o.band_fraction(lo, hi)}
               for o in profile.orders]
    if args.format == "json":
        run.write(write_json, "dilation.json", {
            "pre_event": list(profile.pre_event.labels),
            "query_event": list(profile.query_event.labels),
            "n_dropped": profile.n_dropped,
            "band": [lo, hi],
            "orders": [{**row, "values": o.values.tolist()}
                       for row, o in zip(summary, profile.orders)],
        })
    else:
        sizes = [o.values.size for o in profile.orders]
        run.write(write_csv, "profile.csv", ["order", "particle", "value"], [
            np.repeat([o.order for o in profile.orders], sizes),
            np.concatenate([np.arange(size) for size in sizes]),
            np.concatenate([o.values for o in profile.orders]),
        ])
        run.write(write_csv, "summary.csv", list(summary[0]),
                  [[row[h] for row in summary] for h in summary[0]])
    if getattr(args, "svg", False):
        depth = max(o.n for o in profile.orders)
        run.write(
            write_line_chart, "dilation.svg",
            np.arange(depth),
            {_order_name(o.order): np.sort(o.values) for o in profile.orders},
            title="conditional match probability by order",
            xlabel="sorted particle index", ylabel="P(match | coin 1 heads)")
    run.finish()
    o1 = profile.order(1)
    print(f"order 1 range: [{format_float(o1.vmin)}, {format_float(o1.vmax)}] "
          f"(dropped {profile.n_dropped})")
    for o in profile.orders:
        print(f"  order {o.order}: weighted_mean={format_float(o.weighted_mean)} "
              f"sd={format_float(o.sd)} "
              f"band({lo},{hi})={format_float(o.band_fraction(lo, hi))}")
    return 0


# ---------------------------------------------------------------------------
# tvu-density
# ---------------------------------------------------------------------------


def _cmd_tvu_density(args) -> int:
    run = _Run(args, "tvu-density")
    if not 1 <= args.points <= MAX_GRID_CELLS:
        raise ConfigInvalid(f"--points must lie in 1..{MAX_GRID_CELLS}, got {args.points}")
    family = binomial_family(args.n)
    measure = run.timed("measure", build_measure, family, resolution=args.resolution)
    run.diagnostics["measure"] = measure.meta
    grid = np.linspace(0.0, 1.0, args.points)
    density = run.timed("density", tvu_density, family, grid[:, None])
    if args.format == "json":
        run.write(write_json, "density.json", {
            "n": args.n, "z": measure.z,
            "param": grid.tolist(), "density": density.tolist(),
        })
    else:
        run.write(write_csv, "density.csv", ["param", "density"], [grid, density])
    if getattr(args, "svg", False):
        run.write(write_line_chart, "density.svg", grid, {"density": density},
                  title=f"uniformity density, n={args.n}",
                  xlabel="bias p", ylabel="density")
    run.finish()
    print(f"n={args.n} Z={format_float(measure.z)}")
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="credal",
        description="Credal-set calculations: uniform measures over "
                    "parametrized families, higher-order towers, exact urn "
                    "updating, and evidence-ratio tests.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("binomial-test",
                        help="head-count test for n tosses, k heads")
    p.add_argument("--n", type=int, default=10, help="number of tosses")
    p.add_argument("--k", type=int, default=1, help="observed head count")
    p.add_argument("--resolution", type=int, default=24,
                   help="starting quadrature panels (default 24)")
    p.add_argument("--grid-step", type=float, default=0.001,
                   help="null-bias grid step, rounded to 1/round(1/step) (default 0.001)")
    _common_flags(p)
    p.set_defaults(func=_cmd_binomial_test)

    p = subs.add_parser("converge", help="per-order spread of a tower")
    p.add_argument("--n", type=int, default=10, help="number of tosses")
    p.add_argument("--events", default="1",
                   help="comma-separated head counts (default '1')")
    p.add_argument("--base-samples", type=int, default=1601)
    p.add_argument("--order-samples", type=int, default=1601)
    p.add_argument("--max-order", type=int, default=5)
    p.add_argument("--base-mode", choices=("tvu", "grid"), default="tvu",
                   help="level-1 source: density sampling or uniform grid")
    p.add_argument("--resolution", type=int, default=24)
    _common_flags(p)
    p.set_defaults(func=_cmd_converge)

    p = subs.add_parser("urn", help="exact urn posterior predictive")
    p.add_argument("--history", default="",
                   help="comma-separated colors drawn so far")
    p.add_argument("--colors", default="red,yellow,blue")
    p.add_argument("--balls", type=int, default=90, help="total balls (default 90)")
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    _common_flags(p, svg=False)
    p.set_defaults(func=_cmd_urn)

    p = subs.add_parser("dilation",
                        help="conditional spread of the coin-matching example")
    p.add_argument("--grid", type=int, default=101,
                   help="level-1 grid size (default 101)")
    p.add_argument("--samples", type=int, default=1000,
                   help="particles per higher order (default 1000)")
    p.add_argument("--orders", type=int, default=5)
    p.add_argument("--base-mode", choices=("grid", "tvu"), default="grid")
    _common_flags(p)
    p.set_defaults(func=_cmd_dilation)

    p = subs.add_parser("tvu-density", help="uniformity density table")
    p.add_argument("--n", type=int, default=10, help="number of tosses")
    p.add_argument("--points", type=int, default=1001)
    p.add_argument("--resolution", type=int, default=24)
    _common_flags(p)
    p.set_defaults(func=_cmd_tvu_density)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` shares, built on its first call (not at import)."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors with exit 2
        return int(exc.code or 0)
    try:
        args.seed = _resolve_seed(args.seed)
        if args.threads < 1:
            raise ConfigInvalid(f"--threads: need n_jobs >= 1, got {args.threads}")
        return args.func(args)
    except CredalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
