"""Fuzzed command lines: every argv ends in exit 0 or 2, never 3.

Each subcommand is driven in process through ``cli.main`` with small,
bounded sizes mixed with bad values (zero, negatives, ``nan``, ``inf``,
non-numeric tokens) and, for the size flags, ``2**40``, which the
package must refuse before it allocates or spawns anything.  Exit 3
means a raw Python error escaped instead of a typed ``CredalError``.  No example may start a process.
"""

import contextlib
import itertools
import io
import json
import multiprocessing.process
import os
import subprocess
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from credal.cli import main

BAD = ["0", "-1", "-7", "nan", "inf", "-inf", "1.5", "1e400", "x", ""]


def value(good: st.SearchStrategy) -> st.SearchStrategy:
    """A flag value: mostly a good one, sometimes a bad token."""
    return st.one_of(good.map(str), st.sampled_from(BAD))


def ints(lo: int, hi: int) -> st.SearchStrategy:
    return value(st.integers(lo, hi))


def sizes(lo: int, hi: int) -> st.SearchStrategy:
    """A size flag: also 2**40, far past the package's cell cap."""
    return value(st.one_of(st.integers(lo, hi), st.just(2**40)))


def choice(*options: str) -> st.SearchStrategy:
    return value(st.sampled_from(options))


def csv_of(items: st.SearchStrategy) -> st.SearchStrategy:
    return st.lists(items, max_size=4).map(",".join)


COLORS = ["red", "yellow", "blue", "green"]

# Flags per subcommand, each with a strategy for its value (None: a switch).
FLAGS = {
    "binomial-test": {
        "--n": sizes(1, 8), "--k": ints(0, 8), "--resolution": ints(1, 8),
        "--grid-step": choice("0.05", "0.1", "0.25", "0.5", "1"),
        "--svg": None,
    },
    "converge": {
        "--n": sizes(1, 6), "--events": value(csv_of(st.integers(-1, 7).map(str))),
        "--base-samples": sizes(1, 20), "--order-samples": sizes(1, 20),
        "--max-order": sizes(1, 3), "--base-mode": choice("tvu", "grid"),
        "--resolution": ints(1, 8), "--svg": None,
    },
    "urn": {
        "--history": value(csv_of(st.sampled_from(COLORS))),
        "--colors": value(csv_of(st.sampled_from(COLORS))),
        "--balls": sizes(1, 12), "--mode": choice("exact", "float"),
    },
    "dilation": {
        "--grid": sizes(1, 20), "--samples": sizes(1, 20), "--orders": sizes(1, 3),
        "--base-mode": choice("grid", "tvu"), "--svg": None,
    },
    "tvu-density": {
        "--n": sizes(1, 8), "--points": sizes(0, 40), "--resolution": ints(1, 8),
        "--svg": None,
    },
}
COMMON = {
    "--seed": value(st.integers(0, 2**32)),
    # Never more than a few threads, whatever the token.
    "--threads": ints(1, 3),
    "--format": choice("csv", "json"),
}


@st.composite
def argvs(draw, command: str) -> list[str]:
    flags = {**FLAGS[command], **COMMON}
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=len(flags)))
    argv = [command]
    for flag in chosen:
        argv.append(flag)
        if flags[flag] is not None:
            argv.append(draw(flags[flag]))
    return argv


def _no_process(*args, **kwargs):
    raise AssertionError("the command line started a process")


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_every_argv_exits_0_or_2(command, tmp_path_factory):
    root = tmp_path_factory.mktemp(f"fuzz-{command}")
    runs = itertools.count()

    @settings(max_examples=50, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv=argvs(command))
    def run(argv):
        out = root / str(next(runs))
        sink = io.StringIO()
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stdout(sink))
            stack.enter_context(contextlib.redirect_stderr(sink))
            stack.enter_context(mock.patch.object(subprocess, "Popen", _no_process))
            stack.enter_context(mock.patch.object(os, "fork", _no_process))
            stack.enter_context(mock.patch.object(
                multiprocessing.process.BaseProcess, "start", _no_process))
            code = main(argv + ["--out", str(out)])
        assert code in (0, 2), f"{argv} exited {code}: {sink.getvalue()}"
        if code == 0:
            json.loads((out / "manifest.json").read_text())

    run()
