"""Serialization helpers shared by the library and the command line tool.

CSV is comma-separated with a header row and LF line endings.  Every CSV
goes through one columnar writer, :func:`write_csv`, which takes one
sequence per column and picks each column's cell format once from its
type: floats ``%.17g`` (17 significant digits, so every value
round-trips to the same IEEE-754 double), integers ``%d``, bools
``True``/``False``, and anything else :func:`format_value` per cell
(exact rationals as ``numerator/denominator``), quoted as
``csv.writer`` quotes minimally.  Cells past a shorter column's end are
empty.  One ``%`` row template renders each stretch of rows (at most
``STRETCH_ROWS``) over which the same columns have values, so the
per-cell work runs in C.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import LengthMismatch

__all__ = ["format_float", "format_value", "write_csv", "write_json", "sha256_file"]

# Most rows one template renders.  A stretch's cells become Python objects
# all at once; short stretches keep that to a few tens of KB, so a write
# adds nothing to a run's peak RSS, at no cost in speed.
STRETCH_ROWS = 256
_SPECS = {"f": "%.17g", "i": "%d", "u": "%d", "b": "%s"}


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (lossless round-trip)."""
    return format(float(x), ".17g")


def format_value(x) -> str:
    """Render a cell value: rationals exactly, floats losslessly."""
    if isinstance(x, str):
        return x
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return str(x)
    return format_float(x)


def _quote(text: str, alone: bool) -> str:
    """``text`` as a CSV field; ``alone`` when it is its row's only field."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return '""' if alone and not text else text


def _column_format(col, alone: bool):
    """A column's ``%`` spec, and the map from a slice of it to the spec's arguments."""
    if isinstance(col, np.ndarray):
        kind, values = col.dtype.kind, np.ndarray.tolist
    else:
        types, values = set(map(type, col)), list
        kind = ("b" if types == {bool} else
                "f" if all(issubclass(t, float) for t in types) else
                "i" if all(issubclass(t, int) and t is not bool for t in types) else "O")
    if kind in _SPECS:
        return _SPECS[kind], values
    return "%s", lambda part: [_quote(format_value(x), alone) for x in part]


def _render(header: list, columns: Sequence):
    """Yield the file's text: the header line, then one string per stretch."""
    alone = len(columns) == 1
    formats = [_column_format(c, alone) for c in columns]
    lengths = [len(c) for c in columns]
    yield ",".join(_quote(str(h), alone) for h in header) + "\n"
    start = 0
    # A stretch ends where a column ends and every STRETCH_ROWS rows.
    for stop in sorted({*lengths, *range(0, max(lengths, default=0), STRETCH_ROWS)} - {0}):
        template = ",".join(f[0] if n > start else "" for f, n in zip(formats, lengths)) + "\n"
        cells = zip(*(f[1](c[start:stop]) for f, c, n in zip(formats, columns, lengths)
                      if n > start))
        yield (template * (stop - start)) % tuple(chain.from_iterable(cells))
        start = stop


def write_csv(path, header: Sequence[str], columns: Sequence[Sequence]) -> Path:
    """Write one CSV file (comma, LF, header first) from its columns.

    ``columns`` holds one array or sequence per header entry.  The bytes
    are those of ``csv.writer`` over :func:`format_value` cells, except
    that numpy integers keep every digit (``format_value`` goes through
    ``float``) and a numpy bool array is written ``True``/``False``.
    """
    header = list(header)
    if len(header) != len(columns):
        raise LengthMismatch(f"{len(header)} header names for {len(columns)} columns")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.writelines(_render(header, columns))
    return path


class _CredalJSONEncoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, Fraction):
            return f"{o.numerator}/{o.denominator}"
        if isinstance(o, np.integer):
            return int(o)
        if isinstance(o, np.floating):
            return float(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        return super().default(o)


def write_json(path, payload) -> Path:
    """Write a JSON document (sorted keys, LF-terminated) and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True, cls=_CredalJSONEncoder)
    with open(path, "w", newline="") as fh:
        fh.write(text + "\n")
    return path


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
