"""Serialization helpers shared by the library and the command line tool.

File conventions: CSV is comma-separated with a header row and LF line
endings; floats are written with 17 significant digits so every value
round-trips to the exact same IEEE-754 double; exact rationals are
written as ``numerator/denominator`` strings.
"""

from __future__ import annotations

import csv
import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

__all__ = [
    "format_float",
    "format_value",
    "parse_fraction",
    "write_csv",
    "write_json",
    "sha256_file",
]


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


def parse_fraction(text: str) -> Fraction:
    """Inverse of :func:`format_value` for rational cells."""
    return Fraction(text)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write rows as CSV (comma, LF, header first) formatting each cell."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([format_value(x) for x in row])
    return path


class _CredalJSONEncoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, Fraction):
            return f"{o.numerator}/{o.denominator}"
        try:
            import numpy as np

            if isinstance(o, np.integer):
                return int(o)
            if isinstance(o, np.floating):
                return float(o)
            if isinstance(o, np.ndarray):
                return o.tolist()
        except ImportError:  # pragma: no cover
            pass
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
