"""CSV cell formatting: the bytes every data file is made of.

The columnar writer is checked against a reference oracle kept here: the
row-by-row ``csv.writer`` over ``format_value`` cells that wrote every
data file before it.
"""

import csv
import io
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credal.cli import main
from credal.errors import LengthMismatch
from credal.io import STRETCH_ROWS, format_value, write_csv, write_json

# Written by the previous cell formatter, which sent every cell (strings
# included) through the Fraction check first; the bytes must not move.
GOLDEN = (
    b"float,f64,int,bool,str,frac\n"
    b"0.10000000000000001,0.33333333333333331,7,True,text,2/3\n"
    b"1e-300,2.4999999999999999e-17,-12,False,,-5/1\n"
    b'inf,nan,0,True,"a,b",91/180\n'
)


def oracle_bytes(header, columns) -> bytes:
    """The row-by-row writer: ``csv.writer`` over ``format_value`` cells,
    with empty cells where a column has run out."""
    depth = max((len(c) for c in columns), default=0)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    for j in range(depth):
        writer.writerow([format_value(c[j]) if j < len(c) else "" for c in columns])
    return buf.getvalue().encode()


def test_write_csv_golden_bytes(tmp_path):
    rows = [
        [0.1, np.float64(1) / 3, 7, True, "text", Fraction(2, 3)],
        [1e-300, np.float64(2.5e-17), -12, False, "", Fraction(-5, 1)],
        [float("inf"), np.float64("nan"), 0, True, "a,b", Fraction(91, 180)],
    ]
    path = write_csv(tmp_path / "cells.csv",
                     ["float", "f64", "int", "bool", "str", "frac"], list(zip(*rows)))
    assert path.read_bytes() == GOLDEN


def test_header_and_columns_must_match(tmp_path):
    with pytest.raises(LengthMismatch):
        write_csv(tmp_path / "x.csv", ["a", "b"], [[1.0]])


def test_ragged_columns_across_stretches(tmp_path):
    rng = np.random.default_rng(1)
    n = 2 * STRETCH_ROWS + 3
    columns = [range(n), rng.random(STRETCH_ROWS),
               [Fraction(j, 7) for j in range(STRETCH_ROWS + 1)], ["a,b"] * (n - 1), np.arange(0)]
    path = write_csv(tmp_path / "x.csv", list("abcde"), columns)
    assert path.read_bytes() == oracle_bytes(list("abcde"), columns)


FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 0.0, 1e-300, 5e-324, -2.2250738585072014e-308,
                     float("nan"), float("inf"), float("-inf")]),
)
TEXT = st.text(alphabet=st.sampled_from('ab ,"\n\r;x'), max_size=6)
# The oracle formats a numpy integer through float, exact below 2**53.
NP_INTS = st.integers(-(2**53), 2**53)


@st.composite
def column(draw):
    """One column: an array or a list of a single cell type, or a mixed list."""
    size = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(
        ["float_array", "float_list", "int_array", "int_list", "bool_list",
         "text", "fraction", "mixed"]))
    if kind == "float_array":
        return np.array(draw(st.lists(FLOATS, min_size=size, max_size=size)))
    if kind == "float_list":
        return [np.float64(x) if draw(st.booleans()) else x
                for x in draw(st.lists(FLOATS, min_size=size, max_size=size))]
    if kind == "int_array":
        dtype = draw(st.sampled_from([np.int64, np.int32, np.uint16]))
        info = np.iinfo(dtype)
        ints = st.integers(max(int(info.min), -(2**53)), min(int(info.max), 2**53))
        return np.array(draw(st.lists(ints, min_size=size, max_size=size)), dtype=dtype)
    if kind == "int_list":
        return draw(st.lists(st.integers(-(2**70), 2**70), min_size=size, max_size=size))
    if kind == "bool_list":
        return draw(st.lists(st.booleans(), min_size=size, max_size=size))
    if kind == "text":
        return draw(st.lists(TEXT, min_size=size, max_size=size))
    if kind == "fraction":
        return draw(st.lists(st.fractions(), min_size=size, max_size=size))
    cells = st.one_of(FLOATS, st.integers(), NP_INTS.map(np.int64), st.booleans(), TEXT,
                      st.fractions())
    return draw(st.lists(cells, min_size=size, max_size=size))


@settings(max_examples=300, deadline=None)
@given(columns=st.lists(column(), min_size=1, max_size=5),
       names=st.lists(TEXT, min_size=5, max_size=5))
def test_writer_matches_the_row_oracle(tmp_path_factory, columns, names):
    header = names[: len(columns)]
    path = write_csv(tmp_path_factory.mktemp("csv") / "x.csv", header, columns)
    assert path.read_bytes() == oracle_bytes(header, columns)


def parse_cell(text: str):
    """A written cell as its value: rationals hold ``/``, integers parse as
    ``int``, other numbers as ``float``, anything else stays text."""
    if "/" in text:
        return Fraction(text)
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def trim(column: list) -> list:
    """Drop the trailing empty cells that pad a column shorter than the file."""
    while column and column[-1] == "":
        column.pop()
    return column


# Small flags for every subcommand; the converge runs give ragged tables.
CLI_RUNS = [
    ["binomial-test", "--n", "6", "--k", "2", "--grid-step", "0.05"],
    ["converge", "--n", "4", "--events", "0,2", "--base-samples", "30",
     "--order-samples", "20", "--max-order", "3"],
    ["converge", "--n", "3", "--base-samples", "15", "--order-samples", "25",
     "--max-order", "2", "--base-mode", "grid"],
    ["urn", "--balls", "6", "--history", "red"],
    ["urn", "--balls", "6", "--colors", 'a"b,c d', "--mode", "float"],
    ["dilation", "--grid", "11", "--samples", "30", "--orders", "2"],
    ["tvu-density", "--n", "4", "--points", "11"],
]


@pytest.mark.parametrize("argv", CLI_RUNS, ids=[f"{a[0]}-{i}" for i, a in enumerate(CLI_RUNS)])
def test_cli_csv_round_trips_through_the_oracle(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    written = sorted(tmp_path.glob("*.csv"))
    assert written
    for path in written:
        raw = path.read_bytes()
        header, *rows = list(csv.reader(io.StringIO(raw.decode(), newline="")))
        columns = [trim([parse_cell(r[j]) for r in rows]) for j in range(len(header))]
        assert oracle_bytes(header, columns) == raw, path.name


def test_write_json_encodes_exact_and_numpy_values(tmp_path):
    payload = {"frac": Fraction(91, 180), "i64": np.int64(2**53 + 1),
               "f64": np.float64(0.1), "f32": np.float32(0.5),
               "array": np.array([[1.5, 2.0], [3.0, 0.1]]), "ints": np.arange(3)}
    text = write_json(tmp_path / "x.json", payload).read_text()
    assert text.endswith("}\n")
    loaded = json.loads(text)
    assert loaded == {"frac": "91/180", "i64": 2**53 + 1, "f64": 0.1, "f32": 0.5,
                      "array": [[1.5, 2.0], [3.0, 0.1]], "ints": [0, 1, 2]}
    assert list(loaded) == sorted(payload)
    assert type(loaded["i64"]) is int and type(loaded["ints"][0]) is int
    with pytest.raises(TypeError):
        write_json(tmp_path / "y.json", {"set": {1}})
