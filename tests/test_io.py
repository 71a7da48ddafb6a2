"""CSV cell formatting: the bytes every data file is made of."""

from fractions import Fraction

import numpy as np

from credal.io import write_csv

# Written by the previous cell formatter, which sent every cell (strings
# included) through the Fraction check first; the bytes must not move.
GOLDEN = (
    b"float,f64,int,bool,str,frac\n"
    b"0.10000000000000001,0.33333333333333331,7,True,text,2/3\n"
    b"1e-300,2.4999999999999999e-17,-12,False,,-5/1\n"
    b'inf,nan,0,True,"a,b",91/180\n'
)


def test_write_csv_golden_bytes(tmp_path):
    rows = [
        [0.1, np.float64(1) / 3, 7, True, "text", Fraction(2, 3)],
        [1e-300, np.float64(2.5e-17), -12, False, "", Fraction(-5, 1)],
        [float("inf"), np.float64("nan"), 0, True, "a,b", Fraction(91, 180)],
    ]
    path = write_csv(tmp_path / "cells.csv",
                     ["float", "f64", "int", "bool", "str", "frac"], rows)
    assert path.read_bytes() == GOLDEN
