"""A hypothesis test from the thickness-weighted measure.

Observing an event E after positing a null parameter value x0, compare
two numbers: the likelihood of E at x0, and the probability of E when
the parameter is drawn from the thickness-weighted uniform measure over
the whole family.  Their ratio plays the role of an evidence ratio:

    ratio > 1   the null explains the data better than "no idea",
    ratio < 1   the data speak against the null.

For continuous families the null point has measure zero, so nothing is
excluded from the alternative; for finite families the null member is
removed and the rest renormalized.

Run:  python3 demos/05_hypothesis_ratio.py
"""

import numpy as np

from credal import (
    CredalSet,
    binomial_family,
    build_measure,
    hocs_curve,
    hocs_ratio,
    iid_extension,
    make_rational_distribution,
)
from credal.core import OutcomeSpace

family = binomial_family(10)
measure = build_measure(family)
one_head = family.space.event([1])

# -- 1. Single rows -----------------------------------------------------------

for null, event, label in [
    (0.1, one_head, "null p=0.1, saw 1 head of 10"),
    (0.5, one_head, "null p=0.5, saw 1 head of 10"),
    (0.4, family.space.event([4]), "null p=0.4, saw 4 heads of 10"),
]:
    r = hocs_ratio(measure, null, event)
    verdict = "supports the null" if r.ratio > 1 else "counts against it"
    print(f"{label}:   ratio = {r.ratio:.6f}   ({verdict})")
print()

# -- 2. The whole curve --------------------------------------------------------

grid = np.linspace(0.0, 1.0, 101)
ratios = np.array([r.ratio for r in hocs_curve(measure, one_head, grid)])
peak = grid[int(np.argmax(ratios))]
print(f"ratio curve for 'exactly 1 head of 10' peaks at p = {peak:.2f}")
print("  p     ratio")
for p in (0.0, 0.05, 0.1, 0.2, 0.5, 0.8, 1.0):
    print(f" {p:4.2f}  {ratios[np.isclose(grid, p)][0]:.6f}")
print()
print("At the endpoints the likelihood of a mixed outcome is exactly zero,")
print("so the ratio vanishes; the interesting region is where the null's")
print("likelihood beats the measure-averaged probability of the event.")
print()

# -- 3. Finite families: exclusion and renormalization --------------------------

# Three candidate coins; testing one of them as the null removes it from
# the alternative hypothesis before comparing.
flip = OutcomeSpace(["H", "T"])
coins = [make_rational_distribution(flip, [w, 10 - w]) for w in (3, 5, 7)]
pairs = [iid_extension(c, 2) for c in coins]
triple = CredalSet(pairs, labels=["0.3", "0.5", "0.7"])  # scored by its counting measure
both_heads = pairs[0].space.event(["H,H"])
r = hocs_ratio(triple, 1, both_heads)  # null: the fair coin (index 1)
print("finite family of three coins, event 'two heads in a row':")
print(f"  mode = {r.mode}")
print(f"  null likelihood    = {r.null_likelihood}")
print(f"  reference (others) = {r.reference_prob}")
print(f"  ratio              = {r.ratio:.6f}")
print()
print("All ratios here are conditional on reading the measure as a fair")
print(f"betting prior over the family (flagged: conjecture_conditional="
      f"{r.conjecture_conditional}).")
