"""Belief inertia: exact posteriors for an urn of unknown composition.

An urn holds 90 balls in three colors, composition unknown.  Treat every
composition (a point of the discrete simplex) as equally likely -- the
counting-uniform prior, which is what thickness-weighting degenerates to
on a finite family.  Draws with replacement then update beliefs by exact
rational arithmetic: no floats, no Monte Carlo, just big integers.

The striking feature is *inertia*: after seeing a red ball, the
probability of red moves barely past 1/2 rather than jumping toward 1,
because most compositions compatible with one red draw still contain
plenty of the other colors.  However many balls the urn holds, the
credal envelope after a few draws stays nearly vacuous, while the
counting-prior predictive settles on Laplace's rule.

Run:  python3 demos/06_urn_inertia.py
"""

from fractions import Fraction

from credal import UrnState, urn_compositions, urn_credal_set, urn_update

state = UrnState()  # 90 balls, colors red / yellow / blue
n_comp = sum(1 for _ in urn_compositions(state.ball_total, len(state.colors)))
print(f"{state.ball_total} balls, {len(state.colors)} colors -> {n_comp} compositions")
print()

# -- 1. The prior is symmetric -----------------------------------------------

prior = urn_update(state)
print("prior:", {c: str(p) for c, p in prior.items()})
assert prior["red"] == Fraction(1, 3)
print()

# -- 2. One red draw ------------------------------------------------------------

after_red = urn_update(state.with_draw("red"))
print("after seeing one red ball:")
print("  P(red)    =", after_red["red"], f"  ≈ {float(after_red['red']):.6f}")
print("  P(yellow) =", after_red["yellow"])
print()
print("A single observation moved red from 1/3 to 91/180 -- just over 1/2,")
print("nowhere near certainty.  The posterior mass still spreads over")
print("compositions heavy in the other colors.")
print()

# -- 3. Longer histories ----------------------------------------------------------

histories = [
    (),
    ("red",),
    ("red", "red"),
    ("red", "red", "red"),
    ("red", "yellow"),
    ("red",) * 6,
]
print("history                      P(red next)          as float")
for h in histories:
    post = urn_update(UrnState(history=h))
    label = "+".join(h) if h else "(none)"
    print(f"  {label:<26} {str(post['red']):<20} {float(post['red']):.6f}")
print()
print("Each repeat drags the posterior upward by less than the last:")
print("exact fractions make the diminishing returns visible to the digit.")
print()

# -- 4. The underlying credal set ----------------------------------------------

# Every composition is itself a distribution over colors; the posterior
# above is the weighted average of this (large) finite credal set.
small = UrnState(ball_total=6)
cs = urn_credal_set(small)
print(f"with only 6 balls the set is small enough to print ({len(cs)} members):")
for member, label in zip(cs.members, cs.labels):
    print(f"  {label}: {[str(x) for x in member.probs]}")
print()

# -- 5. Inertia at large N --------------------------------------------------------

# After red, red, blue every composition with a red and a blue ball still
# explains the history, so the credal envelope of P(red next) stays
# [1/N, (N-1)/N].  The counting-prior predictive instead tends to Laplace's
# rule (h_red + 1) / (H + c) = 3/6: as N grows the counting prior over
# compositions tends to the flat Dirichlet, the TV-uniform measure on the
# simplex.  The update's work follows the three draws, not N.
history = ("red", "red", "blue")
alive = [d.probs[0] for d in urn_credal_set(UrnState()).members if d.probs[0] and d.probs[2]]
assert (min(alive), max(alive)) == (Fraction(1, 90), Fraction(89, 90))
print("after red, red, blue:")
print("  balls N          envelope of P(red)        P(red next)    N * (P(red) - 1/2)")
for n in (90, 10**3, 10**6, 10**9):
    red = urn_update(UrnState(ball_total=n, history=history))["red"]
    print(f"  {n:<14,}   [{1 / n:.1e}, 1 - {1 / n:.1e}]   {float(red):.10f}   "
          f"{float(n * (red - Fraction(1, 2))):.10f}")
print()
print("The envelope never narrows, yet the predictive converges to 1/2 at")
print("rate 1/(4N): the finite urn meets the continuum's Laplace rule.")
