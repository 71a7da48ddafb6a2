"""The thickness-weighted uniform measure over a parametrized family.

"Uniform over a family of distributions" is ambiguous: uniform in which
coordinates?  The library resolves it by weighting each parameter point
by its *thickness* -- the local rate at which the distribution moves,
in total-variation distance, per unit of parameter.  The resulting
measure is invariant under reparametrization: describing the same
family with a different parameter gives the same probabilities.

For n coin tosses with bias p, the thickness is piecewise smooth with
kinks at the points k/n where some outcome probability peaks, and it
rises steeply near p = 0 and p = 1 (where the pmf moves fastest).

Run:  python3 demos/04_tvu_density.py
"""

import numpy as np

from credal import (
    ParamBox,
    ParamFamily,
    binomial_family,
    build_measure,
    thickness,
    tvu_density,
)

family = binomial_family(10)
measure = build_measure(family)

print(f"normalizer Z = {measure.z:.8f}")
print()

# -- 1. The density: thickness / Z ------------------------------------------

# Both functions take an (N, ndim) array of parameter rows.
ps = np.array([0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 0.95, 1.0])
print("  p      thickness   density")
for p, t in zip(ps, tvu_density(family, ps[:, None])):
    print(f" {p:4.2f}   {t:9.5f}   {t / measure.z:8.5f}")
print()
print("The density is largest at the endpoints (thickness -> n) and")
print("flattest in the middle: near-deterministic coins are 'longer' in")
print("TV distance per unit of p than fair ones.")
print()

# -- 2. Finite differences recover the closed form --------------------------

ps = np.array([[0.13], [0.37], [0.81]])
for (p,), fd, closed in zip(ps, thickness(family, ps, 0), tvu_density(family, ps)):
    print(f"thickness at p={p}: finite-difference {fd:.10f}  closed {closed:.10f}")
print()

# -- 3. Head-count probabilities under the measure ---------------------------

print("heads k   P(k heads) under the measure")
for k in range(11):
    print(f"   {k:2d}     {measure.event_prob(family.space.event([k])):.10f}")
print()
print("Note the table is symmetric in k <-> 10-k and is NOT the flat 1/11:")
print("weighting by thickness pushes mass toward extreme head counts.")
print()

# -- 4. Reparametrization invariance -----------------------------------------

# Trace the same family by s = p^3.  The thickness transforms by the
# Jacobian dp/ds, so the measure of every event is unchanged.
def probs_batch(xs, out, outcomes):
    return family.probs_batch_fn(xs ** (1 / 3), out, outcomes)


def thick_batch(xs):
    s = np.maximum(xs[:, 0], 1e-300)
    p = s ** (1 / 3)
    return family.thickness_batch_fns[0](p[:, None]) * p / (3.0 * s)


fam_s = ParamFamily(
    ParamBox([(0.0, 1.0)]),
    family.space,
    probs_batch,
    kinks=[tuple((k / 10) ** 3 for k in range(1, 10))],
    thickness_batch=[thick_batch],
)
m_s = build_measure(fam_s)
ev = family.space.event([2])
print(f"P(2 heads), parameter p     : {measure.event_prob(ev):.10f}")
print(f"P(2 heads), parameter s=p^3 : {m_s.event_prob(ev):.10f}")
print("Same measure, different coordinates -- the density is singular at")
print("s = 0 yet integrable, and every event probability agrees.")
