"""A Monte-Carlo tower of higher-order uncertainty collapses to a point.

Level 1 samples candidate coin biases from the thickness-weighted
(TV-uniform) measure over the 10-toss family.  Level 2 samples random
mixtures over those candidates; level 3 samples mixtures of mixtures,
and so on.  Each mixture is itself a distribution over head counts,
so the implied probability of an event at each level is a column sum
of that level's particle distributions.

The spread of implied probabilities shrinks roughly like 1/sqrt(n)
per level, and the mean converges to the event's probability under
the base measure itself: piling uncertainty on top of uncertainty,
with nothing new learned, adds nothing.

Run:  python3 demos/03_tower_convergence.py
"""

import numpy as np

from credal import (
    TowerConfig,
    binomial_family,
    build_measure,
    build_tower,
    convergence_stats,
)

family = binomial_family(10)
measure = build_measure(family)
event = family.space.event([1])  # exactly one head in ten tosses
reference = measure.event_prob(event)

print(f"event: exactly 1 head in 10 tosses")
print(f"probability under the base measure: {reference:.10f}")
print()

cfg = TowerConfig(
    base=measure,
    base_samples=800,
    order_samples=800,
    max_order=5,
    seed=0,
    base_mode="tvu",
)
tower = build_tower(cfg)
stats = convergence_stats(tower, event, reference=reference)

print("order      mean           sd             min        max        |mean-ref|/ref")
for s in stats:
    rel = abs(s.mean - reference) / reference
    print(
        f"  {s.order}    {s.mean:.10f}  {s.sd:.10f}  {s.vmin:.6f}  "
        f"{s.vmax:.6f}   {rel:.2e}"
    )

print()
top = stats[-1]
print(f"order-5 spread / mean = {top.sd / top.mean:.2e}  (orders of magnitude")
print("below the order-1 spread): the tower has collapsed to a point mass")
print("at the base-measure probability.")

# Determinism: the same seed gives the same tower, bit for bit.
again = convergence_stats(build_tower(cfg), event, reference=reference)
assert all(np.array_equal(a.values, b.values) for a, b in zip(stats, again))
print("\nrebuilt with the same seed: identical to the last bit.")
