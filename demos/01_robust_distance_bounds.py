"""Robust transport distances and how they relate to the plain quadratic cost.

The robust distance lets an adversary pick the ground metric after seeing the
transport plan. This script solves a tiny instance you can check by hand, then
samples random point clouds and shows that the robust p-norm value always sits
between W2^2 / d^(1/p) and W2^2 itself.
"""

import numpy as np

from wrot import (
    FWConfig,
    PNormConfig,
    SinkhornConfig,
    make_measure,
    rot_distance,
)

# ---------------------------------------------------------------------------
# A 2x2 instance with a closed-form answer.
#
# Two unit-mass pairs sit on opposite corners of the unit square. Every
# pairing moves mass across distance 1, so the plain quadratic cost is exactly
# 1. The adversary concentrates the metric on a single direction, and the
# optimal plan splits mass to spread displacements across both axes; the
# resulting value is sqrt(1/2).
# ---------------------------------------------------------------------------

src = make_measure(np.array([[0.0, 0.0], [1.0, 1.0]]))
tgt = make_measure(np.array([[1.0, 0.0], [0.0, 1.0]]))

result = rot_distance(src, tgt, FWConfig(metric=PNormConfig(k=1)))
plain = rot_distance(src, tgt, FWConfig(metric=None)).value  # identity metric

print("square corners instance")
print(f"  robust value   {result.value:.5f}   (exact: {np.sqrt(0.5):.5f})")
print(f"  plain W2^2     {plain:.5f}   (exact: 1.00000)")
print(f"  optimal plan\n{np.array_str(result.plan.matrix, precision=3)}")
print()

# ---------------------------------------------------------------------------
# The sandwich bound on random clouds.
#
# With the p-norm adversary (p = 2k/(2k-1)) the robust value can shrink the
# plain cost by at most d^(1/p): the adversary has unit budget in the dual
# norm, and the identity metric spends it evenly across d directions.
# ---------------------------------------------------------------------------

rng = np.random.default_rng(0)
d = 10
sink = SinkhornConfig(lambda_beta=0.02, iterations=200)

print(f"random clouds, {d} features, 5 points a side")
print(f"{'k':>3} {'W2^2/d^(1/p)':>14} {'robust':>10} {'W2^2':>10}")
for trial in range(3):
    src = make_measure(rng.normal(size=(5, d)))
    tgt = make_measure(rng.normal(size=(5, d)))
    plain = rot_distance(src, tgt, FWConfig(None, sink)).value
    for k in (1, 2):
        p = 2 * k / (2 * k - 1)
        cfg = FWConfig(metric=PNormConfig(k=k), sinkhorn=sink, gap_tol=1e-4)
        robust = rot_distance(src, tgt, cfg).value
        lower = plain / d ** (1.0 / p)
        print(f"{k:>3} {lower:>14.4f} {robust:>10.4f} {plain:>10.4f}")
        assert lower - 1e-6 <= robust <= plain + 1e-6
print("bound held on every instance")
