"""What the adversary actually does with each metric family.

Given a transport plan, all the adversary sees is the displacement second
moment V: the plan-weighted covariance of source-target displacements. Each
family answers "which metric hurts most?" under a different budget, and each
has a closed form or a cheap scaling, so no inner optimization loop is needed.
One call, adversarial_value(V, config), solves every family; the config names
the family and carries its settings.
"""

import numpy as np

from wrot import (
    DSConfig,
    KLConfig,
    PNormConfig,
    TransportPlan,
    adversarial_value,
    displacement_second_moment,
    feature_selection_objective,
    feature_weights,
    make_measure,
)

rng = np.random.default_rng(4)

# a cloud pair whose displacements live mostly in the first two features
src_pts = rng.normal(size=(6, 5))
tgt_pts = src_pts + np.array([2.0, 1.0, 0.1, 0.1, 0.1]) * rng.normal(size=(6, 5))
src = make_measure(src_pts)
tgt = make_measure(rng.permutation(tgt_pts))

# the product coupling: every source point sends mass to every target point
plan = TransportPlan(matrix=np.outer(src.weights, tgt.weights))
v = displacement_second_moment(plan, src, tgt)
print("displacement second moment diagonal:")
print(" ", np.array_str(np.diag(v), precision=3))
print()

# p-norm budget: ||M||_p <= 1. For k=1 the worst metric is the normalized
# moment itself; larger k flattens it toward the dominant eigendirection.
for k in (1, 2):
    m = adversarial_value(v, PNormConfig(k=k))
    print(f"p-norm adversary, k={k}: value {m.value:.4f}, "
          f"metric eigenvalues {np.array_str(np.linalg.eigvalsh(m.matrix)[::-1], precision=3)}")

# KL budget: stay close to a reference metric in relative entropy. The
# optimum is an entrywise exponential tilt of the reference.
m = adversarial_value(v, KLConfig(lambda_m=1.0))
print(f"KL adversary:           value {m.value:.4f}, "
      f"diagonal {np.array_str(np.diag(m.matrix), precision=3)}")

# doubly stochastic budget: the metric must keep unit row and column sums,
# enforced by symmetric Sinkhorn scaling of the tilted reference.
m = adversarial_value(v, DSConfig(lambda_m=1.0, m0=np.full((5, 5), 0.2)))
print(f"DS adversary:           value {m.value:.4f}, "
      f"row sums {np.array_str(m.matrix.sum(axis=1), precision=6)}")

# no config: the fixed identity metric, whose value is the plain squared
# Euclidean cost trace(V)
m = adversarial_value(v, None)
print(f"identity metric:        value {m.value:.4f} = trace(V)")
print()

# Restricting the KL adversary to diagonal metrics turns it into a feature
# selector: a softmax over per-feature displacement energies. Sharp when the
# temperature is low, uniform when it is high.
print("feature weights (diagonal KL adversary):")
for lam in (0.5, 2.0, 50.0):
    w = feature_weights(v, lambda_m=lam)
    print(f"  lambda {lam:>5.1f}: {np.array_str(w, precision=3)}")
print()
print(f"selection objective at lambda=1: {feature_selection_objective(v, 1.0):.4f}")
