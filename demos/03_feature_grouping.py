"""Feature grouping: the same adversary at a fraction of the cost.

High-dimensional embeddings make the adversarial metric solve expensive, so
the metric can be restricted to the form B kron I: features are shuffled into
r groups and the adversary only controls the r x r block structure. With
singleton groups (r = d) nothing is lost, and the run below checks the solver
follows the exact same path. Shrinking r buys time: the per-epoch cost of
training decays like a + b * r^2. At d = 200 the epoch time is nearly flat
up to r of about 40, where the work that does not grow with r dominates, so
the fit below spans r = 25 to r = 200 (singleton groups).
"""

import time

import numpy as np

from wrot import (
    Dataset,
    FWConfig,
    LabelSpace,
    PNormConfig,
    SinkhornConfig,
    TrainConfig,
    make_grouping,
    make_measure,
    rot_distance,
    sgd_train,
)

# --- singleton groups reproduce the full solve --------------------------

rng = np.random.default_rng(21)
d = 6
src = make_measure(rng.normal(size=(4, d)))
tgt = make_measure(rng.normal(size=(5, d)))
sink = SinkhornConfig(lambda_beta=0.05, iterations=300)

config = FWConfig(metric=PNormConfig(k=1), sinkhorn=sink)
full = rot_distance(src, tgt, config)
grouped = rot_distance(src, tgt, config, grouping=make_grouping(d, d, seed=1))
print(f"full solve      {full.value:.12f}")
print(f"singleton groups {grouped.value:.12f}")
print(f"difference      {abs(full.value - grouped.value):.2e}")
print()

# --- per-epoch training time against the group count --------------------

n_labels, dim, n_samples = 48, 200, 48
emb = rng.normal(size=(n_labels, dim))
emb /= np.linalg.norm(emb, axis=1, keepdims=True)
features = rng.normal(size=(n_samples, 6))
hard = rng.integers(0, n_labels, size=n_samples)
data = Dataset(
    features,
    np.eye(n_labels, dtype=int)[hard],
    [f"label_{i}" for i in range(n_labels)],
)

print(f"{n_labels} labels with {dim}-dimensional embeddings, "
      f"{n_samples} training samples")
print(f"{'r':>4} {'sec/epoch':>10}")
counts = (25, 50, 100, 200)
times = []
for r in counts:
    labels = LabelSpace(embeddings=emb, grouping=make_grouping(dim, r, seed=0))
    result = sgd_train(data, labels, TrainConfig(epochs=3))
    # report a warm epoch, not the first
    sec = min(result.epoch_seconds[1:])
    times.append(sec)
    print(f"{r:>4} {sec:>10.3f}")

r_sq = np.array([float(r) ** 2 for r in counts])
design = np.vstack([np.ones_like(r_sq), r_sq]).T
(a, b), *_ = np.linalg.lstsq(design, np.array(times), rcond=None)
print(f"least-squares fit: t = {a:.4f} + {b:.2e} * r^2")
