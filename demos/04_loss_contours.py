"""The training loss over the prediction simplex.

Three labels: two candidates and a true one, with the first candidate
embedded much closer to the truth. A loss that understands label geometry
should punish the far candidate harder than the near one. This sweeps
predictions h = (x, y, 1-x-y) over the simplex for every metric family and
prints a coarse contour; the same grid comes out of

    wrot contour --labels near,far,truth --embeddings <file> --out <csv>

as an x,y,loss CSV for plotting.
"""

import numpy as np

from wrot import (
    DSConfig,
    FWConfig,
    KLConfig,
    LabelSpace,
    PNormConfig,
    rot_loss,
)

emb = np.array([
    [1.0, 0.0, 0.0],    # near: 0.63 away from the truth
    [-1.0, 0.0, 0.0],   # far: 1.90 away
    [0.8, 0.6, 0.0],    # truth
])
labels = LabelSpace(embeddings=emb)
target = np.array([0.0, 0.0, 1.0])

families = [
    ("pnorm k=1", PNormConfig(k=1)),
    ("KL", KLConfig(lambda_m=2.0)),
    ("DS", DSConfig(lambda_m=2.0)),
    ("plain W2^2", None),
]

grid_n = 7
grid = np.linspace(0.0, 1.0, grid_n)

for name, metric in families:
    # The one-hot target admits one plan, h e_y^T, so each loss is the
    # adversary's value at it plus the entropy term: no Frank-Wolfe step or
    # Sinkhorn setting moves it, and one step is the whole solve.
    config = FWConfig(metric, max_iter=1, gap_tol=None)
    surface = np.full((grid_n, grid_n), np.nan)
    for i, x in enumerate(grid):
        for j, y in enumerate(grid):
            z = 1.0 - x - y
            if z < -1e-12:
                continue
            h = np.array([x, y, max(z, 0.0)])
            loss = rot_loss(h / h.sum(), target, labels, config, lambda_gamma=0.05)
            surface[i, j] = loss.value
    peak = np.nanmax(surface)
    surface = surface / peak

    near_corner = surface[-1, 0]   # all mass on the near label
    far_corner = surface[0, -1]    # all mass on the far label
    print(f"{name}: loss(near) = {near_corner:.3f}, loss(far) = {far_corner:.3f}")
    assert near_corner < far_corner

    # rows go from x=0 (bottom) to x=1; dots mark the infeasible corner
    for i in range(grid_n - 1, -1, -1):
        cells = [
            "  .  " if np.isnan(surface[i, j]) else f"{surface[i, j]:.2f} "
            for j in range(grid_n)
        ]
        print("   " + "".join(cells))
    print()
