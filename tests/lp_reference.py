"""An exact linear-program transport solve, the tests' reference for the
entropic solver and the Frank-Wolfe oracle.

It needs SciPy, which the ``test`` extra installs; the package itself runs
on numpy alone.
"""

import numpy as np
from scipy.optimize import linprog

from wrot.measures import TransportPlan, _as_float_array, _check_simplex


def exact_ot_small(cost: np.ndarray, row_weights, col_weights) -> tuple[TransportPlan, float]:
    """Exact linear-program transport for tiny instances (m * n <= 16).

    Solves ``min <plan, cost>`` over the transport polytope with an exact LP
    solver and returns the optimal plan and value. Intended as a reference
    oracle for the regularized solver, so the size cap is deliberate.
    """
    cost = _as_float_array(cost, "cost", 2)
    m, n = cost.shape
    if m * n > 16:
        raise ValueError(f"exact_ot_small is limited to m*n <= 16, got {m}x{n}")
    p = _check_simplex(row_weights, "row_weights", m)
    q = _check_simplex(col_weights, "col_weights", n)

    # Equality constraints: every row sum and all but one column sum (the last
    # is implied by total mass).
    a_eq = []
    b_eq = []
    for i in range(m):
        row = np.zeros((m, n))
        row[i, :] = 1.0
        a_eq.append(row.ravel())
        b_eq.append(p[i])
    for j in range(n - 1):
        col = np.zeros((m, n))
        col[:, j] = 1.0
        a_eq.append(col.ravel())
        b_eq.append(q[j])
    result = linprog(
        cost.ravel(),
        A_eq=np.array(a_eq),
        b_eq=np.array(b_eq),
        bounds=(0, None),
        method="highs",
    )
    if not result.success:
        raise RuntimeError(f"LP solver failed: {result.message}")
    plan = np.clip(result.x.reshape(m, n), 0.0, None)
    return TransportPlan(matrix=plan), float(result.fun)
