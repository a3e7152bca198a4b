"""The package's one Sinkhorn solve, ``sinkhorn._entropic_plan``, behind the
checked entry the tests call: it validates the cost and the weights, and
returns the plan as a :class:`~wrot.measures.TransportPlan` with its
marginal residual."""

import numpy as np

from wrot import sinkhorn
from wrot.measures import TransportPlan, _as_float_array


def entropic_solve(cost, row_weights, col_weights, config=None):
    """Entropy-regularized transport between ``row_weights`` and
    ``col_weights``: ``config.iterations`` scaling rounds that end on the
    column update, so the plan's column sums match ``col_weights`` exactly
    and its row sums carry the remaining error. Rows and columns of zero
    weight are left zero in the plan.

    Returns ``(plan, residual)``: the coupling, and the largest absolute
    deviation of its row and column sums from the weights.
    """
    if config is None:
        config = sinkhorn.SinkhornConfig()
    cost = _as_float_array(cost, "cost", 2)
    marginals = sinkhorn._marginals(row_weights, col_weights, cost.shape)
    plan = sinkhorn._entropic_plan(cost, marginals, config)[0]
    rows, cols = plan.sum(axis=1) - marginals.p, plan.sum(axis=0) - marginals.q
    return TransportPlan(matrix=plan), float(max(np.max(np.abs(rows)), np.max(np.abs(cols))))
