"""Robust transport losses between prediction and target label distributions.

For a predicted distribution ``h`` and a target ``y`` over ``L`` labels
with embeddings ``l_1 .. l_L``, the loss is

    min_{plan in Pi(h, y)}  max_M <V(plan), M> + lambda_gamma * sum plan*log(plan)

where ``V(plan) = sum_pq plan_pq (l_p - l_q)(l_p - l_q)^T`` is the
displacement moment over label embeddings and the max runs over a metric
family (``metric=None`` pins the metric to the identity, which recovers the
plain entropic squared-distance loss). The minimization is Frank-Wolfe where
only the robust term is linearized: each step solves an entropic transport
oracle on the current pairwise costs, so the oracle's own regularization
``lambda_beta`` carries the entropy. In training, a single-label row takes
:func:`~wrot.frank_wolfe._one_plan`'s closed form and a multi-label row the
config's ``max_iter`` steps (one by default); for an exact solve of the
``lambda_gamma``-regularized problem, set the oracle's ``lambda_beta`` to
``lambda_gamma`` and raise the iteration counts, as the fixed point of the
iteration is then the true optimum.

The gradient in ``h`` is the envelope formula's dual potential (Frogner et
al., NeurIPS 2015): one more oracle solve at the final pair costs ``C*``
gives its row log-potential ``f``, with ``log plan = f + g - C* /
lambda_beta``, and the gradient is ``lambda_beta (f - mean f)``, the
recentred row means of ``C* + lambda_beta (log plan + 1)`` with no log of a
plan entry that underflowed. With ``lambda_beta == lambda_gamma`` it is the
gradient of the reported value, otherwise of the ``lambda_beta``-smoothed
loss. It sums to zero, and a constant added to ``C*`` moves only mean ``f``.
A zero predicted weight leaves its plan row without a potential, so the
gradient refuses it; a zero target weight only drops a column from the
block the oracle solves. A one-hot target ``e_y`` or prediction admits one
plan, which :func:`~wrot.frank_wolfe._one_plan` solves in closed form. An
L x 1 oracle's row potential is ``c / lambda_beta + log h`` up to a
constant, ``c_i`` the pair cost from ``l_i`` to ``l_y``, so the gradient,
``c + lambda_beta log h`` recentred, needs no Sinkhorn solve.

The loss runs the distance's Frank-Wolfe loop,
:func:`~wrot.frank_wolfe._frank_wolfe`, on the label space's point array as
both source and target, and passes only its warm-started oracle. It returns
the distance's :class:`~wrot.frank_wolfe.RotResult`: the value, the gaps the
loop measured, and the plan and worst-case metric, built on first read. With
a :class:`~wrot.measures.FeatureGrouping` the embeddings are reshaped once
to ``(L, d1, r)``; the moments and pair costs stream over that array, so one
Frank-Wolfe step costs O(L^2 d + L d r) plus an ``r x r`` adversary.

An ungrouped space with fewer labels than dimensions (``L < d``) is solved
in the span of its embeddings when the metric is p-norm ``k = 1`` or
``None``. With ``B`` an orthonormal basis of that span (d x L), every
moment is ``V = B V~ B^T`` with ``V~`` the L x L moment of the embeddings'
coordinates in ``B``. The Frobenius ball's worst case
``V / ||V||_F`` is then ``B (V~ / ||V~||_F) B^T`` and the identity's value is
``tr V = tr V~``, so both families give the same values, pair costs and
plans on the coordinates; only the worst-case metric is mapped back to d x d,
when the result's ``metric`` is first read. KL, DS and ``k >= 2`` maximise
entrywise functions of ``V``, which an orthogonal change of basis does not
preserve, so they keep the full points, as every grouped space does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frank_wolfe import FWConfig, RotResult, _frank_wolfe, _one_plan
from .measures import (
    FeatureGrouping,
    _as_float_array,
    _check_config,
    _check_real,
    _freeze,
    _grouped_reshape,
    _pair_costs_full,
)
from .metric_solvers import PNormConfig
from .sinkhorn import _entropic_plan, _marginals

__all__ = [
    "LabelSpace",
    "rot_loss",
    "rot_loss_gradient",
]


@dataclass(frozen=True, eq=False)
class LabelSpace:
    """Unit-norm label embeddings plus the optional feature grouping.

    Without a grouping and with fewer labels ``L`` than dimensions ``d``,
    the space also keeps an orthonormal basis ``B`` (d x L) of the
    embeddings' row span, from a thin QR of their transpose, and the
    embeddings' L x L coordinates in it. The loss solves p-norm ``k = 1``
    and the identity metric on those coordinates: both are invariant under
    an orthogonal change of basis, so values, plans and gradients are those
    of the full d-dimensional solve, to rounding, and the worst-case metric
    is mapped back to d x d. Other families, and grouped spaces, solve on
    the full points.
    """

    embeddings: np.ndarray
    grouping: FeatureGrouping | None = None

    def __post_init__(self):
        _check_config(self.grouping, "grouping", FeatureGrouping, optional=True)
        emb = _as_float_array(self.embeddings, "embeddings", 2)
        if emb.shape[0] == 0:
            raise ValueError("embeddings have 0 rows; a label space needs at least one label")
        norms = np.linalg.norm(emb, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-8:
            raise ValueError("embedding rows must have unit 2-norm")
        object.__setattr__(self, "embeddings", _freeze(emb, self.embeddings))
        # the point array the kernels see: the embeddings, or their (L, d1, r)
        # reshape under a grouping
        points = self.embeddings
        if self.grouping is not None:
            points = _freeze(_grouped_reshape(emb, self.grouping))
        object.__setattr__(self, "_points", points)
        # the span basis B and the coordinates E B, with E = R^T B^T
        basis = coords = None
        if self.grouping is None and emb.shape[0] < emb.shape[1]:
            basis, upper = np.linalg.qr(emb.T)
            basis, coords = _freeze(basis), _freeze(upper.T)
        object.__setattr__(self, "_basis", basis)
        object.__setattr__(self, "_coords", coords)

    @property
    def size(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]


# The loss's defaults: one Frank-Wolfe step from the product coupling, no
# early stop, and the entropy weight. TrainConfig and wrot contour read them.
_LOSS_CONFIG = FWConfig(PNormConfig(), max_iter=1, gap_tol=None)
_LAMBDA_GAMMA = 0.02


def _solve(predicted, target, labels, config, lambda_gamma, gradient=False):
    # Composite Frank-Wolfe: only the robust term is linearized; the plan
    # entropy lives in the oracle's own regularizer. At the fixed point the
    # iterate solves min <V(plan), M*> + lambda_beta * sum plan log plan, so
    # running the oracle with lambda_beta equal to lambda_gamma (and enough
    # iterations) lands on the exact regularized optimum. The oracle
    # warm-starts from the previous solve's potential and runs the
    # configured rounds, on marginals prepared once for every step and the
    # gradient's extra solve. Rotation-invariant families on a space with a
    # span basis run on its coordinates (see LabelSpace); a one-hot target or
    # prediction takes _one_plan's closed form. A gradient refuses a zero
    # predicted weight before any solve. Returns (loss, gradient or None).
    _check_config(labels, "labels", LabelSpace)
    _check_config(config, "config", FWConfig)
    _check_real(lambda_gamma, "lambda_gamma")
    marginals = _marginals(predicted, target, (labels.size,) * 2, ("predicted", "target"))
    if gradient and not marginals.rows.all():
        raise ValueError(
            "gradient undefined: a predicted weight is zero; use strictly positive predictions"
        )
    metric, lam = config.metric, config.sinkhorn.lambda_beta
    basis = labels._basis
    if not (metric is None or (isinstance(metric, PNormConfig) and metric.k == 1)):
        basis = None
    points = labels._points if basis is None else labels._coords
    if min(marginals.active_p.size, marginals.active_q.size) == 1:
        gamma, worst, gaps, converged, weights, costs = _one_plan(
            points, points, metric, marginals, config.gap_tol, costs=gradient
        )
        f = costs / lam + marginals.log_p if gradient else None
    else:
        warm = None

        def solve(costs):
            nonlocal warm
            plan, f, warm = _entropic_plan(costs, marginals, config.sinkhorn, state=warm)
            return plan, f

        gamma, worst, gaps, converged = _frank_wolfe(
            points, points, metric, lambda costs: solve(costs)[0],
            marginals, config.max_iter, config.gap_tol,
        )
        weights = gamma
        f = solve(_pair_costs_full(points, points, worst.matrix))[1] if gradient else None
    positive = weights[weights > 0]
    value = worst.value + lambda_gamma * float((positive * np.log(positive)).sum())
    loss = RotResult(value, tuple(gaps), converged, gamma, worst, basis)
    return loss, lam * (f - f.mean()) if gradient else None


def rot_loss(
    predicted, target, labels: LabelSpace, config: FWConfig = _LOSS_CONFIG,
    *, lambda_gamma: float = _LAMBDA_GAMMA,
) -> RotResult:
    """Robust transport loss between ``predicted`` and ``target`` distributions.

    Both arguments live on the simplex over ``labels``: a sum more than
    1e-12 from 1 is refused with ``predicted must sum to 1`` or ``target
    must sum to 1``. Zero entries are allowed (the corresponding plan
    rows/columns are pinned to zero). The returned value includes the
    entropy term, weighted by ``lambda_gamma``: the plan and the gradient
    come from the oracle's ``config.sinkhorn.lambda_beta``, so
    ``lambda_gamma`` moves the value only. The default ``config`` runs one
    Frank-Wolfe step under p-norm ``k = 1``; an
    :class:`~wrot.frank_wolfe.FWConfig` built with its own defaults runs up
    to 200.
    """
    return _solve(predicted, target, labels, config, lambda_gamma)[0]


def rot_loss_gradient(
    predicted, target, labels: LabelSpace, config: FWConfig = _LOSS_CONFIG
) -> tuple[np.ndarray, RotResult]:
    """Gradient of the loss in the predicted distribution, and the loss.

    Envelope formula at the solved plan: ``lambda (f - mean f)``, with ``f``
    the row log-potential of one more oracle solve at the final pair costs
    and ``lambda`` the oracle's ``lambda_beta``, the regularizer that plan
    solved. Set ``lambda_beta`` to :func:`rot_loss`'s ``lambda_gamma`` to
    differentiate its value itself. The result sums to zero to rounding (movement
    along the simplex). It requires strictly positive ``predicted`` weights
    and raises ``ValueError`` on a zero; ``target`` may have zeros. Both
    must sum to 1 within 1e-12, as for :func:`rot_loss`. For a one-hot
    target ``e_y`` it is ``C*[:, y] + lambda log h``, recentred, with no
    oracle solve.

    Returns ``(gradient, RotResult)``: the loss is the one
    :func:`rot_loss` reports at its default ``lambda_gamma``, from the same
    solve, and ``config`` means what it means there.
    """
    loss, grad = _solve(predicted, target, labels, config, _LAMBDA_GAMMA, gradient=True)
    return grad, loss
