"""Robust transport losses between prediction and target label distributions.

For a predicted distribution ``h`` and a smoothed target ``y`` over ``L``
labels with embeddings ``l_1 .. l_L``, the loss is

    min_{plan in Pi(h, y)}  max_M <V(plan), M> + lambda_gamma * sum plan*log(plan)

where ``V(plan) = sum_pq plan_pq (l_p - l_q)(l_p - l_q)^T`` is the
displacement moment over label embeddings and the max runs over a metric
family (``metric=None`` pins the metric to the identity, which recovers the
plain entropic squared-distance loss). The minimization is Frank-Wolfe where
only the robust term is linearized: each step solves an entropic transport
oracle on the current pairwise costs, so the oracle's own regularization
``lambda_beta`` carries the entropy. Training typically runs a single
iteration from the product coupling (fast, slightly smoothed); for an exact
solve of the ``lambda_gamma``-regularized problem, set the oracle's
``lambda_beta`` equal to ``lambda_gamma`` and raise the iteration counts, as
the fixed point of the iteration is then the true optimum.

The gradient in ``h`` comes from the envelope formula: with ``A = C* +
lambda (log plan + 1)``, where ``C*`` is the pairwise cost matrix under the
final metric and ``plan`` is a fresh oracle solve at those costs, the
gradient is the row-mean vector of ``A`` recentred to sum to zero. The log
multiplier is the oracle's ``lambda_beta``, the regularizer that plan
actually solved, which makes ``A`` split into dual potentials exactly; when
``lambda_beta == lambda_gamma`` this is the gradient of the reported value
itself, otherwise it is the gradient of the ``lambda_beta``-smoothed loss the
oracle minimizes. It is exactly tangent to the simplex, and shifting ``A`` by
any constant leaves it unchanged.

With a :class:`~wrot.measures.FeatureGrouping` the embeddings are reshaped
once to ``(L, d1, r)``; the moments and pair costs stream over that array, so
one Frank-Wolfe step costs O(L^2 d + L d r) plus an ``r x r`` adversary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frank_wolfe import _frank_wolfe
from .measures import (
    FeatureGrouping,
    TransportPlan,
    _as_float_array,
    _check_simplex,
    _freeze,
    _grouped_reshape,
    _moment_arrays,
    _pair_costs_full,
)
from .metric_solvers import (
    AdversarialMetric,
    MetricSolverConfig,
    PNormConfig,
    adversarial_value,
    euclidean_metric,
)
from .sinkhorn import SinkhornConfig, _entropic_core

__all__ = [
    "LabelSpace",
    "RotLossConfig",
    "LossValue",
    "smooth_target",
    "rot_loss",
    "rot_loss_gradient",
]


@dataclass(frozen=True, eq=False)
class LabelSpace:
    """Unit-norm label embeddings plus the optional feature grouping."""

    embeddings: np.ndarray
    grouping: FeatureGrouping | None = None

    def __post_init__(self):
        emb = _as_float_array(self.embeddings, "embeddings", 2)
        norms = np.linalg.norm(emb, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-8:
            raise ValueError("embedding rows must have unit 2-norm")
        object.__setattr__(self, "embeddings", _freeze(emb))
        # the point array the kernels see: the embeddings, or their (L, d1, r)
        # reshape under a grouping
        points = self.embeddings
        if self.grouping is not None:
            points = _freeze(_grouped_reshape(emb, self.grouping))
        object.__setattr__(self, "_points", points)

    @property
    def size(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    @property
    def metric_dim(self) -> int:
        """Side length of the displacement moment this space produces."""
        return self._points.shape[-1]

    def _moment(self, plan: np.ndarray) -> np.ndarray:
        return _moment_arrays(plan, self._points, self._points)

    def _pair_costs(self, metric: np.ndarray) -> np.ndarray:
        return _pair_costs_full(self._points, self._points, metric)


@dataclass(frozen=True)
class RotLossConfig:
    """Loss settings. ``metric=None`` selects the fixed identity metric."""

    metric: MetricSolverConfig | None = PNormConfig(k=1)
    lambda_gamma: float = 0.02
    fw_iters: int = 1
    sinkhorn: SinkhornConfig = SinkhornConfig(lambda_beta=0.2, iterations=10)
    target_smoothing_alpha: float = 1e-3

    def __post_init__(self):
        if not self.lambda_gamma > 0:
            raise ValueError("lambda_gamma must be positive")
        if self.fw_iters < 1:
            raise ValueError("fw_iters must be at least 1")
        if not 0.0 <= self.target_smoothing_alpha < 1.0:
            raise ValueError("target_smoothing_alpha must be in [0, 1)")


@dataclass(frozen=True)
class LossValue:
    """Loss value with the plan and worst-case metric that produced it."""

    value: float
    plan: TransportPlan
    metric: AdversarialMetric


def smooth_target(raw, alpha: float = 1e-3) -> np.ndarray:
    """Normalize a nonnegative label vector and mix in ``alpha`` of uniform.

    Returns ``(1 - alpha) * raw / sum(raw) + alpha / L``. With ``alpha > 0``
    every label gets positive mass, which the loss gradient needs.
    """
    raw = _as_float_array(raw, "raw", 1)
    if np.any(raw < 0):
        raise ValueError("label weights must be nonnegative")
    total = raw.sum()
    if total <= 0:
        raise ValueError("label weights must have positive total mass")
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must be in [0, 1)")
    size = raw.shape[0]
    return (1.0 - alpha) * raw / total + alpha / size


def _worst_case(moment, config):
    if config.metric is None:
        return euclidean_metric(moment)
    return adversarial_value(moment, config.metric)


def _solve(predicted, target, labels, config):
    # Composite Frank-Wolfe: only the robust term is linearized; the plan
    # entropy lives in the oracle's own regularizer. At the fixed point the
    # iterate solves min <V(plan), M*> + lambda_beta * sum plan log plan, so
    # running the oracle with lambda_beta equal to lambda_gamma (and enough
    # iterations) lands on the exact regularized optimum. The oracle
    # warm-starts from the previous solve's scalings; a gap tolerance of
    # -inf runs exactly fw_iters steps. Returns the loss and the oracle.
    h = _check_simplex(predicted, "predicted", labels.size)
    y = _check_simplex(target, "target", labels.size)
    warm = None

    def oracle(costs):
        nonlocal warm
        lmo, _, warm = _entropic_core(
            costs, h, y, config.sinkhorn, state=warm, stop_tol=1e-13
        )
        return lmo.matrix

    gamma, worst, _, _ = _frank_wolfe(
        lambda plan: _worst_case(labels._moment(plan), config),
        lambda worst: labels._pair_costs(worst.matrix),
        oracle,
        np.outer(h, y),
        config.fw_iters,
        -np.inf,
    )
    pos = gamma > 0
    entropy_term = float(np.sum(gamma[pos] * np.log(gamma[pos])))
    value = worst.value + config.lambda_gamma * entropy_term
    return LossValue(value=value, plan=TransportPlan(matrix=gamma), metric=worst), oracle


def rot_loss(
    predicted, target, labels: LabelSpace, config: RotLossConfig | None = None
) -> LossValue:
    """Robust transport loss between ``predicted`` and ``target`` distributions.

    Both arguments live on the simplex over ``labels``; zero entries are
    allowed (the corresponding plan rows/columns are pinned to zero). The
    returned value includes the ``lambda_gamma`` entropy term.
    """
    if config is None:
        config = RotLossConfig()
    return _solve(predicted, target, labels, config)[0]


def _tangent_row_mean(a: np.ndarray) -> np.ndarray:
    size = a.shape[0]
    rows = a.sum(axis=1)
    return rows / size - rows.sum() / size**2


def rot_loss_gradient(
    predicted,
    target,
    labels: LabelSpace,
    config: RotLossConfig | None = None,
    return_loss: bool = False,
):
    """Gradient of the loss in the predicted distribution.

    Envelope formula at the solved plan: the recentred row means of
    ``C* + lambda (log plan + 1)``, with the log taken on the final oracle
    plan and ``lambda`` the oracle's ``lambda_beta`` (the regularizer that
    plan solved), so the bracket reduces to dual potentials. Configure
    ``lambda_beta == lambda_gamma`` to differentiate the reported value
    itself. The result sums to zero exactly (movement along the simplex), and
    requires a strictly positive plan; with one-hot targets enable
    ``target_smoothing_alpha`` to guarantee that.

    With ``return_loss=True`` returns ``(gradient, LossValue)`` so callers get
    the loss from the same solve.
    """
    if config is None:
        config = RotLossConfig()
    loss, oracle = _solve(predicted, target, labels, config)
    # One more oracle solve at the final costs. Its log is the dual-potential
    # expression of the entropic subproblem, so the gradient formula applied
    # to it decomposes additively even before full convergence; the averaged
    # iterate's near-zero entries instead carry stale logarithms dominated by
    # early iterations, which would pollute the gradient's row means.
    costs = labels._pair_costs(loss.metric.matrix)
    oracle_plan = oracle(costs)
    if np.any(oracle_plan <= 0):
        raise ValueError(
            "gradient undefined: the transport plan has zero entries; "
            "enable target smoothing (target_smoothing_alpha > 0) and use "
            "strictly positive predictions"
        )
    a = costs + config.sinkhorn.lambda_beta * (
        np.log(oracle_plan) + 1.0
    )
    grad = _tangent_row_mean(a)
    if return_loss:
        return grad, loss
    return grad
