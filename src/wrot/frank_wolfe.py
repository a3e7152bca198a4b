"""Conditional-gradient minimization of robust transport objectives.

The robust distance is ``min_plan max_metric <V(plan), metric>`` where the
inner maximum has a closed form per metric family. The outer minimum runs
Frank-Wolfe over the transport polytope: at each iterate the objective's
gradient is the pairwise Mahalanobis cost matrix under the current worst-case
metric, the linear minimization oracle is an entropy-regularized transport
solve with that cost, and the step size is the standard ``2 / (t + 2)``
schedule. The entropic oracle matches the column weights exactly but the row
weights only up to its residual, so iterates can leave the polytope, and the
reported duality gap, measured against the oracle's own plan, certifies
nothing.

One loop, :func:`_frank_wolfe`, serves the distance and the label-embedding
loss of :mod:`wrot.rot_loss`. It takes the point arrays and the metric
config and runs each step itself: adversary, pair costs, oracle, and the
oracle plan's moment, which both the duality gap and the next iterate's
moment are formed from. Its callers differ only in the oracle they pass:
:func:`rot_distance` solves cold each step for the plan alone, the loss
warm-starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .measures import (
    DiscreteMeasure,
    FeatureGrouping,
    TransportPlan,
    _check_config,
    _check_count,
    _check_real,
    _moment_arrays,
    _pair_costs_full,
    _point_arrays,
)
from .metric_solvers import AdversarialMetric, MetricSolverConfig, _adversary
from .sinkhorn import SinkhornConfig, _entropic_plan, _marginals

__all__ = ["FWConfig", "RotResult", "rot_distance"]


@dataclass(frozen=True)
class FWConfig:
    """Settings of :func:`rot_distance` and :func:`~wrot.rot_loss.rot_loss`;
    ``metric=None`` is the fixed identity metric, whose value is the plain
    transport cost. A solve stops at a duality gap of at most ``gap_tol``
    (``None``: never) or after ``max_iter`` steps. These defaults are the
    distance's: a loss given ``FWConfig(metric)`` runs a converging solve,
    not the loss's default of one step."""

    metric: MetricSolverConfig | None
    sinkhorn: SinkhornConfig = SinkhornConfig()
    max_iter: int = 200
    gap_tol: float | None = 1e-6

    def __post_init__(self):
        _check_config(self.metric, "metric", MetricSolverConfig, optional=True)
        _check_config(self.sinkhorn, "sinkhorn", SinkhornConfig)
        _check_count(self.max_iter, "max_iter")
        if self.gap_tol is not None:
            _check_real(self.gap_tol, "gap_tol", positive=False)


@dataclass(frozen=True, eq=False)
class RotResult:
    """Outcome of a Frank-Wolfe solve: a robust distance or a loss.

    ``value`` is the worst-case transport cost at the final plan, plus the
    entropy term for the loss; ``gap_history`` holds the duality gap
    measured at each iterate against the entropic oracle's plan, and
    ``converged`` says whether the last gap met the tolerance. A gap is
    measured before the step, so when ``converged`` is ``False`` the last
    one is that of the iterate before the final step, not of the returned
    plan. A solve at ``gap_tol=None``, the loss's default, never stops
    early, so its ``converged`` is ``False``. Weights with one positive
    entry on either side, such as a one-hot target, admit one plan, ``p
    q^T``: their solve is :func:`_one_plan`'s closed form, with no oracle
    and one gap of 0.0, which meets any ``gap_tol`` but ``None``. The
    oracle misses the row weights by up to its residual, so ``plan`` can
    leave the polytope, ``value`` can fall below the true minimum, and
    neither the gap nor ``converged`` certifies it.

    ``plan``, a :class:`~wrot.measures.TransportPlan`, and ``metric``, the
    worst-case metric, are built on first read; training and the CLI read
    neither. ``metric`` is d x d (mapped back from the span coordinates a
    loss may solve on), except under a grouping, of :func:`rot_distance`
    or of a grouped :class:`~wrot.rot_loss.LabelSpace`: there it is the
    r x r group matrix ``B``, and the full metric is ``B kron I`` on the
    grouping's permuted, padded coordinates (README, "Feature grouping").
    """

    value: float
    gap_history: tuple[float, ...]
    converged: bool
    _gamma: np.ndarray | tuple = field(repr=False)  # the plan, or (p, q) of p q^T
    _worst: tuple = field(repr=False)  # the adversary's (matrix, value, family)
    _basis: np.ndarray | None = field(default=None, repr=False)

    @property
    def iterations_used(self) -> int:
        return len(self.gap_history)

    @cached_property
    def plan(self) -> TransportPlan:
        gamma = self._gamma
        return TransportPlan(matrix=np.outer(*gamma) if isinstance(gamma, tuple) else gamma)

    @cached_property
    def metric(self) -> AdversarialMetric:
        matrix, value, family = self._worst
        basis = self._basis
        # ||V||_F and tr V are basis-invariant, so only the matrix maps back;
        # the identity maps to the identity, not to the projector B B^T
        if basis is not None:
            matrix = np.eye(basis.shape[0]) if family == "euclidean" else basis @ matrix @ basis.T
        return AdversarialMetric(matrix, value, family)


def _one_plan(src, tgt, metric, marginals, gap_tol, costs=False):
    """:func:`_frank_wolfe` for weights with one positive entry on a side:
    their one plan, ``p q^T``, pairs that entry's point, the anchor, with
    each point ``i`` of the other side at its weight ``w_i``. The adversary
    is taken at ``sum_i w_i D_i^T D_i``, ``D_i`` the displacement from the
    anchor, with one gap of 0.0. Returns ``_frank_wolfe``'s tuple, then ``w``,
    then, only if ``costs``, the pair costs ``tr(D_i M D_i^T)`` (else None)."""
    if marginals.active_q.size == 1:  # one positive target weight, else one source
        weights, points, anchor = marginals.p * marginals.active_q, src, tgt[marginals.cols]
    else:
        weights, points, anchor = marginals.q * marginals.active_p, tgt, src[marginals.rows]
    disp = points - anchor
    flat, rows = disp.reshape(disp.shape[0], -1), disp.reshape(-1, points.shape[-1])
    v = rows.T @ (weights[:, None] * flat).reshape(rows.shape)
    worst = _adversary(0.5 * (v + v.T), metric)
    pair = ((rows @ worst.matrix).reshape(flat.shape) * flat).sum(1) if costs else None
    return (marginals.p, marginals.q), worst, [0.0], gap_tol is not None, weights, pair


def _frank_wolfe(src, tgt, metric, oracle, marginals, max_iter, gap_tol):
    """Frank-Wolfe over the transport polytope from the product coupling.

    ``src`` and ``tgt`` are point arrays as :func:`_point_arrays` returns
    them, ``metric`` the adversary's config (``None`` for the identity),
    ``oracle(costs)`` the linear minimization oracle, returning a plan
    matrix, and ``marginals`` the prepared weights (``gamma`` starts at
    ``p q^T``). Each iteration takes the worst-case metric ``M`` at the
    iterate's displacement moment ``V``, the pairwise costs under it (the
    objective's gradient in the plan) and the oracle's plan ``P`` for those
    costs. The pair costs are linear in ``M``, so the duality gap
    ``<gamma - P, costs>`` equals the d x d sum ``<V - V(P), M>``, which is
    what it records; it stops once the gap is at most ``gap_tol`` (never
    if ``None``), and otherwise steps ``2 / (t + 2)`` towards ``P``. The
    moment is linear in the plan, so ``V`` steps with it: one moment per
    step, of ``P``, plus the starting one. The loop moves only its own
    ``gamma`` and never writes a plan ``oracle`` returns, so an oracle may
    return the same array again; weights with one positive entry on a side
    go to :func:`_one_plan` instead. Returns ``(gamma, worst, gaps,
    converged)``, ``worst`` the adversary's ``(matrix, value, family)`` at
    the returned ``gamma``.
    """
    gaps: list[float] = []
    stop = -np.inf if gap_tol is None else gap_tol
    gamma = marginals.p[:, None] * marginals.q
    moment = _moment_arrays(gamma, src, tgt)
    for t in range(max_iter):
        worst = _adversary(moment, metric)
        lmo = oracle(_pair_costs_full(src, tgt, worst.matrix))
        lmo_moment = _moment_arrays(lmo, src, tgt)
        gaps.append(float(((moment - lmo_moment) * worst.matrix).sum()))
        if gaps[-1] <= stop:
            return gamma, worst, gaps, True
        theta = 2.0 / (t + 2.0)
        gamma *= 1.0 - theta
        gamma += theta * lmo
        moment = (1.0 - theta) * moment + theta * lmo_moment
    return gamma, _adversary(moment, metric), gaps, False


def rot_distance(
    src: DiscreteMeasure, tgt: DiscreteMeasure, config: FWConfig,
    grouping: FeatureGrouping | None = None,
) -> RotResult:
    """Robust transport distance between two discrete measures.

    Starts from the independent coupling and runs Frank-Wolfe: worst-case
    metric, gradient, entropic linear oracle, convex-combination step. Stops
    when the duality gap reaches ``config.gap_tol`` or after
    ``config.max_iter`` iterations. With a ``grouping``, the adversary
    solves on its ``r x r`` group moments. Every family, the identity
    (``metric=None``) included, solves its oracle once per step; the
    identity's costs never move, so its second step measures a gap of 0.0.
    A measure with one positive weight, such as a one-point measure, leaves
    one plan, which :func:`_one_plan` solves with no oracle.
    """
    _check_config(config, "config", FWConfig)
    src_arr, tgt_arr = _point_arrays(src, tgt, grouping)
    marginals = _marginals(src.weights, tgt.weights, (src.size, tgt.size))
    args = src_arr, tgt_arr, config.metric
    if min(marginals.active_p.size, marginals.active_q.size) == 1:
        gamma, worst, gaps, converged = _one_plan(*args, marginals, config.gap_tol)[:4]
    else:
        # The oracle solves cold on the marginals prepared above. Cold or
        # warm-started from the previous step's scalings, as the loss's is, a
        # not yet converged oracle can return plans that make the measured
        # gap negative and stop the loop early; ROADMAP item 3's certified
        # gap is the fix.
        gamma, worst, gaps, converged = _frank_wolfe(
            *args, lambda costs: _entropic_plan(costs, marginals, config.sinkhorn)[0],
            marginals, config.max_iter, config.gap_tol,
        )
    return RotResult(worst.value, tuple(gaps), converged, gamma, worst)


def w22_distance(
    src: DiscreteMeasure, tgt: DiscreteMeasure, config: SinkhornConfig = SinkhornConfig()
) -> float:
    """Entropic W2^2 as one Frank-Wolfe step of :func:`rot_distance` at the
    identity metric: ``<plan, cost>`` of one oracle solve on the
    squared-distance costs. Not public; it stays only for the w22 cells of
    the ``distance`` benchmark workload, until that workload calls
    :func:`rot_distance` itself."""
    return rot_distance(src, tgt, FWConfig(None, config, max_iter=1, gap_tol=None)).value
