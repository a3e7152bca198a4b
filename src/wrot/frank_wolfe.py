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
    q^T``: their solve calls no oracle and records one gap of 0.0. The
    oracle misses the row weights by up to its residual, so ``plan`` can
    leave the polytope, ``value`` can fall below the true minimum, and
    neither the gap nor ``converged`` certifies it.

    ``plan``, a :class:`~wrot.measures.TransportPlan`, and ``metric``, the
    d x d worst-case metric (mapped back from the span coordinates a loss
    may solve on), are built on first read; training and the CLI read
    neither.
    """

    value: float
    gap_history: tuple[float, ...]
    converged: bool
    _gamma: np.ndarray = field(repr=False)
    _worst: tuple = field(repr=False)  # the adversary's (matrix, value, family)
    _basis: np.ndarray | None = field(default=None, repr=False)

    @property
    def iterations_used(self) -> int:
        return len(self.gap_history)

    @cached_property
    def plan(self) -> TransportPlan:
        return TransportPlan(matrix=self._gamma)

    @cached_property
    def metric(self) -> AdversarialMetric:
        matrix, value, family = self._worst
        basis = self._basis
        # ||V||_F and tr V are basis-invariant, so only the matrix maps back;
        # the identity maps to the identity, not to the projector B B^T
        if basis is not None:
            matrix = np.eye(basis.shape[0]) if family == "euclidean" else basis @ matrix @ basis.T
        return AdversarialMetric(matrix, value, family)


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
    step, of ``P``, plus the starting one. The first step (``theta = 1``) takes ``P`` and its
    moment as they are, since ``0 * gamma + 1 * P == P``; later steps move
    that array in place, so ``oracle`` never returns it again. With
    one active row or column, ``p q^T`` is the only plan: the loop returns
    it with the adversary at its moment and one gap of 0.0, and never calls
    ``oracle``. Returns ``(gamma, worst, gaps, converged)`` with ``worst``,
    the adversary's ``(matrix, value, family)``, taken at the returned
    ``gamma``.
    """
    gaps: list[float] = []
    stop = -np.inf if gap_tol is None else gap_tol
    gamma = marginals.p[:, None] * marginals.q
    moment = _moment_arrays(gamma, src, tgt)
    if min(marginals.active_p.size, marginals.active_q.size) == 1:
        # one active row or column: p q^T is the polytope's only plan
        return gamma, _adversary(moment, metric), [0.0], 0.0 <= stop
    for t in range(max_iter):
        worst = _adversary(moment, metric)
        lmo = oracle(_pair_costs_full(src, tgt, worst.matrix))
        lmo_moment = _moment_arrays(lmo, src, tgt)
        gaps.append(float(((moment - lmo_moment) * worst.matrix).sum()))
        if gaps[-1] <= stop:
            return gamma, worst, gaps, True
        if t == 0:  # theta = 1
            gamma, moment = lmo, lmo_moment
            continue
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
    solves on its ``r x r`` group moments. With ``metric=None`` the costs
    never move, so the oracle solves once and every later step reuses that
    plan.
    """
    _check_config(config, "config", FWConfig)
    src_arr, tgt_arr = _point_arrays(src, tgt, grouping)
    marginals = _marginals(src.weights, tgt.weights, (src.size, tgt.size))
    plan = reused = None

    def oracle(costs):
        # A cold solve each step on the marginals prepared above. Warm-starting
        # it from the previous step's scalings, as the loss does, lets a not
        # yet converged oracle return plans that make the measured gap
        # negative and stop the loop early.
        nonlocal plan, reused
        if plan is None or config.metric is not None:
            plan = _entropic_plan(costs, marginals, config.sinkhorn)[0]
            return plan
        # The identity's costs, and so its plan, are the same each step. The
        # first plan is the loop's iterate, which later steps move in place,
        # so reuse a copy taken now, while it is still untouched.
        if reused is None:
            reused = plan.copy()
        return reused

    gamma, worst, gaps, converged = _frank_wolfe(
        src_arr, tgt_arr, config.metric, oracle, marginals, config.max_iter, config.gap_tol
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
