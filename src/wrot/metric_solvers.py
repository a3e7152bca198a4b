"""Closed-form worst-case Mahalanobis metrics over displacement moments.

Given the displacement second moment ``V`` of a coupling, each solver returns
the metric matrix ``M`` maximizing ``<V, M>`` over a different feasible family,
together with the attained value:

* :func:`pnorm_metric`: ``M`` ranges over the unit ball of the elementwise
  p-norm with ``p = 2k/(2k-1)``; the maximizer is the normalized odd Hadamard
  power ``(V / ||V||_{2k})^{o(2k-1)}`` and the value is ``||V||_{2k}``.
* :func:`kl_metric`: ``M`` is penalized by an elementwise relative entropy to
  a reference ``m0``; the maximizer is ``m0 * exp(V / lambda_m)``.
* :func:`ds_metric`: same penalty with ``M`` additionally constrained to be
  doubly stochastic; the maximizer is a symmetric diagonal scaling of the KL
  kernel.

All three maximizers inherit positive semidefiniteness from ``V`` (odd
Hadamard powers and Hadamard exponentials of PSD matrices are PSD, and the
scaling is a congruence), so the value is a valid squared transport cost.

:func:`feature_weights` is the diagonal special case of the KL solver with
``m0 = I``: a softmax over per-feature displacement energies, usable directly
as a feature-importance vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import _as_float_array, _freeze
from .sinkhorn import _EXP_LIMIT, _logsumexp, symmetric_scaling

__all__ = [
    "PNormConfig",
    "KLConfig",
    "DSConfig",
    "MetricSolverConfig",
    "AdversarialMetric",
    "pnorm_metric",
    "kl_metric",
    "ds_metric",
    "euclidean_metric",
    "adversarial_value",
    "feature_weights",
    "feature_selection_objective",
]

def _check_moment(v) -> np.ndarray:
    v = _as_float_array(v, "moment", 2)
    if v.shape[0] != v.shape[1]:
        raise ValueError("moment matrix must be square")
    if np.max(np.abs(v - v.T)) > 1e-10 * max(1.0, np.max(np.abs(v))):
        raise ValueError("moment matrix must be symmetric")
    return 0.5 * (v + v.T)


def _check_reference(m0, dim, strictly_positive):
    m0 = _as_float_array(m0, "m0", 2)
    if m0.shape != (dim, dim):
        raise ValueError(f"m0 must be {dim}x{dim}, got {m0.shape}")
    if np.max(np.abs(m0 - m0.T)) > 1e-10 * max(1.0, np.max(np.abs(m0))):
        raise ValueError("m0 must be symmetric")
    if strictly_positive:
        if np.any(m0 <= 0):
            raise ValueError("m0 must be entrywise positive")
    elif np.any(m0 < 0):
        raise ValueError("m0 must be entrywise nonnegative")
    return m0


def _check_penalty(config, strictly_positive):
    # lambda_m and the reference m0 of the KL-penalized families
    if not config.lambda_m > 0:
        raise ValueError("lambda_m must be positive")
    if config.m0 is not None:
        m0 = _as_float_array(config.m0, "m0", 2)
        m0 = _check_reference(m0, m0.shape[0], strictly_positive)
        if np.min(np.linalg.eigvalsh(m0)) < -1e-10:
            raise ValueError("m0 must be positive semidefinite")
        object.__setattr__(config, "m0", _freeze(m0))


@dataclass(frozen=True)
class PNormConfig:
    """Adversary bounded in the elementwise p-norm, ``p = 2k/(2k-1)``."""

    k: int = 1

    def __post_init__(self):
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise ValueError("k must be a positive integer")

    @property
    def p(self) -> float:
        return 2 * self.k / (2 * self.k - 1)


@dataclass(frozen=True, eq=False)
class KLConfig:
    """Adversary penalized by relative entropy to ``m0`` (identity default)."""

    lambda_m: float = 1.0
    m0: np.ndarray | None = None

    def __post_init__(self):
        _check_penalty(self, strictly_positive=False)


@dataclass(frozen=True, eq=False)
class DSConfig:
    """KL-penalized adversary constrained to doubly stochastic matrices.

    ``m0`` defaults to the uniform matrix (ones / dim), which is itself doubly
    stochastic; a supplied reference must be entrywise positive.
    """

    lambda_m: float = 1.0
    m0: np.ndarray | None = None
    scaling_tol: float = 1e-8
    scaling_max_iter: int = 10_000

    def __post_init__(self):
        _check_penalty(self, strictly_positive=True)
        if not self.scaling_tol > 0:
            raise ValueError("scaling_tol must be positive")
        if self.scaling_max_iter < 1:
            raise ValueError("scaling_max_iter must be at least 1")


MetricSolverConfig = PNormConfig | KLConfig | DSConfig


@dataclass(frozen=True, eq=False)
class AdversarialMetric:
    """A worst-case metric: the maximizing matrix, its value, and its family."""

    matrix: np.ndarray
    value: float
    family: str

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(np.asarray(self.matrix, dtype=np.float64)))
        object.__setattr__(self, "value", float(self.value))


def pnorm_metric(moment: np.ndarray, k: int = 1) -> AdversarialMetric:
    """Maximize ``<V, M>`` over PSD ``M`` with elementwise p-norm at most 1.

    The value equals the elementwise 2k-norm of ``V`` and the maximizer is
    ``(V / ||V||_{2k})^{o(2k-1)}`` (entrywise odd power, so signs survive and
    the p-norm of the result is exactly 1). ``V = 0`` returns the zero metric
    with value 0.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError("k must be a positive integer")
    v = _check_moment(moment)
    vmax = float(np.max(np.abs(v)))
    if vmax == 0.0:
        return AdversarialMetric(matrix=np.zeros_like(v), value=0.0, family="pnorm")
    # Factor out the largest entry so the 2k powers cannot overflow.
    norm = vmax * float(np.sum((np.abs(v) / vmax) ** (2 * k))) ** (1.0 / (2 * k))
    matrix = (v / norm) ** (2 * k - 1)
    return AdversarialMetric(matrix=matrix, value=norm, family="pnorm")


def _kl_tilt(moment, lambda_m, m0, default_m0, strictly_positive):
    # The checked moment v, the reference m0 (default_m0(d) when None) and the
    # tilted kernel m0 * exp(v / lambda_m), refusing exponents beyond the
    # float range.
    if not lambda_m > 0:
        raise ValueError("lambda_m must be positive")
    v = _check_moment(moment)
    d = v.shape[0]
    if m0 is None:
        m0 = default_m0(d)
    else:
        m0 = _check_reference(m0, d, strictly_positive)
    scaled = v / lambda_m
    peak = float(np.max(np.abs(v)))
    if peak / lambda_m > _EXP_LIMIT:
        raise OverflowError(
            f"max|moment|/lambda_m = {peak / lambda_m:.4g} exceeds the exp range; "
            f"lambda_m must be at least max|moment|/{_EXP_LIMIT:g} = {peak / _EXP_LIMIT:.6g}"
        )
    return v, m0, m0 * np.exp(scaled)


def kl_metric(
    moment: np.ndarray, lambda_m: float = 1.0, m0: np.ndarray | None = None
) -> AdversarialMetric:
    """Maximize ``<V, M> - lambda_m * KL(M, m0)`` over entrywise-nonnegative M.

    The unconstrained maximizer is ``m0 * exp(V / lambda_m)`` (entrywise), so
    zero entries of ``m0`` stay zero. The attained value reduces to
    ``lambda_m * (sum(M*) - sum(m0))``. Entries of ``V / lambda_m`` beyond the
    float exponent range raise ``OverflowError`` rather than produce inf.
    """
    _, m0, matrix = _kl_tilt(moment, lambda_m, m0, np.eye, strictly_positive=False)
    value = lambda_m * float(matrix.sum() - m0.sum())
    return AdversarialMetric(matrix=matrix, value=value, family="kl")


def _entropy_gap(m: np.ndarray, m0: np.ndarray) -> float:
    # KL(m, m0) = sum m log(m / m0) - m + m0 with 0 log 0 := 0.
    mask = m > 0
    kl = float(np.sum(m[mask] * np.log(m[mask] / m0[mask]))) - float(m.sum()) + float(m0.sum())
    return kl


def ds_metric(
    moment: np.ndarray,
    lambda_m: float = 1.0,
    m0: np.ndarray | None = None,
    scaling_tol: float = 1e-8,
    scaling_max_iter: int = 10_000,
) -> AdversarialMetric:
    """KL-penalized maximization restricted to doubly stochastic matrices.

    The maximizer is ``D (m0 * exp(V / lambda_m)) D`` with the diagonal ``D``
    found by symmetric scaling, and the value is evaluated directly as
    ``<V, M*> - lambda_m * KL(M*, m0)``. Raises the scaling solver's
    convergence error (with residual) if the kernel cannot be balanced within
    the iteration budget.
    """
    v, m0, kernel = _kl_tilt(
        moment, lambda_m, m0, lambda d: np.full((d, d), 1.0 / d), strictly_positive=True
    )
    diag = symmetric_scaling(kernel, tol=scaling_tol, max_iter=scaling_max_iter)
    matrix = diag[:, None] * kernel * diag[None, :]
    matrix = 0.5 * (matrix + matrix.T)
    value = float(np.sum(v * matrix)) - lambda_m * _entropy_gap(matrix, m0)
    return AdversarialMetric(matrix=matrix, value=value, family="ds")


def euclidean_metric(moment: np.ndarray) -> AdversarialMetric:
    """The fixed identity metric: no adversary, value ``trace(V)``.

    This is the plain squared-Euclidean transport cost expressed through the
    displacement moment; loss code uses it for the non-robust baseline.
    """
    v = _check_moment(moment)
    return AdversarialMetric(
        matrix=np.eye(v.shape[0]), value=float(np.trace(v)), family="euclidean"
    )


def adversarial_value(moment: np.ndarray, config: MetricSolverConfig) -> AdversarialMetric:
    """Dispatch to the configured family's closed-form solver."""
    if isinstance(config, PNormConfig):
        return pnorm_metric(moment, k=config.k)
    if isinstance(config, KLConfig):
        return kl_metric(moment, lambda_m=config.lambda_m, m0=config.m0)
    if isinstance(config, DSConfig):
        return ds_metric(
            moment,
            lambda_m=config.lambda_m,
            m0=config.m0,
            scaling_tol=config.scaling_tol,
            scaling_max_iter=config.scaling_max_iter,
        )
    raise TypeError(f"unknown metric solver config: {type(config).__name__}")


def feature_weights(moment: np.ndarray, lambda_m: float = 1.0) -> np.ndarray:
    """Softmax feature importances from the moment diagonal.

    With an identity reference, the KL adversary restricted to diagonal
    metrics puts weight ``exp(v_i / lambda_m) / sum_j exp(v_j / lambda_m)`` on
    feature ``i``, where ``v_i`` is the displacement energy along feature
    ``i``. Computed with max-subtraction, so any scale of ``v`` is safe.
    """
    if not lambda_m > 0:
        raise ValueError("lambda_m must be positive")
    v = _check_moment(moment)
    diag = np.diag(v) / lambda_m
    shifted = diag - diag.max()
    w = np.exp(shifted)
    return w / w.sum()


def feature_selection_objective(moment: np.ndarray, lambda_m: float = 1.0) -> float:
    """The simplex-form objective whose maximizer is :func:`feature_weights`.

    Equals ``lambda_m * (log sum_i exp(v_i / lambda_m) - (d - 1))``; it is a
    monotone transform of the KL value at ``m0 = I`` restricted to diagonals.
    """
    if not lambda_m > 0:
        raise ValueError("lambda_m must be positive")
    v = _check_moment(moment)
    diag = np.diag(v) / lambda_m
    d = v.shape[0]
    return float(lambda_m * (_logsumexp(diag, axis=0) - (d - 1)))
