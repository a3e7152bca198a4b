"""Closed-form worst-case Mahalanobis metrics over displacement moments.

Given the displacement second moment ``V`` of a coupling,
:func:`adversarial_value` returns the metric matrix ``M`` maximizing
``<V, M>`` over the family its config names, with the attained value. Each
config's docstring states its family's maximizer, value and errors:
:class:`PNormConfig` (elementwise p-norm ball), :class:`KLConfig` (relative
entropy penalty to a reference ``m0``) and :class:`DSConfig` (the same
penalty over doubly stochastic matrices); ``None`` is the identity metric.

Each family has one checked path. Its config checks ``k``, or ``lambda_m``
and ``m0``, once, when it is built. :func:`adversarial_value` checks the
moment and calls ``_adversary``, which runs the family's private kernel
(``_pnorm``, ``_kl``, ``_ds``, and ``_euclidean`` for the fixed identity
metric). The Frank-Wolfe loop, whose moments the package builds, calls
``_adversary`` directly, which checks finiteness only. The kernels return
the matrix, value and family as a ``_Worst`` named tuple, frozen into an
:class:`AdversarialMetric` only where they leave the package. ``_kl`` and ``_ds``
share the tilted kernel ``m0 * exp(V / lambda_m)``, which refuses to
overflow and is the only place that compares ``m0``'s size with the
moment's. ``_ds`` builds it exactly symmetric and nonnegative and runs the
scaling loop ``sinkhorn._symmetric_scaling`` on it to a residual of
``_SCALING_TOL`` within ``_SCALING_MAX_ITER`` updates.

All three maximizers inherit positive semidefiniteness from ``V`` (odd
Hadamard powers and Hadamard exponentials of PSD matrices are PSD, and the
scaling is a congruence), so the value is a valid squared transport cost.

:func:`feature_weights` is the diagonal special case of the KL solver with
``m0 = I``: a softmax over per-feature displacement energies, usable directly
as a feature-importance vector.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .measures import _as_float_array, _check_config, _check_count, _check_real, _freeze
from .sinkhorn import _EXP_LIMIT, _logsumexp, _symmetric_scaling

__all__ = [
    "PNormConfig",
    "KLConfig",
    "DSConfig",
    "MetricSolverConfig",
    "AdversarialMetric",
    "adversarial_value",
    "feature_weights",
    "feature_selection_objective",
]

# the DS adversary's symmetric scaling: row-sum residual and update budget
_SCALING_TOL = 1e-8
_SCALING_MAX_ITER = 10_000


def _check_moment(v) -> np.ndarray:
    v = _as_float_array(v, "moment", 2)
    if v.shape[0] != v.shape[1]:
        raise ValueError("moment matrix must be square")
    if np.max(np.abs(v - v.T)) > 1e-10 * max(1.0, np.max(np.abs(v))):
        raise ValueError("moment matrix must be symmetric")
    return 0.5 * (v + v.T)


def _check_penalty(config, strictly_positive):
    # lambda_m and the reference m0 of the KL-penalized families: a square,
    # symmetric, entrywise nonnegative (DS: positive) PSD matrix, stored
    # exactly symmetric, as the DS kernel's symmetric scaling requires
    _check_real(config.lambda_m, "lambda_m")
    if config.m0 is None:
        return
    m0 = _as_float_array(config.m0, "m0", 2)
    d = m0.shape[0]
    if m0.shape != (d, d):
        raise ValueError(f"m0 must be {d}x{d}, got {m0.shape}")
    # both tolerances scale with m0's largest entry, as eigvalsh's rounding does
    tol = 1e-10 * max(1.0, np.max(np.abs(m0)))
    if np.max(np.abs(m0 - m0.T)) > tol:
        raise ValueError("m0 must be symmetric")
    if strictly_positive:
        if np.any(m0 <= 0):
            raise ValueError("m0 must be entrywise positive")
    elif np.any(m0 < 0):
        raise ValueError("m0 must be entrywise nonnegative")
    m0 = 0.5 * (m0 + m0.T)
    if np.min(np.linalg.eigvalsh(m0)) < -tol:
        raise ValueError("m0 must be positive semidefinite")
    object.__setattr__(config, "m0", _freeze(m0))


@dataclass(frozen=True)
class PNormConfig:
    """Adversary bounded in the elementwise p-norm, ``p = 2k/(2k-1)``.

    Maximizes ``<V, M>`` over PSD ``M`` with elementwise p-norm at most 1.
    The value is the elementwise 2k-norm of ``V`` and the maximizer is
    ``(V / ||V||_{2k})^{o(2k-1)}`` (entrywise odd power, so signs survive and
    the p-norm of the result is exactly 1). ``V = 0`` gives the zero metric
    with value 0.
    """

    k: int = 1

    def __post_init__(self):
        _check_count(self.k, "k")


@dataclass(frozen=True, eq=False)
class KLConfig:
    """Adversary penalized by relative entropy to ``m0`` (identity default).

    Maximizes ``<V, M> - lambda_m * KL(M, m0)`` over entrywise nonnegative
    ``M``; ``m0`` must be symmetric, entrywise nonnegative and positive
    semidefinite. The maximizer is ``m0 * exp(V / lambda_m)`` (entrywise), so
    zero entries of ``m0`` stay zero, and the value reduces to
    ``lambda_m * (sum(M*) - sum(m0))``. Entries of ``V / lambda_m`` beyond the
    float exponent range, or of ``m0 * exp(V / lambda_m)`` or its sum beyond
    the float range, raise ``OverflowError`` rather than produce inf.
    ``lambda_m`` is absolute: scaling both clouds by c scales ``V`` by c**2
    but not the penalty, so the value does not scale as c**2.
    """

    lambda_m: float = 1.0
    m0: np.ndarray | None = None

    def __post_init__(self):
        _check_penalty(self, strictly_positive=False)


@dataclass(frozen=True, eq=False)
class DSConfig:
    """KL-penalized adversary constrained to doubly stochastic matrices.

    ``m0`` defaults to the uniform matrix (ones / dim), which is itself doubly
    stochastic; a supplied reference must be symmetric, entrywise positive
    and positive semidefinite. The maximizer is ``D (m0 * exp(V / lambda_m))
    D`` with the diagonal ``D`` found by symmetric scaling, and the value is
    ``<V, M*> - lambda_m * KL(M*, m0)``. The scaling runs to a row-sum
    residual of 1e-8 and raises :class:`~wrot.sinkhorn.SinkhornConvergenceError`
    (with residual) if the kernel cannot be balanced within 10,000 updates. A
    kernel that overflows raises ``OverflowError``, and the value does not
    scale as c**2 with the clouds, as for :class:`KLConfig`.
    """

    lambda_m: float = 1.0
    m0: np.ndarray | None = None

    def __post_init__(self):
        _check_penalty(self, strictly_positive=True)


MetricSolverConfig = PNormConfig | KLConfig | DSConfig


@dataclass(frozen=True, eq=False)
class AdversarialMetric:
    """A worst-case metric: the maximizing matrix, its value, and its family."""

    matrix: np.ndarray
    value: float
    family: str

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=np.float64)
        object.__setattr__(self, "matrix", _freeze(matrix, self.matrix))
        object.__setattr__(self, "value", float(self.value))


# An adversary's result inside the package, unfrozen; AdversarialMetric(*worst)
# is the public form.
_Worst = namedtuple("_Worst", "matrix value family")


def _pnorm(v, k):
    magnitude = np.abs(v)
    vmax = float(magnitude.max())
    if vmax == 0.0:
        return _Worst(np.zeros_like(v), 0.0, "pnorm")
    # Factor out the largest entry so the 2k powers cannot overflow.
    norm = vmax * float(((magnitude / vmax) ** (2 * k)).sum()) ** (1.0 / (2 * k))
    matrix = v / norm if k == 1 else (v / norm) ** (2 * k - 1)
    return _Worst(matrix, norm, "pnorm")


def _kl_tilt(v, lambda_m, m0, default_m0):
    # The reference m0 (default_m0(d) when None) and the tilted kernel
    # m0 * exp(v / lambda_m), refusing exponents beyond the float range and
    # a large m0 entry that overflows the product.
    d = v.shape[0]
    if m0 is None:
        m0 = default_m0(d)
    elif m0.shape != (d, d):
        raise ValueError(f"m0 must be {d}x{d}, got {m0.shape}")
    peak = float(np.abs(v).max())
    if peak / lambda_m > _EXP_LIMIT:
        raise OverflowError(
            f"max|moment|/lambda_m = {peak / lambda_m:.4g} exceeds the exp range; "
            f"lambda_m must be at least max|moment|/{_EXP_LIMIT:g} = {peak / _EXP_LIMIT:.6g}"
        )
    with np.errstate(over="ignore"):
        kernel = m0 * np.exp(v / lambda_m)
    if not np.isfinite(kernel).all():
        # exp(v / lambda_m) is in range, so m0 * exp overflowed where v > 0;
        # lambda_m >= v / (700 - log m0) there keeps each entry in range.
        pos = m0 > 0
        w, log_m0 = v[pos], np.log(m0[pos])
        with np.errstate(divide="ignore"):
            need = w[w > 0] / np.maximum(_EXP_LIMIT - log_m0[w > 0], 0.0)
        raise OverflowError(
            f"max(moment/lambda_m + log m0) = {np.max(w / lambda_m + log_m0):.4g} "
            "overflows m0 * exp(moment/lambda_m); lambda_m must be at least "
            f"{max(peak / _EXP_LIMIT, np.max(need)):.6g}"
        )
    return m0, kernel


def _kl(v, lambda_m, m0):
    m0, matrix = _kl_tilt(v, lambda_m, m0, np.eye)
    # every entry is finite, but up to d^2 of them near the float maximum
    # can still overflow their sum
    with np.errstate(over="ignore"):
        total = matrix.sum()
    if not np.isfinite(total):
        raise OverflowError(
            "the kernel sum sum(m0 * exp(moment/lambda_m)) overflows the float "
            f"range at lambda_m = {lambda_m:.6g}; raise lambda_m"
        )
    value = lambda_m * float(total - m0.sum())
    return _Worst(matrix, value, "kl")


def _ds(v, lambda_m, m0):
    m0, kernel = _kl_tilt(v, lambda_m, m0, lambda d: np.full((d, d), 1.0 / d))
    diag = _symmetric_scaling(kernel, _SCALING_TOL, _SCALING_MAX_ITER)
    matrix = diag[:, None] * kernel * diag[None, :]
    matrix = 0.5 * (matrix + matrix.T)
    # KL(M, m0) = sum M log(M / m0) - M + m0 with 0 log 0 := 0
    pos = matrix > 0
    kl = float((matrix[pos] * np.log(matrix[pos] / m0[pos])).sum() - matrix.sum() + m0.sum())
    value = float((v * matrix).sum()) - lambda_m * kl
    return _Worst(matrix, value, "ds")


def _euclidean(v):
    return _Worst(np.eye(v.shape[0]), float(v.trace()), "euclidean")


def _adversary(v, config):
    """The configured family's kernel on a moment the package built, square
    and exactly symmetric; only its finiteness is checked. ``config=None`` is
    the fixed identity metric, as in :class:`~wrot.frank_wolfe.FWConfig`.
    Returns a ``_Worst`` (matrix, value, family)."""
    if not np.isfinite(v).all():
        raise ValueError("moment contains non-finite entries")
    if config is None:
        return _euclidean(v)
    if isinstance(config, PNormConfig):
        return _pnorm(v, config.k)
    if isinstance(config, KLConfig):
        return _kl(v, config.lambda_m, config.m0)
    # every caller's config passed _check_config, so this one is a DSConfig
    return _ds(v, config.lambda_m, config.m0)


def adversarial_value(
    moment: np.ndarray, config: MetricSolverConfig | None
) -> AdversarialMetric:
    """Dispatch to the configured family's closed-form solver.

    ``config=None`` is the fixed identity metric: no adversary, value
    ``trace(V)``, the plain squared-Euclidean transport cost. Any other
    ``config`` raises ``ValueError``, as :class:`~wrot.frank_wolfe.FWConfig`
    does.
    """
    _check_config(config, "metric", MetricSolverConfig, optional=True)
    return AdversarialMetric(*_adversary(_check_moment(moment), config))


def _scaled_diagonal(moment, lambda_m):
    # max diag(V), and (diag(V) - max) / lambda_m for the two diagonal forms
    # below. Shifting before dividing keeps the top entries at 0 for any
    # positive lambda_m (dividing first makes them inf - inf at a tiny one);
    # a quotient that overflows to -inf has weight exp(-inf) = 0.
    _check_real(lambda_m, "lambda_m")
    diag = np.diag(_check_moment(moment))
    peak = diag.max()
    with np.errstate(over="ignore"):
        return peak, (diag - peak) / lambda_m


def feature_weights(moment: np.ndarray, lambda_m: float = 1.0) -> np.ndarray:
    """Softmax feature importances from the moment diagonal.

    With an identity reference, the KL adversary restricted to diagonal
    metrics puts weight ``exp(v_i / lambda_m) / sum_j exp(v_j / lambda_m)`` on
    feature ``i``, where ``v_i`` is the displacement energy along feature
    ``i``. Computed as ``exp((v_i - max v) / lambda_m)``, so any scale of
    ``v`` and any positive ``lambda_m`` is safe.
    """
    w = np.exp(_scaled_diagonal(moment, lambda_m)[1])
    return w / w.sum()


def feature_selection_objective(moment: np.ndarray, lambda_m: float = 1.0) -> float:
    """The simplex-form objective whose maximizer is :func:`feature_weights`.

    Equals ``lambda_m * (log sum_i exp(v_i / lambda_m) - (d - 1))``; it is a
    monotone transform of the KL value at ``m0 = I`` restricted to diagonals.
    A value beyond the float range raises ``OverflowError``.
    """
    peak, shifted = _scaled_diagonal(moment, lambda_m)
    excess = float(_logsumexp(shifted, axis=0) - (shifted.size - 1))
    with np.errstate(over="ignore"):
        value = float(peak + lambda_m * excess)
    if not np.isfinite(value):
        raise OverflowError(
            f"lambda_m * (logsumexp - (d - 1)) = {lambda_m:.6g} * {excess:.6g} leaves "
            f"the float range; lambda_m must be below about "
            f"{np.finfo(float).max / abs(excess):.6g}"
        )
    return value
