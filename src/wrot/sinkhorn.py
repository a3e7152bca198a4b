"""Entropy-regularized transport solvers and matrix scaling.

Two related fixed-point iterations live here. :func:`entropic_ot` solves the
entropy-regularized linear transport problem

    min_{plan in Pi(p, q)}  <plan, cost> + lambda_beta * sum plan * log(plan)

by alternating row/column scaling of the kernel ``exp(-cost / lambda_beta)``.
While that kernel is representable in float64 the updates are plain
multiplicative ones. Beyond, one log-domain round absorbs the dual potentials
into the kernel and plain updates of that absorbed kernel follow; a round
whose scalings leave a safe range is redone in the log domain (Schmitzer,
SIAM J. Sci. Comput. 2019). Past ``max|cost| / lambda_beta = 2**53`` a
float64 exponent no longer resolves a step of 1, and the solve refuses.
:func:`symmetric_scaling` finds the diagonal that makes a symmetric positive
kernel doubly stochastic, which the doubly-stochastic metric solver relies on.
:func:`exact_ot_small` is an exact LP reference for tiny instances, used to
cross-check the regularized solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .measures import _MASS_TOL, TransportPlan, _as_float_array, _check_simplex

__all__ = [
    "SinkhornConfig",
    "SinkhornConvergenceError",
    "entropic_ot",
    "symmetric_scaling",
    "exact_ot_small",
]

# exp(x) and exp(-x) stay normal float64 numbers for |x| <= 700 (the range
# ends near 708).
_EXP_LIMIT = 700.0


class SinkhornConvergenceError(RuntimeError):
    """Scaling did not converge; ``residual`` holds the last marginal error."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = float(residual)


@dataclass(frozen=True)
class SinkhornConfig:
    """Settings for :func:`entropic_ot`; each solve picks its domain from
    ``max|cost| / lambda_beta``: plain updates up to 700, above it one
    log-domain round absorbed into the kernel and plain updates after it, and
    ``OverflowError`` above ``2**53``."""

    lambda_beta: float = 0.2
    iterations: int = 10

    def __post_init__(self):
        if not self.lambda_beta > 0:
            raise ValueError("lambda_beta must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")


def _plain_iterations(kernel, p, q, iterations, v=None, stop_tol=0.0):
    # Rounds from the column scaling v (ones when None); returns (plan, v).
    if v is None:
        v = np.ones_like(q)
    for _ in range(iterations):
        ku = kernel @ v
        if np.any(ku <= 0):
            raise SinkhornConvergenceError(
                "kernel column sums underflowed to zero in the plain domain",
                residual=np.inf,
            )
        u = p / ku
        kv = kernel.T @ u
        if np.any(kv <= 0):
            raise SinkhornConvergenceError(
                "kernel row sums underflowed to zero in the plain domain",
                residual=np.inf,
            )
        v = q / kv
        if stop_tol > 0.0:
            # after a column update only the row sums carry error
            row_err = np.max(np.abs(u * (kernel @ v) - p))
            if row_err <= stop_tol:
                break
    return u[:, None] * kernel * v[None, :], v


def _logsumexp(a, axis):
    """``log(sum(exp(a), axis))`` shifted by the slice maximum.

    A non-finite maximum is shifted by 0 instead, so an all ``-inf`` slice
    gives ``-inf``. Plain numpy: ``scipy.special.logsumexp`` costs several
    times more per call on the small arrays the iterations pass it.
    """
    shift = np.max(a, axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - shift), axis=axis))
    return out + np.squeeze(shift, axis=axis)


def _absorbed_kernel(log_kernel, log_p, log_q, g):
    # One log-domain round from g: f = log u, then g = log v, folded into
    # the kernel. Returns (exp(log_kernel + f + g), g); the kernel's column
    # sums are q, so its own scalings start at u = v = 1.
    f = log_p - _logsumexp(log_kernel + g[None, :], axis=1)
    row_scaled = log_kernel + f[:, None]
    g = log_q - _logsumexp(row_scaled, axis=0)
    return np.exp(row_scaled + g[None, :]), g


def _log_iterations(log_kernel, log_p, log_q, iterations, g=None, stop_tol=0.0):
    # The same rounds on f = log u, g = log v from g; returns (plan, g).
    # Only the first round runs in the log domain; it absorbs the potentials
    # into the kernel, and later rounds are plain updates of that kernel's
    # scalings (u, v). A round whose scalings leave exp(+-_EXP_LIMIT / 2), or
    # reach 0 or inf, is redone in the log domain after log v joins g.
    if g is None:
        g = np.zeros_like(log_q)
    p = np.exp(log_p)
    q = np.exp(log_q)
    low = np.exp(-_EXP_LIMIT / 2)
    high = 1.0 / low
    kernel, g = _absorbed_kernel(log_kernel, log_p, log_q, g)
    u = np.ones_like(p)
    v = np.ones_like(q)
    # a zero or non-finite scaling is caught by the range test below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(iterations - 1):
            ku = kernel @ v
            # after a column update only the row sums carry error
            if stop_tol > 0.0 and np.max(np.abs(u * ku - p)) <= stop_tol:
                break
            u_next = p / ku
            v_next = q / (kernel.T @ u_next)
            if (
                low <= np.minimum.reduce(u_next)
                and np.maximum.reduce(u_next) <= high
                and low <= np.minimum.reduce(v_next)
                and np.maximum.reduce(v_next) <= high
            ):
                u, v = u_next, v_next
            else:
                kernel, g = _absorbed_kernel(log_kernel, log_p, log_q, g + np.log(v))
                u = np.ones_like(p)
                v = np.ones_like(q)
    return u[:, None] * kernel * v[None, :], g + np.log(v)


def entropic_ot(
    cost: np.ndarray, row_weights, col_weights, config: SinkhornConfig | None = None
) -> tuple[TransportPlan, float]:
    """Entropy-regularized transport between ``row_weights`` and ``col_weights``.

    Runs a fixed number of alternating scaling rounds, ending on the column
    update, so the returned plan's column sums match ``col_weights`` exactly
    and the row sums carry the remaining error. Rows and columns with zero
    target mass are excluded from the iteration and left zero in the plan.

    Returns
    -------
    (plan, residual)
        ``plan`` is the coupling (its stored marginals are its actual row and
        column sums); ``residual`` is the maximum absolute deviation of those
        sums from the requested weights.
    """
    plan, residual, _ = _entropic_core(cost, row_weights, col_weights, config)
    return plan, residual


def _beyond_float_potentials(scale):
    return (
        f"max|cost|/lambda_beta = {scale:.3g} is beyond what float64 dual "
        "potentials resolve; raise lambda_beta, or lambda_m for the KL and DS "
        "adversaries"
    )


def _entropic_core(cost, row_weights, col_weights, config, state=None, stop_tol=0.0):
    """Shared body of :func:`entropic_ot` that can warm start.

    Runs plain updates when ``max|cost| / lambda_beta`` over the active
    block is at most ``_EXP_LIMIT``, log-domain updates otherwise: one log
    round absorbs the potentials into the kernel, plain rounds follow, and
    the log round is repeated only when the scalings leave
    ``exp(+-_EXP_LIMIT / 2)``. ``state`` is the column potential ``g = log v``
    of a previous call with the same marginals; both domains read and write
    it, so a warm start survives a domain switch. ``stop_tol > 0`` ends the
    rounds early once the row-sum error drops below it. Returns ``(plan,
    residual, state)``. Raises ``OverflowError`` before iterating when the
    scaled cost exceeds ``2**53``, where float64 potentials no longer resolve
    the kernel's exponents, and after iterating if the plan's mass is not 1.
    """
    if config is None:
        config = SinkhornConfig()
    cost = _as_float_array(cost, "cost", 2)
    m, n = cost.shape
    p = _check_simplex(row_weights, "row_weights", m)
    q = _check_simplex(col_weights, "col_weights", n)

    rows = p > 0
    cols = q > 0
    sub_cost = cost[np.ix_(rows, cols)]
    pa = p[rows]
    qa = q[cols]

    scaled = sub_cost / config.lambda_beta
    scale = float(np.max(np.abs(scaled)))
    # Past 2**53 a float64 exponent no longer resolves a step of 1, so the
    # kernel exp(-cost / lambda_beta + f + g) carries no information.
    if scale > 2.0**53:
        raise OverflowError(_beyond_float_potentials(scale))
    if scale <= _EXP_LIMIT:
        # v -> c v leaves the plan unchanged, so shifting g by its maximum
        # keeps exp(g) in range whatever domain produced it.
        v = None if state is None else np.exp(state - np.max(state))
        sub_plan, v = _plain_iterations(
            np.exp(-scaled), pa, qa, config.iterations, v, stop_tol
        )
        state = np.log(v)
    else:
        sub_plan, state = _log_iterations(
            -scaled, np.log(pa), np.log(qa), config.iterations, state, stop_tol
        )

    plan = np.zeros((m, n))
    plan[np.ix_(rows, cols)] = sub_plan
    total = plan.sum()
    if not abs(total - 1.0) <= _MASS_TOL:
        raise OverflowError(
            f"transport plan mass is {total:.10g}, expected 1: "
            + _beyond_float_potentials(scale)
        )
    row_sums = plan.sum(axis=1)
    col_sums = plan.sum(axis=0)
    residual = max(
        float(np.max(np.abs(row_sums - p))), float(np.max(np.abs(col_sums - q)))
    )
    return TransportPlan(matrix=plan), residual, state


def symmetric_scaling(
    kernel: np.ndarray, tol: float = 1e-8, max_iter: int = 10_000
) -> np.ndarray:
    """Diagonal ``d`` such that ``diag(d) kernel diag(d)`` is doubly stochastic.

    Uses the damped update ``d <- sqrt(d / (kernel d))``, the geometric mean of
    the current iterate and the plain fixed-point step, which keeps symmetric
    scaling from oscillating. Raises :class:`SinkhornConvergenceError` (with
    the last residual attached) if the row-sum residual does not drop below
    ``tol`` within ``max_iter`` updates.
    """
    kernel = _as_float_array(kernel, "kernel", 2)
    m, n = kernel.shape
    if m != n:
        raise ValueError("kernel must be square")
    if np.any(kernel < 0):
        raise ValueError("kernel entries must be nonnegative")
    if np.max(np.abs(kernel - kernel.T)) > 1e-12:
        raise ValueError("kernel must be symmetric")
    if np.any(kernel.sum(axis=1) <= 0):
        raise ValueError("kernel has an all-zero row; it cannot be scaled")

    d = np.ones(n)
    residual = np.inf
    for _ in range(max_iter):
        kd = kernel @ d
        if np.any(kd <= 0):
            raise SinkhornConvergenceError(
                "scaling iterate left the positive cone", residual=float(residual)
            )
        d = np.sqrt(d / kd)
        residual = float(np.max(np.abs(d * (kernel @ d) - 1.0)))
        if residual <= tol:
            return d
    raise SinkhornConvergenceError(
        f"symmetric scaling residual {residual:.3e} above tol {tol:.3e} "
        f"after {max_iter} iterations",
        residual=residual,
    )


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
