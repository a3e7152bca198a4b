"""Entropy-regularized transport solves and matrix scaling.

Two related fixed-point iterations live here. ``_entropic_plan`` solves the
entropy-regularized linear transport problem

    min_{plan in Pi(p, q)}  <plan, cost> + lambda_beta * sum plan * log(plan)

for both Frank-Wolfe oracles, that of the distance and that of the loss, by
alternating row/column scaling of the kernel ``exp(-cost / lambda_beta)``
in one round loop, and returns the plan's dual log-potentials with it. Its
first round is a plain multiplicative update while that kernel is
representable in float64; beyond, it is a log-domain round that absorbs the
dual potentials into the kernel. Every later round is a plain update of the
kernel's scalings, and one whose scalings leave a safe range is redone in
the log domain (Schmitzer, SIAM J. Sci. Comput. 2019). Past ``max|cost| /
lambda_beta = 2**53`` a float64 exponent no longer resolves a step of 1, and
the solve refuses.

The log-domain round keeps ``np.exp`` on its vector path, which it leaves
for exponents below about -708 at 10 to 100 times the cost. Its logsumexp
clips shifted terms at ``-_EXP_LIMIT``: each slice sums to at least 1, and
a term below ``exp(-700)`` is under half the float64 spacing at 1, so the
sum is the plain formula's bit for bit. It has one path, for finite slice
maxima, which the properties ``test_every_slice_maximum_the_solve_sees_is_finite``
and ``test_every_feature_selection_maximum_is_finite`` pin for both callers.
The absorbed kernel's exp truncates instead: entries whose exponent is
below ``-_EXP_LIMIT`` are set to 0. None of its entries is then
subnormal, which would slow every later round's mat-vecs about threefold.
The entries dropped are those of the round's plan below ``exp(-700)``,
far under the float64 spacing of its row and column sums.

``_symmetric_scaling`` finds the diagonal that makes a symmetric positive
kernel doubly stochastic; the doubly-stochastic metric solver calls it on the
kernel it builds.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .measures import _MASS_TOL, _as_float_array, _check_count, _check_real, _check_simplex

__all__ = [
    "SinkhornConfig",
    "SinkhornConvergenceError",
]

# exp(x) and exp(-x) stay normal float64 numbers for |x| <= 700 (the range
# ends near 708).
_EXP_LIMIT = 700.0
# the round loop keeps its scalings u, v within exp(+-_EXP_LIMIT / 2)
_SCALING_LOW = float(np.exp(-_EXP_LIMIT / 2))
_SCALING_HIGH = 1.0 / _SCALING_LOW


class SinkhornConvergenceError(RuntimeError):
    """Scaling did not converge; ``residual`` holds the last marginal error."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = float(residual)


@dataclass(frozen=True)
class SinkhornConfig:
    """Settings for every entropic Sinkhorn solve. Each solve, of the
    Frank-Wolfe oracle of the distance and of the loss alike, runs exactly
    ``iterations`` rounds of one loop. Its first round follows
    ``max|cost| / lambda_beta``: a plain update up to 700, a log-domain
    round absorbed into the kernel above it. Later rounds are plain; above
    ``2**53`` the solve raises ``OverflowError``."""

    lambda_beta: float = 0.2
    iterations: int = 10

    def __post_init__(self):
        _check_real(self.lambda_beta, "lambda_beta")
        _check_count(self.iterations, "iterations")


def _logsumexp(a, axis):
    """``log(sum(exp(a), axis))`` of a 1-d or 2-d ``a`` whose slice maxima
    are all finite (``test_every_slice_maximum_the_solve_sees_is_finite``
    and ``test_every_feature_selection_maximum_is_finite`` check both
    callers), shifted by the slice maximum.

    Shifted terms are clipped at ``-_EXP_LIMIT``, which keeps ``np.exp`` on
    its fast path. The result is that of the unclipped sum: the slice's
    maximum term is ``exp(0) = 1``, and every clipped term is below
    ``exp(-700) < 1e-304``, far under half the float64 spacing at 1. Plain
    numpy: ``scipy.special.logsumexp`` costs several times more per call on
    the small arrays the iterations pass it.
    """
    shift = np.maximum.reduce(a, axis=axis, keepdims=True)
    terms = a - shift
    np.maximum(terms, -_EXP_LIMIT, out=terms)
    return np.log(np.add.reduce(np.exp(terms, out=terms), axis=axis)) + shift.squeeze(axis)


def _exp(x):
    """``np.exp(x)`` where ``x >= -_EXP_LIMIT``, and exactly 0 below.

    The truncation keeps ``np.exp`` on its vector path, which it leaves for a
    whole block of entries once one of them is below about -708, and keeps
    subnormal numbers out of the kernel.
    """
    out = np.maximum(x, -_EXP_LIMIT)
    np.exp(out, out=out)
    out[x < -_EXP_LIMIT] = 0.0
    return out


def _absorbed_kernel(log_kernel, log_p, log_q, g):
    # One log-domain round from g (zero when None): f = log u, then g = log
    # v, folded into the kernel. Returns (exp(log_kernel + f + g), f, g);
    # the kernel's column sums are q, so its own scalings start at u = v = 1.
    f = log_p - _logsumexp(log_kernel if g is None else log_kernel + g[None, :], axis=1)
    row_scaled = log_kernel + f[:, None]
    g = log_q - _logsumexp(row_scaled, axis=0)
    return _exp(row_scaled + g[None, :]), f, g


# The validated weights p, q of one solve; the masks, values and logs of
# their positive entries; dense when every weight is positive.
_Marginals = namedtuple("_Marginals", "p q rows cols active_p active_q log_p log_q dense")


def _marginals(row_weights, col_weights, shape, names=("row_weights", "col_weights")):
    # Validated once per solve and shared by every oracle call in it.
    p = _check_simplex(row_weights, names[0], shape[0])
    q = _check_simplex(col_weights, names[1], shape[1])
    rows, cols = p > 0, q > 0
    dense = bool(rows.all() and cols.all())
    active_p, active_q = (p, q) if dense else (p[rows], q[cols])
    return _Marginals(
        p, q, rows, cols, active_p, active_q, np.log(active_p), np.log(active_q), dense
    )


def _in_range(scalings):
    # every scaling entry within exp(+-_EXP_LIMIT / 2); 0, inf and NaN fail
    both = np.concatenate(scalings)
    low, high = np.minimum.reduce(both), np.maximum.reduce(both)
    return bool(_SCALING_LOW <= low and high <= _SCALING_HIGH)


def _rounds(log_kernel, marginals, iterations, g=None, log_first=False):
    # Runs all `iterations` alternating rounds on exp(log_kernel) from the
    # column potential g (zero when None), each ending on a column update;
    # returns (plan, f, g), log plan = log_kernel + f + g. The first round is
    # a plain update from v = exp(g) or, with log_first, a log-domain round
    # that absorbs the potentials into the kernel. Every later round is a
    # plain update of the kernel's scalings (u, v); one whose scalings leave
    # exp(+-_EXP_LIMIT / 2), or reach 0, inf or NaN, is redone in the log
    # domain after log v joins g. The range is tested once per solve, on
    # every round's scalings: only if one left it do the rounds run again
    # from the start, testing each round. Testing the last (u, v) alone
    # would not do, as scalings can leave the range and return.
    p, q = marginals.active_p, marginals.active_q
    log_p, log_q = marginals.log_p, marginals.log_q
    if log_first:
        kernel, f, g = _absorbed_kernel(log_kernel, log_p, log_q, g)
        v = np.ones_like(q)
    else:
        kernel = np.exp(log_kernel)
        # v -> c v leaves the plan unchanged, so shifting g by its maximum
        # keeps exp(g) in range whatever domain produced it.
        v = np.ones_like(q) if g is None else np.exp(g - g.max())
        f = g = 0.0
    start = kernel, f, g, v
    # a zero or non-finite scaling fails the range test
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for checked in (False, True):
            kernel, f, g, v = start
            u = np.ones_like(p)
            scalings = [u]
            for _ in range(int(log_first), iterations):
                # ndarray.dot runs the BLAS gemv that @ runs, bit for bit,
                # with less dispatch overhead per call
                u_next = p / kernel.dot(v)
                v_next = q / kernel.T.dot(u_next)
                if not checked:
                    u, v = u_next, v_next
                    scalings += (u, v)
                elif _in_range((u_next, v_next)):
                    u, v = u_next, v_next
                else:
                    kernel, f, g = _absorbed_kernel(log_kernel, log_p, log_q, g + np.log(v))
                    u, v = np.ones_like(p), np.ones_like(q)
            if checked or _in_range(scalings):
                break
    kernel *= u[:, None]
    kernel *= v
    return kernel, f + np.log(u), g + np.log(v)


def _beyond_float_potentials(scale):
    return (
        f"max|cost|/lambda_beta = {scale:.3g} is beyond what float64 dual "
        "potentials resolve; raise lambda_beta, or lambda_m for the KL and DS "
        "adversaries"
    )


def _entropic_plan(cost, marginals, config, state=None):
    """The one Sinkhorn solve, on prepared :func:`_marginals`, with a warm
    start; both Frank-Wolfe oracles run it.

    Runs the one round loop, :func:`_rounds`, on the active block of
    ``cost / lambda_beta``. Its first round is plain when the block's
    ``max|cost| / lambda_beta`` is at most ``_EXP_LIMIT``, otherwise a log
    round that absorbs the potentials into the kernel; every later round is
    plain, and a log round is repeated only when the scalings leave
    ``exp(+-_EXP_LIMIT / 2)``. ``state`` is the column potential ``g = log
    v`` of a previous call with the same marginals; either first round reads
    it, so a warm start survives a domain switch. Every solve runs
    ``config.iterations`` rounds and ends on a column update. Returns
    ``(plan, f, g)``, ``plan`` an ndarray that in-range positive scalings
    and the mass check make a valid coupling, so it skips
    :class:`~wrot.measures.TransportPlan`. ``f`` and ``g`` are the active
    block's log-potentials, ``log plan = f + g - cost / lambda_beta``, finite
    where the plan underflows; ``g`` is the next call's ``state``. ``cost``
    is a 2-d float array of the marginals' shape; a non-finite entry raises
    ``ValueError``. Raises ``OverflowError`` before iterating when the scaled
    cost exceeds ``2**53``, where float64 potentials no longer resolve the
    kernel's exponents, and after iterating if the plan's mass is not 1.
    """
    m, n = cost.shape
    if not marginals.dense:
        # the scale below sees only the active block
        _as_float_array(cost, "cost", 2)
        cost = cost[np.ix_(marginals.rows, marginals.cols)]
    log_kernel = cost / -config.lambda_beta
    scale = float(np.maximum.reduce(np.abs(log_kernel), axis=None))
    if not scale <= 2.0**53:
        # a NaN or inf scale comes from a non-finite cost, or from a finite
        # one past the bound
        _as_float_array(cost, "cost", 2)
        # Past 2**53 a float64 exponent no longer resolves a step of 1, so
        # the kernel exp(-cost / lambda_beta + f + g) carries no information.
        raise OverflowError(_beyond_float_potentials(scale))
    plan, f, g = _rounds(log_kernel, marginals, config.iterations, state, scale > _EXP_LIMIT)
    if not marginals.dense:
        sub_plan, plan = plan, np.zeros((m, n))
        plan[np.ix_(marginals.rows, marginals.cols)] = sub_plan
    total = plan.sum()
    if not abs(total - 1.0) <= _MASS_TOL:
        raise OverflowError(
            f"transport plan mass is {total:.10g}, expected 1: "
            + _beyond_float_potentials(scale)
        )
    return plan, f, g


def _symmetric_scaling(kernel, tol, max_iter):
    # Diagonal d such that diag(d) kernel diag(d) is doubly stochastic, for a
    # finite, nonnegative, symmetric kernel (the caller's to ensure). The
    # damped update d <- sqrt(d / (kernel d)), the geometric mean of the
    # iterate and the plain fixed-point step, keeps symmetric scaling from
    # oscillating. Each residual's kernel @ d is the next update's, so an
    # update is one mat-vec. Raises ValueError for an all-zero row, and
    # SinkhornConvergenceError, with the last residual attached, if the
    # row-sum residual is not at most tol after max_iter updates.
    d = np.ones(kernel.shape[0])
    kd = kernel @ d  # the row sums
    if np.fmin.reduce(kd) <= 0:
        raise ValueError("kernel has an all-zero row; it cannot be scaled")
    residual = np.inf
    for _ in range(max_iter):
        # fmin skips NaN entries, as an entrywise kd <= 0 test would
        if np.fmin.reduce(kd) <= 0:
            raise SinkhornConvergenceError(
                "scaling iterate left the positive cone", residual=float(residual)
            )
        d = np.sqrt(d / kd)
        kd = kernel @ d
        residual = float(np.maximum.reduce(np.abs(d * kd - 1.0)))
        if residual <= tol:
            return d
    raise SinkhornConvergenceError(
        f"symmetric scaling residual {residual:.3e} above tol {tol:.3e} "
        f"after {max_iter} iterations",
        residual=residual,
    )

