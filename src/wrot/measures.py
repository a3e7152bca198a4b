"""Discrete measures, transport plans, and displacement second moments.

The central quantity is the displacement second moment of a coupling: for a
transport plan ``g`` between point clouds ``S`` and ``T`` it is the d x d
positive semidefinite matrix ``sum_ij g_ij (s_i - t_j)(s_i - t_j)^T``. Robust
transport objectives are linear in this matrix, so every solver in the package
works through it rather than through pairwise cost matrices.

A :class:`FeatureGrouping` reshapes each point into a ``d1 x r`` matrix (after
a fixed permutation and zero padding) so that block-structured metrics reduce
to an ``r x r`` problem; :func:`displacement_second_moment` with ``grouping=``
is the matching reduced moment. With ``d1 = 1`` and the identity permutation
the grouped moment equals the full one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiscreteMeasure",
    "TransportPlan",
    "FeatureGrouping",
    "make_measure",
    "independent_coupling",
    "displacement_second_moment",
]

_MARGINAL_TOL = 1e-8
_MASS_TOL = 1e-10
_WEIGHT_SUM_TOL = 1e-12


def _as_float_array(x, name, ndim):
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _freeze(arr):
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """A weighted point cloud: ``points`` is m x d, ``weights`` sums to 1."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = _as_float_array(self.points, "points", 2)
        weights = _as_float_array(self.weights, "weights", 1)
        if points.shape[0] < 1:
            raise ValueError("a measure needs at least one support point")
        if weights.shape[0] != points.shape[0]:
            raise ValueError(
                f"weights has {weights.shape[0]} entries for {points.shape[0]} points"
            )
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(weights.sum() - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError("weights must sum to 1; use make_measure to normalize")
        object.__setattr__(self, "points", _freeze(points))
        object.__setattr__(self, "weights", _freeze(weights))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """A nonnegative m x n coupling with unit total mass.

    ``row_marginal`` and ``col_marginal`` default to the matrix's own row and
    column sums, so a plan constructed from any nonnegative unit-mass matrix
    is always internally consistent. Passing explicit marginals asserts that
    the matrix actually has them (within 1e-8).
    """

    matrix: np.ndarray
    row_marginal: np.ndarray = None
    col_marginal: np.ndarray = None

    def __post_init__(self):
        matrix = _as_float_array(self.matrix, "matrix", 2)
        if np.any(matrix < 0):
            raise ValueError("transport plan entries must be nonnegative")
        total = matrix.sum()
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"transport plan mass is {total!r}, expected 1")
        rows = matrix.sum(axis=1)
        cols = matrix.sum(axis=0)
        if self.row_marginal is None:
            row_marginal = rows
        else:
            row_marginal = _as_float_array(self.row_marginal, "row_marginal", 1)
            if row_marginal.shape[0] != matrix.shape[0]:
                raise ValueError("row_marginal length does not match the plan")
            if np.max(np.abs(rows - row_marginal)) > _MARGINAL_TOL:
                raise ValueError("plan row sums do not match row_marginal")
        if self.col_marginal is None:
            col_marginal = cols
        else:
            col_marginal = _as_float_array(self.col_marginal, "col_marginal", 1)
            if col_marginal.shape[0] != matrix.shape[1]:
                raise ValueError("col_marginal length does not match the plan")
            if np.max(np.abs(cols - col_marginal)) > _MARGINAL_TOL:
                raise ValueError("plan column sums do not match col_marginal")
        object.__setattr__(self, "matrix", _freeze(matrix))
        object.__setattr__(self, "row_marginal", _freeze(row_marginal))
        object.__setattr__(self, "col_marginal", _freeze(col_marginal))

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def _padded_dim(dim: int, group_count: int) -> int:
    """``d1 * r`` with ``d1 = ceil(dim / r)``: a grouping's permutation length."""
    if dim < 1 or group_count < 1:
        raise ValueError("dim and group_count must be positive")
    return -(-dim // group_count) * group_count


@dataclass(frozen=True, eq=False)
class FeatureGrouping:
    """A partition of (padded) feature coordinates into r groups of size d1.

    ``rows_per_group`` (d1 = ceil(dim / r)) and ``pad`` (d1 * r - dim) follow
    from ``dim`` and ``group_count``. ``permutation`` is a bijection on the
    ``padded_dim = dim + pad`` indices; a feature vector is zero-padded,
    permuted, and filled column-major into a ``d1 x r`` matrix, so group ``g``
    holds permuted coordinates ``g*d1 .. (g+1)*d1 - 1``. ``seed`` is
    bookkeeping for serialization (-1 when hand-built).
    """

    dim: int
    group_count: int
    permutation: np.ndarray
    seed: int = -1

    def __post_init__(self):
        n = _padded_dim(self.dim, self.group_count)
        if self.pad >= self.rows_per_group:
            raise ValueError(
                f"dim={self.dim} in {self.group_count} groups needs pad={self.pad} >= "
                f"rows_per_group={self.rows_per_group}; no group may be all padding"
            )
        perm = np.asarray(self.permutation, dtype=np.int64)
        if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
            raise ValueError(f"permutation must list each of the expected {n} indices once")
        object.__setattr__(self, "permutation", _freeze(perm))

    @property
    def padded_dim(self) -> int:
        return _padded_dim(self.dim, self.group_count)

    @property
    def rows_per_group(self) -> int:
        return self.padded_dim // self.group_count

    @property
    def pad(self) -> int:
        return self.padded_dim - self.dim


def make_measure(points, weights=None) -> DiscreteMeasure:
    """Build a measure from points, normalizing ``weights`` (uniform default)."""
    points = _as_float_array(points, "points", 2)
    if weights is None:
        m = points.shape[0]
        weights = np.full(m, 1.0 / m)
    else:
        weights = _as_float_array(weights, "weights", 1)
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        total = weights.sum()
        if total <= 0:
            raise ValueError("weights must have positive total mass")
        weights = weights / total
    return DiscreteMeasure(points=points, weights=weights)


def independent_coupling(src: DiscreteMeasure, tgt: DiscreteMeasure) -> TransportPlan:
    """The product coupling ``w_src w_tgt^T``; its marginals are exact."""
    matrix = np.outer(src.weights, tgt.weights)
    return TransportPlan(matrix=matrix, row_marginal=src.weights, col_marginal=tgt.weights)


def _check_simplex(w, name, size):
    """Validate a probability vector of the given length."""
    w = _as_float_array(w, name, 1)
    if w.shape[0] != size:
        raise ValueError(f"{name} has length {w.shape[0]}, expected {size}")
    if np.any(w < 0):
        raise ValueError(f"{name} must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-8:
        raise ValueError(f"{name} must sum to 1")
    return w


# ---------------------------------------------------------------------------
# Array-level kernels. These skip object validation and are shared with the
# solver loops, which call them once per iteration. Both take point arrays of
# shape (n, d1, k), each point a d1 x k matrix; plain (n, d) points are the
# d1 = 1 case and may be passed as they are.
# ---------------------------------------------------------------------------


def _moment_arrays(gamma: np.ndarray, src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    # sum_ij g_ij (S_i - T_j)^T (S_i - T_j) via the marginal decomposition
    # sum_i a_i S_i^T S_i + sum_j b_j T_j^T T_j - C - C^T, C = sum_ij g_ij S_i^T T_j.
    k = src.shape[-1]
    s = src.reshape(src.shape[0], -1)
    t = tgt.reshape(tgt.shape[0], -1)
    a = gamma.sum(axis=1)[:, None]
    b = gamma.sum(axis=0)[:, None]
    cross = s.reshape(-1, k).T @ (gamma @ t).reshape(-1, k)
    gram = (a * s).reshape(-1, k).T @ s.reshape(-1, k)
    gram += (b * t).reshape(-1, k).T @ t.reshape(-1, k)
    v = gram - cross - cross.T
    return 0.5 * (v + v.T)


def _pair_costs_full(src: np.ndarray, tgt: np.ndarray, metric: np.ndarray) -> np.ndarray:
    # Entry (i, j) is tr((S_i - T_j) M (S_i - T_j)^T) = e_i + e_j - 2 <S_i M, T_j>
    # for a symmetric metric M.
    k = metric.shape[0]
    s = src.reshape(src.shape[0], -1)
    sm = (src.reshape(-1, k) @ metric).reshape(s.shape)
    if tgt is src:
        cross = sm @ s.T
        es = et = np.diagonal(cross)
    else:
        t = tgt.reshape(tgt.shape[0], -1)
        cross = sm @ t.T
        es = np.sum(sm * s, axis=1)
        et = np.sum((tgt.reshape(-1, k) @ metric).reshape(t.shape) * t, axis=1)
    return es[:, None] + et[None, :] - 2.0 * cross


def _grouped_reshape(points: np.ndarray, grouping: FeatureGrouping) -> np.ndarray:
    """Permute, pad, and reshape an (n, d) array to a contiguous (n, d1, r)."""
    n = points.shape[0]
    if points.shape[1] != grouping.dim:
        raise ValueError(
            f"points have dimension {points.shape[1]}, grouping expects {grouping.dim}"
        )
    padded = np.concatenate([points, np.zeros((n, grouping.pad))], axis=1)
    permuted = padded[:, grouping.permutation]
    r, d1 = grouping.group_count, grouping.rows_per_group
    return np.ascontiguousarray(permuted.reshape(n, r, d1).transpose(0, 2, 1))


def _point_arrays(src, tgt, grouping=None):
    """Check that ``src`` and ``tgt`` share a dimension; return their point
    arrays, reshaped to (n, d1, r) when a grouping is given."""
    if src.dim != tgt.dim:
        raise ValueError(f"point dimensions differ: {src.dim} vs {tgt.dim}")
    if grouping is None:
        return src.points, tgt.points
    return _grouped_reshape(src.points, grouping), _grouped_reshape(tgt.points, grouping)


def _coupled_arrays(plan, src, tgt, grouping=None):
    """:func:`_point_arrays` after checking that ``plan`` couples ``src`` and
    ``tgt``."""
    if plan.shape != (src.size, tgt.size):
        raise ValueError(
            f"plan shape {plan.shape} does not match measures "
            f"({src.size}, {tgt.size})"
        )
    return _point_arrays(src, tgt, grouping)


def displacement_second_moment(
    plan: TransportPlan,
    src: DiscreteMeasure,
    tgt: DiscreteMeasure,
    grouping: FeatureGrouping | None = None,
) -> np.ndarray:
    """The second moment of displacements under ``plan``.

    Returns ``sum_ij plan_ij (s_i - t_j)(s_i - t_j)^T``, a symmetric positive
    semidefinite d x d matrix that is linear in the plan. With a grouping,
    each displacement is first reshaped to its ``d1 x r`` matrix ``D`` and
    the sum is of ``D^T D``, an r x r matrix. For block metrics of the form
    ``kron(B, I_d1)`` (on permuted, padded coordinates) the pairing identity
    ``<V, kron(B, I)> = <U, B>`` holds, where ``U`` is the reduced moment, so
    it carries all the information a grouped metric can see.
    """
    return _moment_arrays(plan.matrix, *_coupled_arrays(plan, src, tgt, grouping))
