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
    "displacement_second_moment",
]

_MASS_TOL = 1e-10
_WEIGHT_SUM_TOL = 1e-12


def _as_float_array(x, name, ndim):
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _check_simplex(w, name, size):
    """Validate a probability vector of the given length, summing to 1
    within 1e-12."""
    w = _as_float_array(w, name, 1)
    if w.shape[0] != size:
        raise ValueError(f"{name} has length {w.shape[0]}, expected {size}")
    if (w < 0).any():
        raise ValueError(f"{name} must be nonnegative")
    if abs(w.sum() - 1.0) > _WEIGHT_SUM_TOL:
        raise ValueError(f"{name} must sum to 1")
    return w


def _check_count(value, name, least=1):
    """A count setting: an ``int`` or numpy integer, not a ``bool``, at
    least ``least`` (a seed: 0)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")


def _check_real(value, name, positive=True):
    """A real setting: a finite number, not a ``bool``, that is positive
    (``positive=False``: nonnegative)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not -np.inf < value < np.inf:
        raise ValueError(f"{name} must be finite, got {value!r}")
    if value < 0 or (positive and value == 0):
        raise ValueError(f"{name} must be {'positive' if positive else 'nonnegative'}")


def _check_config(value, name, kind, optional=False):
    """A nested config setting: an instance of ``kind``, a class or a union of
    classes (``optional``: or ``None``)."""
    if not (isinstance(value, kind) or (optional and value is None)):
        names = [k.__name__ for k in getattr(kind, "__args__", (kind,))] + ["None"] * optional
        raise ValueError(f"{name} must be a {' or '.join(names)}, got {value!r}")


def _check_points(points):
    points = _as_float_array(points, "points", 2)
    if points.shape[0] < 1:
        raise ValueError("a measure needs at least one support point")
    return points


def _freeze(arr, source=None):
    """``arr`` as a read-only C array. ``source`` is the value the caller
    passed; an ``arr`` that is it, or a view of any array, is copied first,
    so the caller's array stays writeable and its writes miss the field."""
    arr = np.ascontiguousarray(arr)
    if arr is source or arr.base is not None:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """A weighted point cloud: ``points`` is m x d, ``weights`` sums to 1
    within 1e-12 or is refused (:func:`make_measure` normalizes)."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = _check_points(self.points)
        weights = _check_simplex(self.weights, "weights", points.shape[0])
        object.__setattr__(self, "points", _freeze(points, self.points))
        object.__setattr__(self, "weights", _freeze(weights, self.weights))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """A nonnegative m x n coupling with unit total mass (within 1e-10).

    Its marginals are the matrix's own row and column sums, which the plan
    does not check against any weights.
    """

    matrix: np.ndarray

    def __post_init__(self):
        matrix = _as_float_array(self.matrix, "matrix", 2)
        if np.any(matrix < 0):
            raise ValueError("transport plan entries must be nonnegative")
        total = matrix.sum()
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"transport plan mass is {total!r}, expected 1")
        object.__setattr__(self, "matrix", _freeze(matrix, self.matrix))

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def _padded_dim(dim: int, group_count: int) -> int:
    """``d1 * r`` with ``d1 = ceil(dim / r)``: a grouping's permutation length."""
    _check_count(dim, "dim")
    _check_count(group_count, "group_count")
    return -(-dim // group_count) * group_count


@dataclass(frozen=True, eq=False)
class FeatureGrouping:
    """A partition of (padded) feature coordinates into r groups of size d1.

    ``rows_per_group`` (d1 = ceil(dim / r)) and ``pad`` (d1 * r - dim) follow
    from ``dim`` and ``group_count``. ``permutation`` is a bijection on the
    ``padded_dim = dim + pad`` indices; a feature vector is zero-padded,
    permuted, and filled column-major into a ``d1 x r`` matrix, so group ``g``
    holds permuted coordinates ``g*d1 .. (g+1)*d1 - 1``.
    """

    dim: int
    group_count: int
    permutation: np.ndarray

    def __post_init__(self):
        n = _padded_dim(self.dim, self.group_count)
        if self.pad >= self.rows_per_group:
            raise ValueError(
                f"dim={self.dim} in {self.group_count} groups needs pad={self.pad} >= "
                f"rows_per_group={self.rows_per_group}; no group may be all padding"
            )
        perm = np.asarray(self.permutation)
        valid = perm.dtype.kind in "iu" and perm.shape == (n,)
        if not (valid and np.array_equal(np.sort(perm), np.arange(n))):
            raise ValueError(f"permutation must be the expected {n} integer indices, each once")
        object.__setattr__(self, "permutation", _freeze(perm.astype(np.int64), self.permutation))

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
    points = _check_points(points)
    w = np.ones(points.shape[0]) if weights is None else _as_float_array(weights, "weights", 1)
    with np.errstate(over="ignore"):  # a sum past the float range: scale by the largest
        w = w / w.max() if w.sum() == np.inf else w
    total = w.sum()
    if not total > 0:
        raise ValueError("weights must have positive total mass")
    return DiscreteMeasure(points, w / total)


# ---------------------------------------------------------------------------
# Array-level kernels. These skip validation and serve the solver loops,
# once per iteration, on arrays the package built. Both take points of shape
# (n, d1, k), each a d1 x k matrix; plain (n, d) points are the d1 = 1 case.
# The moment is returned exactly symmetric.
# ---------------------------------------------------------------------------


def _moment_arrays(gamma: np.ndarray, src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    k = src.shape[-1]
    if tgt is src:
        # sum_ij g_ij (S_i - S_j)^T (S_i - S_j) = sum_ij W_ij S_i^T S_j, W the
        # Laplacian of g + g^T: self-pairs drop out exactly, not by cancelling.
        w = -(gamma + gamma.T)
        diagonal = w.reshape(-1)[:: w.shape[0] + 1]  # a view: w is a new C array
        diagonal[:] = 0.0
        diagonal[:] = -w.sum(axis=1)
        v = src.reshape(-1, k).T @ (w @ src.reshape(src.shape[0], -1)).reshape(-1, k)
        return 0.5 * (v + v.T)
    # sum_i a_i S_i^T S_i + sum_j b_j T_j^T T_j - C - C^T, C = sum_ij g_ij S_i^T T_j
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
        es = et = cross.diagonal()
    else:
        t = tgt.reshape(tgt.shape[0], -1)
        cross = sm @ t.T
        es = (sm * s).sum(axis=1)
        et = ((tgt.reshape(-1, k) @ metric).reshape(t.shape) * t).sum(axis=1)
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
    """Check that ``src`` and ``tgt`` are measures of one dimension and that
    ``grouping`` is a :class:`FeatureGrouping` or ``None``; return their point arrays,
    reshaped to (n, d1, r) when a grouping is given. Both are shifted
    by the source's mean: moments and pair costs are translation invariant,
    and centred clouds keep their Grams from cancelling far from the origin."""
    _check_config(src, "src", DiscreteMeasure)
    _check_config(tgt, "tgt", DiscreteMeasure)
    if src.dim != tgt.dim:
        raise ValueError(f"point dimensions differ: {src.dim} vs {tgt.dim}")
    _check_config(grouping, "grouping", FeatureGrouping, optional=True)
    centre = src.weights @ src.points
    arrays = [m.points - centre for m in ((src,) if tgt is src else (src, tgt))]
    if grouping is not None:
        arrays = [_grouped_reshape(a, grouping) for a in arrays]
    return arrays[0], arrays[-1]


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
    _check_config(plan, "plan", TransportPlan)
    arrays = _point_arrays(src, tgt, grouping)
    if plan.shape != (src.size, tgt.size):
        raise ValueError(
            f"plan shape {plan.shape} does not match measures ({src.size}, {tgt.size})"
        )
    return _moment_arrays(plan.matrix, *arrays)
