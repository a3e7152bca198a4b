import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wrot import (
    DiscreteMeasure,
    FeatureGrouping,
    TransportPlan,
    displacement_second_moment,
    make_grouping,
    make_measure,
)
from wrot.measures import _grouped_reshape, _moment_arrays, _pair_costs_full


def brute_force_moment(gamma, src, tgt):
    """Direct O(m n d^2) accumulation of displacement outer products."""
    d = src.shape[1]
    out = np.zeros((d, d))
    for i in range(src.shape[0]):
        for j in range(tgt.shape[0]):
            diff = src[i] - tgt[j]
            out += gamma[i, j] * np.outer(diff, diff)
    return out


def random_instance(rng, m, n, d):
    src = make_measure(rng.normal(size=(m, d)), rng.uniform(0.5, 1.5, size=m))
    tgt = make_measure(rng.normal(size=(n, d)), rng.uniform(0.5, 1.5, size=n))
    return src, tgt


class TestDisplacementMoment:
    def test_matches_brute_force(self):
        """The vectorized moment equals the direct double-sum accumulation."""
        rng = np.random.default_rng(42)
        for _ in range(10):
            src, tgt = random_instance(rng, 5, 7, 4)
            plan = TransportPlan(matrix=np.outer(src.weights, tgt.weights))
            expected = brute_force_moment(plan.matrix, src.points, tgt.points)
            got = displacement_second_moment(plan, src, tgt)
            assert_allclose(got, expected, atol=1e-12)

    def test_two_point_diagonal_family(self):
        """The 2x2 cross instance gives diag(2*theta, 1 - 2*theta)."""
        src = make_measure(np.array([[0.0, 0.0], [1.0, 1.0]]))
        tgt = make_measure(np.array([[1.0, 0.0], [0.0, 1.0]]))
        for theta in (0.0, 0.1, 0.25, 0.5):
            gamma = np.array([[theta, 0.5 - theta], [0.5 - theta, theta]])
            plan = TransportPlan(matrix=gamma)
            v = displacement_second_moment(plan, src, tgt)
            assert_allclose(v, np.diag([2 * theta, 1 - 2 * theta]), atol=1e-14)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            src, tgt = random_instance(rng, 4, 6, 5)
            plan = TransportPlan(matrix=np.outer(src.weights, tgt.weights))
            v = displacement_second_moment(plan, src, tgt)
            assert_allclose(v, v.T, atol=1e-14)
            assert np.linalg.eigvalsh(v).min() >= -1e-10

    def test_linear_in_plan(self):
        """Mixing plans mixes moments: the map is linear in the coupling."""
        rng = np.random.default_rng(3)
        src, tgt = random_instance(rng, 3, 4, 3)
        p1 = TransportPlan(matrix=np.outer(src.weights, tgt.weights)).matrix
        perm = np.zeros((3, 4))
        perm[0, 0] = perm[1, 1] = perm[2, 2] = 0.25
        perm[2, 3] = 0.25
        # rescale into a feasible plan with the same mass
        p2 = 0.5 * p1 + 0.5 * (perm / perm.sum())
        v_mix = displacement_second_moment(
            TransportPlan(0.5 * p1 + 0.5 * p2), src, tgt
        )
        v1 = displacement_second_moment(TransportPlan(p1), src, tgt)
        v2 = displacement_second_moment(TransportPlan(p2), src, tgt)
        assert_allclose(v_mix, 0.5 * v1 + 0.5 * v2, atol=1e-12)

    def test_dimension_mismatch_raises(self):
        rng = np.random.default_rng(0)
        src = make_measure(rng.normal(size=(3, 4)))
        tgt = make_measure(rng.normal(size=(5, 4)))
        bad_tgt = make_measure(rng.normal(size=(5, 3)))
        plan = TransportPlan(matrix=np.outer(src.weights, tgt.weights))
        with pytest.raises(ValueError):
            displacement_second_moment(plan, src, bad_tgt)
        small = TransportPlan(
            matrix=np.outer(src.weights, make_measure(rng.normal(size=(2, 4))).weights)
        )
        with pytest.raises(ValueError):
            displacement_second_moment(small, src, tgt)


def identity_grouping(d):
    return FeatureGrouping(
        dim=d,
        group_count=d,
        permutation=np.arange(d),
    )


class TestGroupedMoment:
    def test_kronecker_pairing_identity(self):
        """<U, B> equals <V, kron(B, I)> with V on permuted padded points."""
        rng = np.random.default_rng(11)
        for d, r in ((6, 3), (6, 2), (8, 4)):
            grouping = make_grouping(d, r, seed=5)
            src, tgt = random_instance(rng, 4, 5, d)
            plan = TransportPlan(matrix=np.outer(src.weights, tgt.weights))
            u = displacement_second_moment(plan, src, tgt, grouping)

            def transform(points):
                padded = np.concatenate(
                    [points, np.zeros((points.shape[0], grouping.pad))], axis=1
                )
                return padded[:, grouping.permutation]

            src_p = make_measure(transform(src.points), src.weights)
            tgt_p = make_measure(transform(tgt.points), tgt.weights)
            v = displacement_second_moment(plan, src_p, tgt_p)
            b = rng.normal(size=(r, r))
            b = b + b.T
            big = np.kron(b, np.eye(grouping.rows_per_group))
            assert_allclose(np.sum(u * b), np.sum(v * big), atol=1e-10)

    def test_kronecker_identity_with_padding(self):
        rng = np.random.default_rng(12)
        grouping = make_grouping(5, 2, seed=3)
        assert grouping.pad == 1
        src, tgt = random_instance(rng, 3, 3, 5)
        plan = TransportPlan(matrix=np.outer(src.weights, tgt.weights))
        u = displacement_second_moment(plan, src, tgt, grouping)
        padded_src = np.concatenate([src.points, np.zeros((3, 1))], axis=1)
        padded_tgt = np.concatenate([tgt.points, np.zeros((3, 1))], axis=1)
        src_p = make_measure(padded_src[:, grouping.permutation], src.weights)
        tgt_p = make_measure(padded_tgt[:, grouping.permutation], tgt.weights)
        v = displacement_second_moment(plan, src_p, tgt_p)
        b = rng.normal(size=(2, 2))
        b = b + b.T
        big = np.kron(b, np.eye(3))
        assert_allclose(np.sum(u * b), np.sum(v * big), atol=1e-10)

    def test_trivial_grouping_matches_full(self):
        """One row per group with the identity permutation is the full moment."""
        rng = np.random.default_rng(13)
        src, tgt = random_instance(rng, 4, 6, 5)
        plan = TransportPlan(matrix=np.outer(src.weights, tgt.weights))
        full = displacement_second_moment(plan, src, tgt)
        grouped = displacement_second_moment(plan, src, tgt, identity_grouping(5))
        assert_allclose(grouped, full, atol=1e-12)

    def test_grouped_psd(self):
        rng = np.random.default_rng(14)
        grouping = make_grouping(7, 3, seed=1)
        src, tgt = random_instance(rng, 5, 4, 7)
        plan = TransportPlan(matrix=np.outer(src.weights, tgt.weights))
        u = displacement_second_moment(plan, src, tgt, grouping)
        assert np.linalg.eigvalsh(u).min() >= -1e-10


class TestArrayKernels:
    """The moment and pair-cost kernels against per-pair sums, for plain
    (n, d) points and (n, d1, r) arrays, and with ``tgt is src``."""

    @staticmethod
    def arrays(rng, shape_src, shape_tgt, same):
        src = rng.normal(size=shape_src)
        tgt = src if same else rng.normal(size=shape_tgt)
        gamma = rng.uniform(size=(src.shape[0], tgt.shape[0]))
        return gamma / gamma.sum(), src, tgt

    @staticmethod
    def pair_matrices(src, tgt):
        # each point as a d1 x k matrix; plain points are single rows
        k = src.shape[-1]
        return src.reshape(src.shape[0], -1, k), tgt.reshape(tgt.shape[0], -1, k)

    CASES = [
        ((4, 3), (5, 3), False),
        ((4, 3), None, True),
        ((4, 2, 3), (5, 2, 3), False),
        ((5, 3, 2), None, True),
    ]
    IDS = ["points", "points-self", "reshaped", "reshaped-self"]

    @pytest.mark.parametrize("shape_src,shape_tgt,same", CASES, ids=IDS)
    def test_moment_matches_pair_sum(self, shape_src, shape_tgt, same):
        rng = np.random.default_rng(40)
        gamma, src, tgt = self.arrays(rng, shape_src, shape_tgt, same)
        s3, t3 = self.pair_matrices(src, tgt)
        want = np.zeros((src.shape[-1],) * 2)
        for i in range(len(s3)):
            for j in range(len(t3)):
                diff = s3[i] - t3[j]
                want += gamma[i, j] * diff.T @ diff
        assert_allclose(_moment_arrays(gamma, src, tgt), want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("off_mass", [1e-14, 1e-18])
    def test_moment_at_near_identity_plan(self, off_mass):
        """At a plan that is the identity matching up to ``off_mass`` spread
        off the diagonal, the moment of three labels in two groups keeps its
        relative accuracy: the self-pairs' Gram terms no longer cancel."""
        rng = np.random.default_rng(8)
        emb = rng.normal(size=(3, 3))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        points = _grouped_reshape(emb, make_grouping(3, 2, seed=0))
        off = rng.uniform(size=(3, 3))
        np.fill_diagonal(off, 0.0)
        gamma = np.diag([0.2, 0.3, 0.5]) + off * (off_mass / off.sum())
        diff = points[:, None] - points[None, :]
        want = np.einsum("ij,ijak,ijal->kl", gamma, diff, diff)
        got = _moment_arrays(gamma, points, points)
        assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("shape_src,shape_tgt,same", CASES, ids=IDS)
    def test_pair_costs_match_pair_sum(self, shape_src, shape_tgt, same):
        rng = np.random.default_rng(41)
        _, src, tgt = self.arrays(rng, shape_src, shape_tgt, same)
        k = src.shape[-1]
        root = rng.normal(size=(k, k))
        metric = root @ root.T
        s3, t3 = self.pair_matrices(src, tgt)
        want = np.array(
            [[np.trace((a - b) @ metric @ (a - b).T) for b in t3] for a in s3]
        )
        assert_allclose(_pair_costs_full(src, tgt, metric), want, rtol=1e-12, atol=1e-12)


class TestMeasureTypes:
    def test_make_measure_normalizes(self):
        m = make_measure(np.zeros((3, 2)), np.array([2.0, 1.0, 1.0]))
        assert_allclose(m.weights, [0.5, 0.25, 0.25])
        uniform = make_measure(np.zeros((4, 2)))
        assert_allclose(uniform.weights, 0.25)

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([1.0, -0.5], "must be nonnegative"),
            ([2.0, -1.0], "must be nonnegative"),
            ([0.0, 0.0], "must have positive total mass"),
            ([1.0, -1.0], "must have positive total mass"),
            ([-1.0, -2.0], "must have positive total mass"),
            ([1.0, -1.0, 1.0], "has length 3, expected 2"),
        ],
    )
    def test_make_measure_rejects_bad_weights(self, weights, message):
        """A total that is not positive is refused before normalising; the
        normalised vector's length and signs are :class:`DiscreteMeasure`'s
        to check, in that order."""
        with pytest.raises(ValueError, match=f"^weights {message}$"):
            make_measure(np.zeros((2, 2)), np.array(weights))

    def test_make_measure_normalizes_an_overflowing_total(self):
        """Finite weights whose sum overflows are scaled by the largest before
        normalising, with no overflow warning; a finite total is divided as
        it is."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = make_measure(np.zeros((2, 2)), [1e308, 1e308])
            finite = make_measure(np.zeros((3, 2)), [1e307, 3e307, 1.0])
        assert m.weights.tolist() == [0.5, 0.5]
        w = np.array([1e307, 3e307, 1.0])
        assert np.array_equal(finite.weights, w / w.sum())

    def test_make_measure_rejects_an_empty_cloud(self):
        # with uniform and with explicit weights, refused before normalising
        for weights in (None, np.zeros(0)):
            with pytest.raises(ValueError, match="^a measure needs at least one support point$"):
                make_measure(np.zeros((0, 3)), weights)

    def test_measure_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(points=np.zeros((2, 2)), weights=np.array([0.6, 0.6]))

    def test_nonfinite_points_rejected(self):
        with pytest.raises(ValueError):
            make_measure(np.array([[np.nan, 0.0]]))

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            TransportPlan(matrix=np.array([[0.6, -0.1], [0.3, 0.2]]))
        with pytest.raises(ValueError):
            TransportPlan(matrix=np.full((2, 2), 0.3))

    def test_grouping_invariants(self):
        with pytest.raises(ValueError):
            # pad of 2 would mean an entire padded row in some group
            FeatureGrouping(
                dim=4, group_count=3,
                permutation=np.arange(6),
            )
        with pytest.raises(ValueError):
            FeatureGrouping(
                dim=4, group_count=2,
                permutation=np.array([0, 1, 2, 2]),
            )

    def test_make_grouping_deterministic(self):
        g1 = make_grouping(10, 3, seed=9)
        g2 = make_grouping(10, 3, seed=9)
        assert np.array_equal(g1.permutation, g2.permutation)
        g3 = make_grouping(10, 3, seed=10)
        assert not np.array_equal(g1.permutation, g3.permutation)

    def test_make_grouping_rejects_infeasible_padding(self):
        # d=7 into 5 groups needs pad 3 with only 2 rows per group
        with pytest.raises(ValueError):
            make_grouping(7, 5, seed=0)
