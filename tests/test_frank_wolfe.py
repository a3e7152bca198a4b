import numpy as np
import pytest
from numpy.testing import assert_allclose

from wrot import (
    DSConfig,
    FWConfig,
    KLConfig,
    PNormConfig,
    SinkhornConfig,
    TransportPlan,
    adversarial_value,
    displacement_second_moment,
    exact_ot_small,
    gradient_wrt_plan,
    independent_coupling,
    make_grouping,
    make_measure,
    rot_distance,
    w22_distance,
)
from wrot.measures import FeatureGrouping


def two_point_instance():
    src = make_measure(np.array([[0.0, 0.0], [1.0, 1.0]]))
    tgt = make_measure(np.array([[1.0, 0.0], [0.0, 1.0]]))
    return src, tgt


def two_point_oracle_value(n_grid=200001):
    """Grid minimum of f(theta) = ||diag(2 theta, 1 - 2 theta)||_2."""
    theta = np.linspace(0.0, 0.5, n_grid)
    f = np.sqrt((2 * theta) ** 2 + (1 - 2 * theta) ** 2)
    return float(f.min())


def random_instance(rng, m, n, d):
    src = make_measure(rng.normal(size=(m, d)))
    tgt = make_measure(rng.normal(size=(n, d)))
    return src, tgt


def converged_config(metric, **overrides):
    # the entropic subproblem leaves a small bias in the duality gap, so the
    # tolerance cannot be pushed arbitrarily low
    defaults = dict(
        sinkhorn=SinkhornConfig(lambda_beta=0.05, iterations=400),
        max_iter=150,
        gap_tol=1e-6,
    )
    defaults.update(overrides)
    return FWConfig(metric=metric, **defaults)


class TestTwoPointInstance:
    def test_value_matches_grid_oracle(self):
        src, tgt = two_point_instance()
        result = rot_distance(src, tgt, FWConfig(metric=PNormConfig(k=1)))
        assert result.value == pytest.approx(two_point_oracle_value(), abs=1e-3)
        assert result.value == pytest.approx(np.sqrt(0.5), abs=1e-3)

    def test_optimal_plan_is_balanced(self):
        src, tgt = two_point_instance()
        result = rot_distance(
            src, tgt, converged_config(PNormConfig(k=1))
        )
        assert_allclose(result.plan.matrix, np.full((2, 2), 0.25), atol=1e-6)
        assert result.converged

    def test_w22_is_one(self):
        src, tgt = two_point_instance()
        assert w22_distance(src, tgt) == pytest.approx(1.0, abs=1e-3)


class TestGradient:
    @pytest.mark.parametrize(
        "metric",
        [
            PNormConfig(k=1),
            PNormConfig(k=2),
            KLConfig(lambda_m=1.0),
            DSConfig(lambda_m=1.0, scaling_tol=1e-12),
        ],
        ids=["pnorm1", "pnorm2", "kl", "ds"],
    )
    def test_matches_directional_derivative(self, metric):
        """Danskin direction check: f(gamma + h delta) - f(gamma) ~ h <g, delta>."""
        rng = np.random.default_rng(8)
        src, tgt = random_instance(rng, 3, 4, 3)
        base = independent_coupling(src, tgt)
        vertex, _ = exact_ot_small(
            rng.uniform(size=(3, 4)), src.weights, tgt.weights
        )
        delta = vertex.matrix - base.matrix

        def objective(gamma):
            plan = TransportPlan(gamma, src.weights, tgt.weights)
            moment = displacement_second_moment(plan, src, tgt)
            return adversarial_value(moment, metric).value

        worst_case = adversarial_value(
            displacement_second_moment(base, src, tgt), metric
        )
        grad = gradient_wrt_plan(base, src, tgt, worst_case)
        h = 1e-6
        fd = (objective(base.matrix + h * delta) - objective(base.matrix - h * delta)) / (2 * h)
        analytic = float(np.sum(grad * delta))
        assert fd == pytest.approx(analytic, rel=1e-4)

    def test_grouped_gradient_matches_kron_expansion(self):
        """Grouped pair costs equal full costs under the expanded metric."""
        rng = np.random.default_rng(9)
        d, r = 5, 2
        grouping = make_grouping(d, r, seed=7)
        src, tgt = random_instance(rng, 3, 4, d)
        plan = independent_coupling(src, tgt)
        u = displacement_second_moment(plan, src, tgt, grouping)
        from wrot.metric_solvers import pnorm_metric

        small = pnorm_metric(u, k=1)
        grad_grouped = gradient_wrt_plan(
            plan, src, tgt, small, grouping=grouping
        )

        def transform(points):
            padded = np.concatenate(
                [points, np.zeros((points.shape[0], grouping.pad))], axis=1
            )
            return padded[:, grouping.permutation]

        src_p = make_measure(transform(src.points), src.weights)
        tgt_p = make_measure(transform(tgt.points), tgt.weights)
        big = np.kron(small.matrix, np.eye(grouping.rows_per_group))
        grad_full = np.zeros((3, 4))
        for i in range(3):
            for j in range(4):
                diff = src_p.points[i] - tgt_p.points[j]
                grad_full[i, j] = diff @ big @ diff
        assert_allclose(grad_grouped, grad_full, atol=1e-10)


class TestConvergence:
    def test_gap_history_decreases(self):
        rng = np.random.default_rng(10)
        src, tgt = random_instance(rng, 4, 5, 4)
        result = rot_distance(src, tgt, converged_config(PNormConfig(k=1)))
        gaps = result.gap_history
        assert len(gaps) == result.iterations_used
        assert gaps[-1] < gaps[0]
        assert result.converged

    def test_identical_measures_near_zero(self):
        points = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
        m = make_measure(points)
        result = rot_distance(m, m, FWConfig(metric=PNormConfig(k=1)))
        assert result.value <= 1e-3

    def test_symmetry(self):
        """Swapping the measures transposes the whole trajectory: the start
        is the transposed product coupling, the moment is unchanged, and the
        entropic subproblem commutes with transposition once its own updates
        have converged."""
        rng = np.random.default_rng(11)
        src, tgt = random_instance(rng, 3, 5, 4)
        cfg = converged_config(PNormConfig(k=1), max_iter=60)
        ab = rot_distance(src, tgt, cfg)
        ba = rot_distance(tgt, src, cfg)
        assert ab.iterations_used == ba.iterations_used
        assert ab.value == pytest.approx(ba.value, abs=1e-8)
        assert_allclose(ab.plan.matrix, ba.plan.matrix.T, atol=1e-8)

    def test_objective_convex_in_plan(self):
        rng = np.random.default_rng(12)
        src, tgt = random_instance(rng, 3, 4, 3)
        g1 = independent_coupling(src, tgt).matrix
        vertex, _ = exact_ot_small(rng.uniform(size=(3, 4)), src.weights, tgt.weights)
        g2 = vertex.matrix
        for metric in (PNormConfig(k=1), KLConfig(lambda_m=1.0),
                       DSConfig(lambda_m=1.0, scaling_tol=1e-10)):
            def f(gamma):
                plan = TransportPlan(gamma, src.weights, tgt.weights)
                return adversarial_value(
                    displacement_second_moment(plan, src, tgt), metric
                ).value

            mid = f(0.5 * g1 + 0.5 * g2)
            assert mid <= 0.5 * f(g1) + 0.5 * f(g2) + 1e-10

    def test_nonnegative_gaps(self):
        rng = np.random.default_rng(13)
        src, tgt = random_instance(rng, 4, 4, 3)
        result = rot_distance(src, tgt, converged_config(KLConfig(lambda_m=2.0)))
        assert all(g >= -1e-12 for g in result.gap_history)

    def test_cost_beyond_float_potentials_names_the_fix(self):
        """KL at lambda_m 0.01 puts max|cost| / lambda_beta near 1e146, past
        2**53, where a float64 exponent cannot resolve a step of 1; the error
        says so."""
        rng = np.random.default_rng(0)
        src = make_measure(rng.normal(size=(12, 8)))
        tgt = make_measure(rng.normal(size=(9, 8)), rng.random(9) + 0.1)
        cfg = FWConfig(
            metric=KLConfig(lambda_m=0.01),
            sinkhorn=SinkhornConfig(lambda_beta=0.02, iterations=10),
            max_iter=15,
        )
        with pytest.raises(
            OverflowError,
            match=r"max\|cost\|/lambda_beta = .*raise lambda_beta, or lambda_m",
        ):
            rot_distance(src, tgt, cfg)

    def test_scaled_cost_near_6e14_solves(self):
        """KL at lambda_m 1 puts max|cost| / lambda_beta near 6e14, below
        2**53: the oracle's plans keep their mass at 1, and the solve returns
        a plan whose column sums are the target weights."""
        rng = np.random.default_rng(20)
        src = make_measure(rng.normal(size=(20, 5)) * 3)
        tgt = make_measure(rng.normal(size=(15, 5)) * 3 + 0.5, rng.random(15) + 0.1)
        cfg = FWConfig(KLConfig(lambda_m=1.0), SinkhornConfig(0.02, 10), max_iter=15)
        result = rot_distance(src, tgt, cfg)
        assert result.value == pytest.approx(152050.5436, rel=1e-9)
        plan = result.plan.matrix
        assert_allclose(plan.sum(axis=0), tgt.weights, rtol=0.0, atol=1e-15)
        assert plan.sum() == pytest.approx(1.0, abs=1e-14)


class TestReturnedWorstCase:
    """The returned metric and value are the worst case at the returned plan,
    whether the loop stops on the gap or at ``max_iter``."""

    @pytest.mark.parametrize("grouped", [False, True], ids=["plain", "grouped"])
    @pytest.mark.parametrize("capped", [False, True], ids=["converged", "capped"])
    def test_metric_and_value_at_returned_plan(self, grouped, capped):
        rng = np.random.default_rng(10)
        src, tgt = random_instance(rng, 4, 5, 4)
        grouping = make_grouping(4, 2, seed=3) if grouped else None
        metric = PNormConfig(k=1)
        cfg = converged_config(metric, grouping=grouping)
        if capped:
            # one step: the returned worst case must be the one after it
            cfg = FWConfig(metric=metric, sinkhorn=cfg.sinkhorn, max_iter=1, grouping=grouping)
        result = rot_distance(src, tgt, cfg)
        assert result.converged is not capped
        assert result.iterations_used == (1 if capped else len(result.gap_history))
        if grouped:
            moment = displacement_second_moment(result.plan, src, tgt, grouping)
        else:
            moment = displacement_second_moment(result.plan, src, tgt)
        want = adversarial_value(moment, metric)
        assert result.value == pytest.approx(want.value, rel=1e-12)
        assert_allclose(result.metric.matrix, want.matrix, rtol=1e-12, atol=1e-15)


class TestGrouping:
    def test_trivial_grouping_matches_full_trajectory(self):
        """rows_per_group=1 with identity permutation reproduces the
        ungrouped solve exactly."""
        rng = np.random.default_rng(14)
        src, tgt = random_instance(rng, 3, 4, 4)
        trivial = FeatureGrouping(
            dim=4, group_count=4,
            permutation=np.arange(4),
        )
        full = rot_distance(src, tgt, converged_config(PNormConfig(k=1)))
        grouped = rot_distance(
            src, tgt, converged_config(PNormConfig(k=1), grouping=trivial)
        )
        assert grouped.value == pytest.approx(full.value, abs=1e-9)
        assert_allclose(grouped.plan.matrix, full.plan.matrix, atol=1e-9)
        assert_allclose(grouped.gap_history, full.gap_history, atol=1e-9)

    def test_grouped_metric_shape(self):
        rng = np.random.default_rng(15)
        src, tgt = random_instance(rng, 3, 4, 10)
        grouping = make_grouping(10, 5, seed=2)
        result = rot_distance(
            src, tgt, converged_config(PNormConfig(k=1), grouping=grouping)
        )
        assert result.metric.matrix.shape == (5, 5)
        assert result.value > 0


class TestW22:
    def test_matches_exact_lp_at_sharp_regularization(self):
        rng = np.random.default_rng(16)
        src, tgt = random_instance(rng, 3, 3, 2)
        cost = np.array(
            [
                [np.sum((s - t) ** 2) for t in tgt.points]
                for s in src.points
            ]
        )
        _, lp_value = exact_ot_small(cost, src.weights, tgt.weights)
        value = w22_distance(
            src, tgt, SinkhornConfig(lambda_beta=0.005, iterations=8000)
        )
        # no one-sided bound here: at finite iteration counts the plan is
        # only approximately feasible, so its cost can sit slightly below
        # the exact optimum
        assert value == pytest.approx(lp_value, abs=1e-3)

    def test_sandwich_bounds_small_sample(self):
        """W2^2 / d^(1/p) <= W_P <= W2^2 on random instances."""
        rng = np.random.default_rng(17)
        d = 6
        for k in (1, 2):
            p = 2 * k / (2 * k - 1)
            for _ in range(2):
                src, tgt = random_instance(rng, 4, 4, d)
                cfg = FWConfig(
                    metric=PNormConfig(k=k),
                    sinkhorn=SinkhornConfig(lambda_beta=0.02, iterations=400),
                    max_iter=80,
                    gap_tol=1e-5,
                )
                wp = rot_distance(src, tgt, cfg).value
                w22 = w22_distance(
                    src, tgt, SinkhornConfig(lambda_beta=0.02, iterations=400)
                )
                assert wp <= w22 + 1e-6
                assert wp >= w22 / d ** (1.0 / p) - 1e-6
