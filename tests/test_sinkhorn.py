import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import logsumexp as scipy_logsumexp

from wrot import (
    SinkhornConfig,
    SinkhornConvergenceError,
    entropic_ot,
    exact_ot_small,
    sinkhorn,
    symmetric_scaling,
)


def exact_2x2_value(cost, p, q):
    """Exact 2x2 transport value.

    The feasible set is the segment gamma[0,0] = theta over
    [max(0, p0+q0-1), min(p0, q0)]; the objective is linear in theta,
    so the minimum sits at an endpoint.
    """
    lo = max(0.0, p[0] + q[0] - 1.0)
    hi = min(p[0], q[0])

    def value(theta):
        gamma = np.array(
            [
                [theta, p[0] - theta],
                [q[0] - theta, 1.0 - p[0] - q[0] + theta],
            ]
        )
        return float(np.sum(gamma * cost))

    return min(value(lo), value(hi))


def extended_log_rounds(cost, p, q, config):
    """Log-domain rounds in np.longdouble from the float64 scaled cost."""

    def logsumexp(a, axis):
        shift = a.max(axis=axis, keepdims=True)
        return np.log(np.exp(a - shift).sum(axis=axis)) + np.squeeze(shift, axis)

    log_kernel = (-(cost / config.lambda_beta)).astype(np.longdouble)
    log_p = np.log(p.astype(np.longdouble))
    log_q = np.log(q.astype(np.longdouble))
    g = np.zeros_like(log_q)
    for _ in range(config.iterations):
        f = log_p - logsumexp(log_kernel + g[None, :], 1)
        g = log_q - logsumexp(log_kernel + f[:, None], 0)
    return np.exp(log_kernel + f[:, None] + g[None, :])


class TestEntropicOT:
    def test_marginals_match_at_convergence(self):
        rng = np.random.default_rng(0)
        cost = rng.uniform(size=(5, 7))
        p = rng.uniform(0.5, 1.5, 5)
        p /= p.sum()
        q = rng.uniform(0.5, 1.5, 7)
        q /= q.sum()
        cfg = SinkhornConfig(lambda_beta=0.1, iterations=2000)
        plan, residual = entropic_ot(cost, p, q, cfg)
        assert residual <= 1e-8
        assert_allclose(plan.matrix.sum(axis=1), p, atol=1e-8)
        assert_allclose(plan.matrix.sum(axis=0), q, atol=1e-8)

    def test_column_sums_exact_after_any_iteration_count(self):
        """Updates end on the column step, so column sums always match."""
        rng = np.random.default_rng(1)
        cost = rng.uniform(size=(4, 3))
        p = np.full(4, 0.25)
        q = np.array([0.2, 0.3, 0.5])
        plan, residual = entropic_ot(
            cost, p, q, SinkhornConfig(lambda_beta=0.3, iterations=3)
        )
        assert_allclose(plan.matrix.sum(axis=0), q, atol=1e-14)
        row_dev = np.abs(plan.matrix.sum(axis=1) - p).max()
        assert residual == pytest.approx(row_dev, abs=1e-15)

    def test_log_and_plain_domains_agree(self):
        rng = np.random.default_rng(2)
        scaled = rng.uniform(size=(4, 5)) / 0.2
        p = np.full(4, 0.25)
        q = np.full(5, 0.2)
        plain, v = sinkhorn._plain_iterations(np.exp(-scaled), p, q, 50)
        logd, g = sinkhorn._log_iterations(-scaled, np.log(p), np.log(q), 50)
        assert_allclose(plain, logd, atol=1e-8)
        # both return the column scaling, up to the free factor v -> c v
        assert_allclose(np.log(v) - np.log(v[0]), g - g[0], atol=1e-10)

    def test_domain_auto_selection(self, monkeypatch):
        """The domain follows max|cost| / lambda_beta across the 700 bound."""
        ran = []
        for name in ("plain", "log"):
            inner = getattr(sinkhorn, f"_{name}_iterations")

            def spy(*args, _name=name, _inner=inner):
                ran.append(_name)
                return _inner(*args)

            monkeypatch.setattr(sinkhorn, f"_{name}_iterations", spy)
        for ratio in (699.0, 701.0):
            cost = np.array([[0.0, ratio], [ratio, 0.0]]) * 0.02
            plan, _ = entropic_ot(cost, [0.5, 0.5], [0.5, 0.5], SinkhornConfig(0.02))
            assert_allclose(plan.matrix, np.diag([0.5, 0.5]), atol=1e-300)
        assert ran == ["plain", "log"]

    def test_plan_strictly_positive(self):
        rng = np.random.default_rng(3)
        cost = rng.uniform(size=(3, 4))
        p = np.full(3, 1 / 3)
        q = np.full(4, 0.25)
        plan, _ = entropic_ot(cost, p, q, SinkhornConfig(0.5, 100))
        assert plan.matrix.min() > 0

    def test_value_dominates_exact_and_tightens(self):
        """Regularized cost stays above the LP value and shrinks with the
        regularizer."""
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        p = np.array([0.5, 0.5])
        q = np.array([0.5, 0.5])
        exact = exact_2x2_value(cost, p, q)
        gaps = []
        for lb in (0.5, 0.1, 0.02):
            plan, _ = entropic_ot(cost, p, q, SinkhornConfig(lb, 5000))
            val = float(np.sum(plan.matrix * cost))
            assert val >= exact - 1e-12
            gaps.append(val - exact)
        assert gaps[1] <= gaps[0] * 1.1
        assert gaps[2] <= gaps[1] * 1.1
        # at the sharpest setting the plan is nearly the identity matching
        final, _ = entropic_ot(cost, p, q, SinkhornConfig(0.02, 5000))
        assert_allclose(final.matrix, np.diag([0.5, 0.5]), atol=1e-8)

    def test_transpose_symmetry_at_convergence(self):
        rng = np.random.default_rng(4)
        cost = rng.uniform(size=(4, 6))
        p = rng.uniform(0.5, 1.5, 4)
        p /= p.sum()
        q = rng.uniform(0.5, 1.5, 6)
        q /= q.sum()
        cfg = SinkhornConfig(lambda_beta=0.1, iterations=5000)
        fwd, res_f = entropic_ot(cost, p, q, cfg)
        bwd, res_b = entropic_ot(cost.T, q, p, cfg)
        assert res_f <= 1e-12 and res_b <= 1e-12
        assert_allclose(fwd.matrix, bwd.matrix.T, atol=1e-10)

    def test_zero_marginal_entries_excluded(self):
        cost = np.array([[0.3, 0.7], [0.2, 0.9], [0.5, 0.5]])
        p = np.array([0.5, 0.0, 0.5])
        q = np.array([0.4, 0.6])
        plan, residual = entropic_ot(cost, p, q, SinkhornConfig(0.2, 500))
        assert_allclose(plan.matrix[1], 0.0, atol=0)
        assert residual <= 1e-8

    def test_single_row_plan_is_column_weights(self):
        cost = np.array([[0.4, 0.1, 0.9]])
        q = np.array([0.2, 0.5, 0.3])
        plan, residual = entropic_ot(cost, np.array([1.0]), q, SinkhornConfig(0.2, 5))
        assert_allclose(plan.matrix[0], q, atol=1e-14)
        assert residual <= 1e-14

    def test_cost_beyond_exp_range_solves(self):
        """cost / lambda_beta = 2000 has no plain kernel; the log domain
        returns the identity matching."""
        cost = np.array([[0.0, 1.0], [1.0, 0.0]]) * 2000.0
        p = np.array([0.5, 0.5])
        q = np.array([0.5, 0.5])
        plan, residual = entropic_ot(cost, p, q, SinkhornConfig(1.0, 10))
        assert_allclose(plan.matrix, np.diag([0.5, 0.5]), atol=0.0)
        assert residual == 0.0

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
        reason="np.longdouble has no extra precision on this platform",
    )
    def test_scaled_cost_near_1e14_matches_extended_precision(self):
        """At max|cost| / lambda_beta = 2.2e14 the rounds match the same log
        rounds run in np.longdouble, and the plan keeps its mass at 1."""
        rng = np.random.default_rng(20)
        x = rng.normal(size=(20, 5)) * 3
        y = rng.normal(size=(15, 5)) * 3 + 0.5
        metric = np.exp(np.linspace(0.0, 24.0, 5))
        cost = ((x[:, None, :] - y[None, :, :]) ** 2 * metric).sum(axis=2)
        p = np.full(20, 1 / 20)
        q = rng.random(15) + 0.1
        q /= q.sum()
        config = SinkhornConfig(lambda_beta=0.02, iterations=10)
        assert 1e14 < cost.max() / config.lambda_beta < 2.0**53

        plan, _ = entropic_ot(cost, p, q, config)
        reference = extended_log_rounds(cost, p, q, config)
        assert_allclose(plan.matrix, reference, rtol=0.0, atol=1e-7)
        assert_allclose(plan.matrix.sum(axis=0), q, rtol=0.0, atol=1e-15)
        assert plan.matrix.sum() == pytest.approx(1.0, abs=1e-14)

    def test_scalings_out_of_range_are_absorbed_again(self, monkeypatch):
        """Over 30 rounds the potentials drift more than 350 from the first
        round's, so a round is redone in the log domain on a rebuilt kernel;
        the plan still matches the log rounds run in np.longdouble."""
        absorbed = []
        inner = sinkhorn._absorbed_kernel

        def spy(*args):
            absorbed.append(args)
            return inner(*args)

        monkeypatch.setattr(sinkhorn, "_absorbed_kernel", spy)
        cost = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 3.0], [1.0, 3.0, 0.0]]) * 1000.0
        p = np.array([1e-6, 0.3, 0.7 - 1e-6])
        q = np.array([0.6, 0.4 - 1e-7, 1e-7])
        config = SinkhornConfig(lambda_beta=1.0, iterations=30)
        plan, _ = entropic_ot(cost, p, q, config)
        assert len(absorbed) == 2
        reference = extended_log_rounds(cost, p, q, config)
        assert_allclose(plan.matrix, reference, rtol=0.0, atol=1e-15)
        assert_allclose(plan.matrix.sum(axis=0), q, rtol=0.0, atol=1e-16)

    def test_scaled_cost_beyond_float_resolution_raises(self):
        """Past 2**53 a float64 exponent cannot resolve a step of 1; the
        solve refuses before iterating and names the fix."""
        p = np.array([0.5, 0.5])
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan, _ = entropic_ot(swap * 0.99 * 2.0**53, p, p, SinkhornConfig(1.0))
        assert_allclose(plan.matrix, np.diag(p), atol=0.0)
        with pytest.raises(
            OverflowError, match=r"lambda_beta = 9.1e\+15 .*raise lambda_beta"
        ):
            entropic_ot(swap * 1.01 * 2.0**53, p, p, SinkhornConfig(1.0))

    def test_nan_plan_mass_names_the_fix(self, monkeypatch):
        """The mass check is the backstop for a plan the rounds lost."""

        def lost(log_kernel, log_p, log_q, iterations, g, stop_tol):
            return np.full(log_kernel.shape, np.nan), g

        monkeypatch.setattr(sinkhorn, "_log_iterations", lost)
        p = np.array([0.5, 0.5])
        cost = np.array([[0.0, 1.0], [1.0, 0.0]]) * 2000.0
        with pytest.raises(OverflowError, match="transport plan mass is nan"):
            entropic_ot(cost, p, p, SinkhornConfig(1.0))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            entropic_ot(np.zeros((2, 2)), np.array([0.5, 0.5]), np.array([1.0]))


class TestLogSumExp:
    """The log-domain helper against scipy's logsumexp as the reference."""

    def test_matches_scipy_on_both_axes(self):
        rng = np.random.default_rng(0)
        for scale in (1.0, 30.0, 1000.0):
            a = rng.normal(size=(6, 9)) * scale
            for axis in (0, 1):
                assert_allclose(
                    sinkhorn._logsumexp(a, axis),
                    scipy_logsumexp(a, axis=axis),
                    rtol=1e-12,
                    atol=0.0,
                )

    def test_all_neg_inf_slices(self):
        a = np.array([[-np.inf, -np.inf, -np.inf], [-2.0, -np.inf, 700.0]])
        for axis in (0, 1):
            expected = scipy_logsumexp(a, axis=axis)
            got = sinkhorn._logsumexp(a, axis)
            finite = np.isfinite(expected)
            assert_allclose(got[finite], expected[finite], rtol=1e-12, atol=0.0)
            assert np.array_equal(got[~finite], expected[~finite])
        assert sinkhorn._logsumexp(a, 1)[0] == -np.inf

    @pytest.mark.parametrize("stop_tol", [0.0, 1e-9])
    def test_log_iterations_plan_unchanged_from_scipy(self, monkeypatch, stop_tol):
        rng = np.random.default_rng(4)
        # max cost / lambda_beta sits between 700 and 1000: the log domain runs
        cost = 14.0 + rng.uniform(size=(6, 5)) * 6.0
        p = rng.uniform(0.5, 1.5, 6)
        p /= p.sum()
        q = rng.uniform(0.5, 1.5, 5)
        q /= q.sum()
        config = SinkhornConfig(lambda_beta=0.02, iterations=400)

        plan, residual, _ = sinkhorn._entropic_core(cost, p, q, config, stop_tol=stop_tol)
        calls = []

        def reference(a, axis):
            calls.append(axis)
            return scipy_logsumexp(a, axis=axis)

        monkeypatch.setattr(sinkhorn, "_logsumexp", reference)
        ref_plan, ref_residual, _ = sinkhorn._entropic_core(
            cost, p, q, config, stop_tol=stop_tol
        )
        assert_allclose(plan.matrix, ref_plan.matrix, rtol=0.0, atol=1e-12)
        assert residual == pytest.approx(ref_residual, abs=1e-12)
        assert calls
        if stop_tol > 0.0:
            # the early stop fired
            assert len(calls) < 3 * config.iterations
            assert residual <= stop_tol
        else:
            # one log round, two calls, absorbs the potentials into the
            # kernel; no later round had to absorb them again
            assert len(calls) == 2


class TestSymmetricScaling:
    def test_scaled_doubly_stochastic_kernel(self):
        """A kernel that is c times doubly stochastic scales by 1/sqrt(c)."""
        base = np.array([[0.6, 0.4], [0.4, 0.6]])
        d = symmetric_scaling(3.0 * base, tol=1e-12)
        assert_allclose(d, np.full(2, 1.0 / np.sqrt(3.0)), atol=1e-10)

    def test_two_by_two_frozen_fixed_point(self):
        kernel = np.array([[2.0, 1.0], [1.0, 3.0]])
        d = symmetric_scaling(kernel, tol=1e-12)
        # independent fixed-point values for d0*(2 d0 + d1) = 1,
        # d1*(d0 + 3 d1) = 1 obtained from a bisection on the reduced
        # single-variable system
        assert_allclose(d, [0.59586158, 0.48651894], atol=1e-7)
        scaled = d[:, None] * kernel * d[None, :]
        assert_allclose(scaled.sum(axis=1), 1.0, atol=1e-11)
        assert_allclose(scaled.sum(axis=0), 1.0, atol=1e-11)
        assert_allclose(scaled, scaled.T, atol=1e-15)

    def test_random_kernels_balance(self):
        rng = np.random.default_rng(5)
        for n in (3, 6):
            raw = rng.uniform(0.1, 2.0, size=(n, n))
            kernel = raw + raw.T
            d = symmetric_scaling(kernel, tol=1e-10)
            scaled = d[:, None] * kernel * d[None, :]
            assert_allclose(scaled.sum(axis=1), 1.0, atol=1e-9)

    def test_nonconvergence_raises_with_residual(self):
        kernel = np.array([[2.0, 1.0], [1.0, 3.0]])
        with pytest.raises(SinkhornConvergenceError) as info:
            symmetric_scaling(kernel, tol=1e-14, max_iter=1)
        assert info.value.residual > 0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            symmetric_scaling(np.array([[1.0, 2.0], [0.5, 1.0]]))
        with pytest.raises(ValueError):
            symmetric_scaling(np.array([[1.0, -0.1], [-0.1, 1.0]]))
        with pytest.raises(ValueError):
            symmetric_scaling(np.array([[0.0, 0.0], [0.0, 1.0]]))


class TestExactSmall:
    def test_matches_endpoint_oracle_2x2(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            cost = rng.uniform(size=(2, 2))
            p = rng.uniform(0.2, 0.8)
            q = rng.uniform(0.2, 0.8)
            pv = np.array([p, 1 - p])
            qv = np.array([q, 1 - q])
            plan, value = exact_ot_small(cost, pv, qv)
            assert value == pytest.approx(exact_2x2_value(cost, pv, qv), abs=1e-9)
            assert_allclose(plan.matrix.sum(axis=1), pv, atol=1e-9)
            assert_allclose(plan.matrix.sum(axis=0), qv, atol=1e-9)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            exact_ot_small(
                np.zeros((3, 6)), np.full(3, 1 / 3), np.full(6, 1 / 6)
            )

    def test_entropic_value_upper_bounds_exact(self):
        rng = np.random.default_rng(7)
        cost = rng.uniform(size=(3, 4))
        p = np.full(3, 1 / 3)
        q = np.full(4, 0.25)
        _, lp_value = exact_ot_small(cost, p, q)
        plan, _ = entropic_ot(cost, p, q, SinkhornConfig(0.05, 5000))
        assert float(np.sum(plan.matrix * cost)) >= lp_value - 1e-12
