import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import logsumexp as scipy_logsumexp

from entropic_reference import entropic_solve
from lp_reference import exact_ot_small
from wrot import (
    SinkhornConfig,
    SinkhornConvergenceError,
    sinkhorn,
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


def marginal_residual(plan, p, q):
    """The largest deviation of the plan's row and column sums from p and q,
    the residual entropic_solve reports."""
    return max(np.abs(plan.sum(axis=1) - p).max(), np.abs(plan.sum(axis=0) - q).max())


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
        plan, residual = entropic_solve(cost, p, q, cfg)
        assert residual <= 1e-8
        assert_allclose(plan.matrix.sum(axis=1), p, atol=1e-8)
        assert_allclose(plan.matrix.sum(axis=0), q, atol=1e-8)

    def test_column_sums_exact_after_any_iteration_count(self):
        """Updates end on the column step, so column sums always match."""
        rng = np.random.default_rng(1)
        cost = rng.uniform(size=(4, 3))
        p = np.full(4, 0.25)
        q = np.array([0.2, 0.3, 0.5])
        plan, residual = entropic_solve(
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
        marginals = sinkhorn._marginals(p, q, scaled.shape)
        plain, f_plain, g_plain = sinkhorn._rounds(-scaled, marginals, 50)
        logd, f, g = sinkhorn._rounds(-scaled, marginals, 50, log_first=True)
        assert_allclose(plain, logd, atol=1e-8)
        # both return the potentials, up to the free shift (f - c, g + c)
        assert_allclose(g_plain - g_plain[0], g - g[0], atol=1e-10)
        assert_allclose(f_plain - f_plain[0], f - f[0], atol=1e-10)
        # and each plan is exp(f + g - cost / lambda_beta)
        for plan, row, col in ((plain, f_plain, g_plain), (logd, f, g)):
            assert_allclose(np.log(plan), row[:, None] - scaled + col, rtol=0.0, atol=1e-12)

    def test_domain_auto_selection(self, monkeypatch):
        """The first round follows max|cost| / lambda_beta across the 700
        bound: plain below it, a log round absorbed into the kernel above."""
        absorbed = []
        inner = sinkhorn._absorbed_kernel

        def spy(*args):
            absorbed[-1] += 1
            return inner(*args)

        monkeypatch.setattr(sinkhorn, "_absorbed_kernel", spy)
        for ratio in (699.0, 701.0):
            absorbed.append(0)
            cost = np.array([[0.0, ratio], [ratio, 0.0]]) * 0.02
            plan, _ = entropic_solve(cost, [0.5, 0.5], [0.5, 0.5], SinkhornConfig(0.02))
            assert_allclose(plan.matrix, np.diag([0.5, 0.5]), atol=1e-300)
        assert absorbed == [0, 1]

    def test_plan_strictly_positive(self):
        rng = np.random.default_rng(3)
        cost = rng.uniform(size=(3, 4))
        p = np.full(3, 1 / 3)
        q = np.full(4, 0.25)
        plan, _ = entropic_solve(cost, p, q, SinkhornConfig(0.5, 100))
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
            plan, _ = entropic_solve(cost, p, q, SinkhornConfig(lb, 5000))
            val = float(np.sum(plan.matrix * cost))
            assert val >= exact - 1e-12
            gaps.append(val - exact)
        assert gaps[1] <= gaps[0] * 1.1
        assert gaps[2] <= gaps[1] * 1.1
        # at the sharpest setting the plan is nearly the identity matching
        final, _ = entropic_solve(cost, p, q, SinkhornConfig(0.02, 5000))
        assert_allclose(final.matrix, np.diag([0.5, 0.5]), atol=1e-8)

    def test_transpose_symmetry_at_convergence(self):
        rng = np.random.default_rng(4)
        cost = rng.uniform(size=(4, 6))
        p = rng.uniform(0.5, 1.5, 4)
        p /= p.sum()
        q = rng.uniform(0.5, 1.5, 6)
        q /= q.sum()
        cfg = SinkhornConfig(lambda_beta=0.1, iterations=5000)
        fwd, res_f = entropic_solve(cost, p, q, cfg)
        bwd, res_b = entropic_solve(cost.T, q, p, cfg)
        assert res_f <= 1e-12 and res_b <= 1e-12
        assert_allclose(fwd.matrix, bwd.matrix.T, atol=1e-10)

    def test_zero_marginal_entries_excluded(self):
        cost = np.array([[0.3, 0.7], [0.2, 0.9], [0.5, 0.5]])
        p = np.array([0.5, 0.0, 0.5])
        q = np.array([0.4, 0.6])
        plan, residual = entropic_solve(cost, p, q, SinkhornConfig(0.2, 500))
        assert_allclose(plan.matrix[1], 0.0, atol=0)
        assert residual <= 1e-8

    def test_single_row_plan_is_column_weights(self):
        cost = np.array([[0.4, 0.1, 0.9]])
        q = np.array([0.2, 0.5, 0.3])
        plan, residual = entropic_solve(cost, np.array([1.0]), q, SinkhornConfig(0.2, 5))
        assert_allclose(plan.matrix[0], q, atol=1e-14)
        assert residual <= 1e-14

    def test_cost_beyond_exp_range_solves(self):
        """cost / lambda_beta = 2000 has no plain kernel; the log domain
        returns the identity matching."""
        cost = np.array([[0.0, 1.0], [1.0, 0.0]]) * 2000.0
        p = np.array([0.5, 0.5])
        q = np.array([0.5, 0.5])
        plan, residual = entropic_solve(cost, p, q, SinkhornConfig(1.0, 10))
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

        plan, _ = entropic_solve(cost, p, q, config)
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
        plan, _ = entropic_solve(cost, p, q, config)
        assert len(absorbed) == 2
        reference = extended_log_rounds(cost, p, q, config)
        assert_allclose(plan.matrix, reference, rtol=0.0, atol=1e-15)
        assert_allclose(plan.matrix.sum(axis=0), q, rtol=0.0, atol=1e-16)

    def test_scaled_cost_beyond_float_resolution_raises(self):
        """Past 2**53 a float64 exponent cannot resolve a step of 1; the
        solve refuses before iterating and names the fix."""
        p = np.array([0.5, 0.5])
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan, _ = entropic_solve(swap * 0.99 * 2.0**53, p, p, SinkhornConfig(1.0))
        assert_allclose(plan.matrix, np.diag(p), atol=0.0)
        with pytest.raises(
            OverflowError, match=r"lambda_beta = 9.1e\+15 .*raise lambda_beta"
        ):
            entropic_solve(swap * 1.01 * 2.0**53, p, p, SinkhornConfig(1.0))

    def test_nan_plan_mass_names_the_fix(self, monkeypatch):
        """The mass check is the backstop for a plan the rounds lost."""

        def lost(log_kernel, marginals, iterations, g, log_first):
            return np.full(log_kernel.shape, np.nan), None, g

        monkeypatch.setattr(sinkhorn, "_rounds", lost)
        p = np.array([0.5, 0.5])
        cost = np.array([[0.0, 1.0], [1.0, 0.0]]) * 2000.0
        with pytest.raises(OverflowError, match="transport plan mass is nan"):
            entropic_solve(cost, p, p, SinkhornConfig(1.0))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            entropic_solve(np.zeros((2, 2)), np.array([0.5, 0.5]), np.array([1.0]))

    COST = np.arange(6.0).reshape(2, 3) / 6
    P = np.array([0.5, 0.5])
    Q = np.array([0.2, 0.3, 0.5])
    BAD_INPUTS = {
        "row length": (COST, np.array([0.2, 0.3, 0.5]), Q, "row_weights has length 3, expected 2"),
        "col length": (COST, P, np.array([0.5, 0.5]), "col_weights has length 2, expected 3"),
        "negative": (COST, np.array([1.5, -0.5]), Q, "row_weights must be nonnegative"),
        "sum": (COST, P, np.array([0.2, 0.3, 0.4]), "col_weights must sum to 1"),
        "cost shape": (COST.T, P, Q, "row_weights has length 2, expected 3"),
        "nan cost": (np.where(COST > 0.4, np.nan, COST), P, Q, "cost contains non-finite entries"),
    }

    @pytest.mark.parametrize("case", BAD_INPUTS)
    def test_prepared_marginals_keep_the_error_messages(self, case):
        """A solve on marginals prepared for a 2 x 3 cost refuses bad weights
        or a bad cost with the message entropic_solve gives. Every caller
        prepares its marginals from the cost's own shape, so a cost of
        another shape reaches only entropic_solve."""
        cost, p, q, message = self.BAD_INPUTS[case]
        config = SinkhornConfig()

        def prepared():
            marginals = sinkhorn._marginals(p, q, self.COST.shape)
            return sinkhorn._entropic_plan(cost, marginals, config)

        solves = [lambda: entropic_solve(cost, p, q, config)]
        if case != "cost shape":
            solves.append(prepared)
        for solve in solves:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                solve()

    def test_warm_start_meeting_the_row_sums_still_runs_a_round(self):
        """A warm column scaling v whose kernel row sums already equal p is
        not a solution when its column sums miss q: every solve ends on a
        column update, so the plan's column sums are q."""
        scaled = np.random.default_rng(9).uniform(size=(4, 3)) * 3.0
        g = np.array([0.0, -1.3, -0.4])  # max 0, so the warm v is exp(g)
        log_rows = scipy_logsumexp(g - scaled, axis=1)
        # Shifting the cost by a constant leaves the plan unchanged; this
        # shift makes the kernel's row sums at v a probability vector p.
        shift = scipy_logsumexp(log_rows)
        scaled = scaled + shift
        p = np.exp(log_rows - shift)
        q = np.array([0.6, 0.3, 0.1])
        assert_allclose(np.exp(-scaled) @ np.exp(g), p, rtol=1e-14)
        marginals = sinkhorn._marginals(p, q, scaled.shape)
        plan, _, _ = sinkhorn._entropic_plan(scaled, marginals, SinkhornConfig(1.0, 30), state=g)
        assert_allclose(plan.sum(axis=0), q, rtol=0.0, atol=1e-15)


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

    def test_log_iterations_plan_unchanged_from_scipy(self, monkeypatch):
        rng = np.random.default_rng(4)
        # max cost / lambda_beta sits between 700 and 1000: the log domain runs
        cost = 14.0 + rng.uniform(size=(6, 5)) * 6.0
        p = rng.uniform(0.5, 1.5, 6)
        p /= p.sum()
        q = rng.uniform(0.5, 1.5, 5)
        q /= q.sum()
        config = SinkhornConfig(lambda_beta=0.02, iterations=400)

        marginals = sinkhorn._marginals(p, q, cost.shape)
        plan = sinkhorn._entropic_plan(cost, marginals, config)[0]
        residual = marginal_residual(plan, p, q)
        calls = []

        def reference(a, axis):
            calls.append(axis)
            return scipy_logsumexp(a, axis=axis)

        monkeypatch.setattr(sinkhorn, "_logsumexp", reference)
        ref_plan = sinkhorn._entropic_plan(cost, marginals, config)[0]
        ref_residual = marginal_residual(ref_plan, p, q)
        assert_allclose(plan, ref_plan, rtol=0.0, atol=1e-12)
        assert residual == pytest.approx(ref_residual, abs=1e-12)
        # one log round, two calls, absorbs the potentials into the kernel;
        # no later round had to absorb them again
        assert len(calls) == 2


class TestSymmetricScaling:
    def test_scaled_doubly_stochastic_kernel(self):
        """A kernel that is c times doubly stochastic scales by 1/sqrt(c)."""
        base = np.array([[0.6, 0.4], [0.4, 0.6]])
        d = sinkhorn._symmetric_scaling(3.0 * base, 1e-12, 10_000)
        assert_allclose(d, np.full(2, 1.0 / np.sqrt(3.0)), atol=1e-10)

    def test_two_by_two_frozen_fixed_point(self):
        kernel = np.array([[2.0, 1.0], [1.0, 3.0]])
        d = sinkhorn._symmetric_scaling(kernel, 1e-12, 10_000)
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
            d = sinkhorn._symmetric_scaling(kernel, 1e-10, 10_000)
            scaled = d[:, None] * kernel * d[None, :]
            assert_allclose(scaled.sum(axis=1), 1.0, atol=1e-9)

    def test_nonconvergence_raises_with_residual(self):
        kernel = np.array([[2.0, 1.0], [1.0, 3.0]])
        with pytest.raises(SinkhornConvergenceError) as info:
            sinkhorn._symmetric_scaling(kernel, 1e-14, 1)
        assert info.value.residual > 0

    def test_all_zero_row_is_refused(self):
        with pytest.raises(ValueError, match="all-zero row"):
            sinkhorn._symmetric_scaling(np.array([[0.0, 0.0], [0.0, 1.0]]), 1e-8, 10_000)


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
        plan, _ = entropic_solve(cost, p, q, SinkhornConfig(0.05, 5000))
        assert float(np.sum(plan.matrix * cost)) >= lp_value - 1e-12
