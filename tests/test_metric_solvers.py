import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import logsumexp

from wrot import (
    DSConfig,
    KLConfig,
    PNormConfig,
    adversarial_value,
    feature_selection_objective,
    feature_weights,
    metric_solvers,
)


def random_psd(rng, d, scale=1.0):
    a = rng.normal(size=(d, d))
    return scale * (a @ a.T) / d


def elementwise_norm(v, p):
    return float(np.sum(np.abs(v) ** p) ** (1.0 / p))


class TestPNorm:
    def test_frozen_two_point_example(self):
        """diag(0.5, 0.5) under k=1 gives the scaled matrix and sqrt(1/2)."""
        v = np.diag([0.5, 0.5])
        result = adversarial_value(v, PNormConfig(k=1))
        assert result.value == pytest.approx(np.sqrt(0.5), abs=1e-14)
        assert_allclose(result.matrix, np.diag([0.5, 0.5]) / np.sqrt(0.5), atol=1e-14)
        assert result.family == "pnorm"

    def test_value_is_entrywise_norm(self):
        rng = np.random.default_rng(0)
        for k in (1, 2, 3):
            v = random_psd(rng, 5)
            result = adversarial_value(v, PNormConfig(k=k))
            assert result.value == pytest.approx(elementwise_norm(v, 2 * k), rel=1e-12)

    def test_optimizer_unit_dual_norm(self):
        """The maximizing matrix sits exactly on the dual-norm unit sphere."""
        rng = np.random.default_rng(1)
        for k in (1, 2, 3):
            p = 2 * k / (2 * k - 1)
            v = random_psd(rng, 4)
            result = adversarial_value(v, PNormConfig(k=k))
            assert elementwise_norm(result.matrix, p) == pytest.approx(1.0, abs=1e-12)

    def test_duality_tight(self):
        rng = np.random.default_rng(2)
        for k in (1, 2):
            v = random_psd(rng, 6)
            result = adversarial_value(v, PNormConfig(k=k))
            assert float(np.sum(v * result.matrix)) == pytest.approx(
                result.value, rel=1e-12
            )

    def test_dominates_random_feasible_points(self):
        """No feasible matrix beats the closed form (Hoelder tightness)."""
        rng = np.random.default_rng(3)
        v = random_psd(rng, 6)
        for k in (1, 2):
            p = 2 * k / (2 * k - 1)
            best = adversarial_value(v, PNormConfig(k=k)).value
            for _ in range(300):
                m = np.abs(rng.normal(size=(6, 6)))
                m = m + m.T
                m /= elementwise_norm(m, p)
                assert float(np.sum(v * m)) <= best + 1e-9

    def test_psd_preserved(self):
        rng = np.random.default_rng(4)
        for k in (1, 2, 3):
            v = random_psd(rng, 5)
            m = adversarial_value(v, PNormConfig(k=k)).matrix
            assert_allclose(m, m.T, atol=1e-12)
            assert np.linalg.eigvalsh(m).min() >= -1e-10

    def test_zero_moment(self):
        result = adversarial_value(np.zeros((3, 3)), PNormConfig(k=2))
        assert result.value == 0.0
        assert_allclose(result.matrix, 0.0)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            adversarial_value(np.eye(2), PNormConfig(k=0))
        with pytest.raises(ValueError):
            PNormConfig(k=-1)

    def test_scale_covariance(self):
        """Scaling the moment scales the value linearly, k=1 case."""
        rng = np.random.default_rng(5)
        v = random_psd(rng, 4)
        base = adversarial_value(v, PNormConfig(k=1)).value
        scaled = adversarial_value(3.0 * v, PNormConfig(k=1)).value
        assert scaled == pytest.approx(3 * base, rel=1e-12)


class TestKL:
    def test_frozen_identity_reference_example(self):
        """V = diag(1, 0.25), lambda = 2, M0 = I: value = 2(exp(1/2) - 1)."""
        v = np.diag([1.0, 0.25])
        result = adversarial_value(v, KLConfig(lambda_m=2.0))
        expected_m = np.diag([np.exp(0.5), np.exp(0.125)])
        assert_allclose(result.matrix, expected_m, atol=1e-14)
        # off-diagonal reference entries are zero, so only the diagonal
        # contributes to sum(M*) - sum(M0)
        expected_value = 2.0 * (np.exp(0.5) + np.exp(0.125) - 2.0)
        assert result.value == pytest.approx(expected_value, abs=1e-14)
        assert result.family == "kl"

    def test_frozen_scalar_example(self):
        # 1x1 case: v=1, lambda=2, m0=1 -> m*=e^{1/2}, value 2(e^{1/2}-1)
        result = adversarial_value(np.array([[1.0]]), KLConfig(lambda_m=2.0))
        assert result.value == pytest.approx(1.2974425414002564, abs=1e-14)

    def test_stationarity(self):
        """First-order condition V = lambda * log(M*/M0) on the support."""
        rng = np.random.default_rng(6)
        v = random_psd(rng, 4)
        b = np.abs(rng.normal(size=(4, 4)))
        m0 = b @ b.T + np.eye(4)  # entrywise positive and PSD
        result = adversarial_value(v, KLConfig(lambda_m=1.5, m0=m0))
        grad = v - 1.5 * np.log(result.matrix / m0)
        assert_allclose(grad, 0.0, atol=1e-9)

    def test_optimality_against_perturbations(self):
        rng = np.random.default_rng(7)
        v = random_psd(rng, 4)
        result = adversarial_value(v, KLConfig(lambda_m=1.0))
        m0 = np.eye(4)

        def objective(m):
            kl = np.where(m > 0, m * np.log(np.where(m > 0, m, 1.0) / np.where(m0 > 0, m0, 1.0)), 0.0)
            # off-support penalty is +inf; perturbations below keep support
            return float(np.sum(v * m) - 1.0 * (kl.sum() - m.sum() + m0.sum()))

        best = objective(result.matrix)
        assert best == pytest.approx(result.value, abs=1e-10)
        for _ in range(200):
            noise = rng.normal(size=(4, 4)) * 0.05
            noise = noise + noise.T
            cand = result.matrix * (1.0 + noise)
            cand = np.where(m0 > 0, np.maximum(cand, 1e-12), 0.0)
            assert objective(cand) <= best + 1e-12

    def test_reference_zeros_stay_zero(self):
        v = np.array([[1.0, 0.5], [0.5, 2.0]])
        m0 = np.array([[1.0, 0.0], [0.0, 1.0]])
        result = adversarial_value(v, KLConfig(lambda_m=1.0, m0=m0))
        assert result.matrix[0, 1] == 0.0
        assert result.matrix[1, 0] == 0.0

    def test_overflow_raises(self):
        # the message names max|V|/lambda_m and the smallest lambda_m that
        # works, max|V|/700
        with pytest.raises(OverflowError, match=r"= 800 .*= 1\.14"):
            adversarial_value(np.array([[800.0]]), KLConfig(lambda_m=1.0))

    def test_kernel_sum_overflow_raises(self):
        """Each entry of a 200 x 200 kernel at e^700 is finite, but their sum
        is not: the value refuses it, naming the sum and lambda_m, rather
        than return inf with a numpy warning."""
        with pytest.raises(OverflowError, match=r"kernel sum .* raise lambda_m$"):
            adversarial_value(np.full((200, 200), 700.0), KLConfig(1.0, m0=np.ones((200, 200))))

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            adversarial_value(np.eye(2), KLConfig(lambda_m=0.0))
        with pytest.raises(ValueError):
            KLConfig(lambda_m=-1.0)

    def test_reference_psd_required(self):
        with pytest.raises(ValueError):
            KLConfig(lambda_m=1.0, m0=np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestDS:
    def test_frozen_one_parameter_oracle(self):
        """2x2 symmetric-reference instance against the closed-form optimum.

        With V = diag(1, 0), lambda = 1 and reference [[0.6, 0.4], [0.4, 0.6]]
        the optimum lies on the symmetric family M(m) = [[m, 1-m], [1-m, m]],
        where stationarity gives m/(1-m) = (0.6/0.4) * exp(1/2), i.e.
        m* = 3*sqrt(e) / (2 + 3*sqrt(e)).
        """
        v = np.diag([1.0, 0.0])
        m0 = np.array([[0.6, 0.4], [0.4, 0.6]])
        m_star = 0.7120712879653152
        result = adversarial_value(v, DSConfig(lambda_m=1.0, m0=m0))
        assert result.matrix[0, 0] == pytest.approx(m_star, abs=1e-8)
        assert result.matrix[1, 1] == pytest.approx(m_star, abs=1e-8)
        assert result.matrix[0, 1] == pytest.approx(1 - m_star, abs=1e-8)
        assert_allclose(result.matrix.sum(axis=1), 1.0, atol=1e-11)
        assert_allclose(result.matrix.sum(axis=0), 1.0, atol=1e-11)
        assert result.family == "ds"

    def test_value_is_lagrangian_at_optimum(self):
        rng = np.random.default_rng(8)
        v = random_psd(rng, 3)
        result = adversarial_value(v, DSConfig(lambda_m=1.0))
        m0 = np.full((3, 3), 1.0 / 3.0)
        kl = float(np.sum(result.matrix * np.log(result.matrix / m0))
                   - result.matrix.sum() + m0.sum())
        assert result.value == pytest.approx(
            float(np.sum(v * result.matrix)) - 1.0 * kl, abs=1e-9
        )

    def test_beats_feasible_reference(self):
        """The optimum dominates the feasible uniform reference point."""
        rng = np.random.default_rng(9)
        v = random_psd(rng, 4)
        result = adversarial_value(v, DSConfig(lambda_m=0.7))
        m0 = np.full((4, 4), 0.25)
        assert result.value >= float(np.sum(v * m0)) - 1e-9

    def test_row_sums_at_default_tolerance(self):
        rng = np.random.default_rng(10)
        v = random_psd(rng, 5)
        result = adversarial_value(v, DSConfig(lambda_m=1.0))
        assert np.abs(result.matrix.sum(axis=1) - 1.0).max() <= 1e-7

    def test_zero_moment_returns_reference(self):
        result = adversarial_value(np.zeros((3, 3)), DSConfig(lambda_m=1.0))
        assert_allclose(result.matrix, np.full((3, 3), 1.0 / 3.0), atol=1e-9)
        assert result.value == pytest.approx(0.0, abs=1e-9)

    def test_nonconvergence_raises(self, monkeypatch):
        rng = np.random.default_rng(11)
        v = random_psd(rng, 4)
        monkeypatch.setattr(metric_solvers, "_SCALING_MAX_ITER", 1)
        with pytest.raises(Exception) as info:
            adversarial_value(v, DSConfig(lambda_m=1.0))
        assert hasattr(info.value, "residual")

    def test_reference_positivity_required(self):
        with pytest.raises(ValueError):
            DSConfig(lambda_m=1.0, m0=np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_unscalable_kernels_keep_the_scaling_messages(self):
        """A large reference entry overflows m0 * exp(V / lambda_m) although
        max|V| / lambda_m is in range: KL and DS both refuse it with one
        OverflowError that names max(V / lambda_m + log m0) = 699 + log 1e5
        and the smallest lambda_m, 699 / (700 - log 1e5), with no numpy
        warning. A DS kernel row that underflows to zero keeps the scaling
        loop's message."""
        big = np.array([[1e5, 1.0], [1.0, 1e5]])
        message = re.escape(
            "max(moment/lambda_m + log m0) = 710.5 overflows m0 * exp(moment/lambda_m); "
            "lambda_m must be at least 1.01527"
        )
        for family in (KLConfig, DSConfig):
            with pytest.raises(OverflowError, match=message):
                adversarial_value(np.diag([699.0, 1.0]), family(lambda_m=1.0, m0=big))
        tiny = np.array([[1e-200, 1e-200], [1e-200, 1.0]])
        v = np.array([[-400.0, -400.0], [-400.0, 0.0]])
        with pytest.raises(ValueError, match="kernel has an all-zero row"):
            adversarial_value(v, DSConfig(lambda_m=1.0, m0=tiny))


class TestFeatureWeights:
    def test_frozen_two_feature_example(self):
        """diag(V) = (1, 0) at lambda = 1 gives sigmoid weights."""
        v = np.diag([1.0, 0.0])
        w = feature_weights(v, lambda_m=1.0)
        assert_allclose(
            w, [0.7310585786300049, 0.2689414213699951], atol=1e-15
        )

    def test_simplex(self):
        rng = np.random.default_rng(12)
        v = random_psd(rng, 6)
        w = feature_weights(v, lambda_m=0.3)
        assert w.min() > 0
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_large_lambda_uniform(self):
        rng = np.random.default_rng(13)
        v = random_psd(rng, 5)
        w = feature_weights(v, lambda_m=1e6)
        assert_allclose(w, 0.2, atol=1e-6)

    def test_shift_stability(self):
        v = np.diag([1e4, 1e4 - 1.0])
        w = feature_weights(v, lambda_m=1.0)
        assert np.all(np.isfinite(w))
        assert_allclose(w, [np.exp(1) / (1 + np.exp(1)), 1 / (1 + np.exp(1))],
                        atol=1e-12)

    @pytest.mark.parametrize(
        "diag, weights",
        [((2.0, 2.0), (0.5, 0.5)), ((1.0, 0.0), (1.0, 0.0)), ((3.0, 5.0, 5.0), (0, 0.5, 0.5))],
        ids=["tied", "distinct", "tied-top"],
    )
    def test_subnormal_lambda_stays_finite(self, diag, weights):
        """diag(V) / lambda_m overflows at lambda_m = 1e-320; the shift by
        max diag(V) comes first, so the top entries stay 0 and the weights
        are the limit, the argmax's indicator, with no warning raised."""
        v = np.diag(diag)
        assert_allclose(feature_weights(v, lambda_m=1e-320), weights, atol=0)
        assert feature_selection_objective(v, 1e-320) == pytest.approx(max(diag), abs=1e-300)

    def test_objective_beyond_the_float_range_names_lambda_m(self):
        """At d = 1000 the objective is about -992 lambda_m: finite at
        lambda_m = 1e305, below the float range at 1e306, where it raises
        an error that names lambda_m and its bound instead of returning
        -inf."""
        v = np.eye(1000)
        assert feature_selection_objective(v, 1e305) == pytest.approx(-9.920922e307, rel=1e-6)
        message = r"^lambda_m \* \(logsumexp - \(d - 1\)\) = 1e\+306 \* -992\.092 .* below about 1\.812"
        with pytest.raises(OverflowError, match=message):
            feature_selection_objective(v, 1e306)

    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
    def test_shifted_forms_match_the_direct_formulas(self, lam):
        v = random_psd(np.random.default_rng(17), 6)
        diag = np.diag(v) / lam
        direct = np.exp(diag - diag.max())
        assert_allclose(feature_weights(v, lam), direct / direct.sum(), rtol=1e-12, atol=0)
        objective = lam * (logsumexp(diag) - (diag.size - 1))
        assert feature_selection_objective(v, lam) == pytest.approx(objective, rel=1e-12)

    def test_monotone_transform_identity(self):
        """lambda*log(value/lambda + d) - lambda*(d-1) equals the softmax
        normalizer objective exactly when the reference is the identity."""
        rng = np.random.default_rng(14)
        for _ in range(20):
            d = 8
            v = random_psd(rng, d)
            lam = 0.7
            kl_value = adversarial_value(v, KLConfig(lambda_m=lam, m0=np.eye(d))).value
            # identity reference keeps only diagonal terms in play for the
            # selection objective
            diag_value = lam * (np.exp(np.diag(v) / lam).sum() - d)
            lhs = lam * np.log(diag_value / lam + d) - lam * (d - 1)
            rhs = feature_selection_objective(v, lambda_m=lam)
            assert lhs == pytest.approx(rhs, abs=1e-9)
            # and the kl value on the diagonal part agrees with diag_value
            v_diag = np.diag(np.diag(v))
            assert adversarial_value(v_diag, KLConfig(lambda_m=lam)).value == pytest.approx(
                diag_value, rel=1e-12
            )

    def test_selection_objective_formula(self):
        rng = np.random.default_rng(15)
        v = random_psd(rng, 4)
        lam = 0.5
        expected = lam * logsumexp(np.diag(v) / lam) - lam * 3
        assert feature_selection_objective(v, lam) == pytest.approx(
            expected, abs=1e-12
        )


class TestDispatchAndEuclidean:
    def test_dispatch_matches_direct(self):
        """Each config's result is its docstring's closed form, written out:
        the 4-norm and its cubed normalisation for k=2, the identity's
        exponential tilt for KL, and the penalised value for DS."""
        rng = np.random.default_rng(16)
        v = random_psd(rng, 4)
        pnorm = adversarial_value(v, PNormConfig(k=2))
        assert pnorm.value == pytest.approx(elementwise_norm(v, 4), rel=1e-12)
        assert_allclose(pnorm.matrix, (v / elementwise_norm(v, 4)) ** 3, rtol=1e-12)
        kl = adversarial_value(v, KLConfig(lambda_m=1.2))
        assert_allclose(kl.matrix, np.diag(np.exp(np.diag(v) / 1.2)), rtol=1e-14)
        assert kl.value == pytest.approx(1.2 * (kl.matrix.sum() - 4), rel=1e-12)
        ds = adversarial_value(v, DSConfig(lambda_m=1.2)).matrix
        penalty = np.sum(ds * np.log(4 * ds)) - ds.sum() + 4.0  # KL(M*, ones / 4)
        assert adversarial_value(v, DSConfig(lambda_m=1.2)).value == pytest.approx(
            np.sum(v * ds) - 1.2 * penalty
        )

    def test_dispatch_rejects_unknown(self):
        with pytest.raises(ValueError, match="^metric must be "):
            adversarial_value(np.eye(2), object())

    def test_euclidean_is_trace(self):
        rng = np.random.default_rng(17)
        v = random_psd(rng, 5)
        result = adversarial_value(v, None)
        assert result.value == pytest.approx(np.trace(v), rel=1e-14)
        assert_allclose(result.matrix, np.eye(5))
        assert result.family == "euclidean"

    def test_asymmetric_moment_rejected(self):
        with pytest.raises(ValueError):
            adversarial_value(np.array([[1.0, 2.0], [0.0, 1.0]]), PNormConfig(k=1))

    PUBLIC = {
        "pnorm": lambda v: adversarial_value(v, PNormConfig(k=1)),
        "kl": lambda v: adversarial_value(v, KLConfig(lambda_m=1.0)),
        "ds": lambda v: adversarial_value(v, DSConfig(lambda_m=1.0)),
        "dispatch": lambda v: adversarial_value(v, None),
    }

    @pytest.mark.parametrize("solver", PUBLIC)
    def test_public_solvers_reject_bad_moments(self, solver):
        """:func:`adversarial_value` validates the moment before any
        family's kernel runs, the identity metric's included: asymmetric or
        non-finite moments are refused."""
        solve = self.PUBLIC[solver]
        with pytest.raises(ValueError, match="^moment matrix must be symmetric$"):
            solve(np.array([[1.0, 2.0], [0.0, 1.0]]))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="^moment contains non-finite entries$"):
                solve(np.array([[1.0, bad], [bad, 1.0]]))

    @pytest.mark.parametrize("config", [PNormConfig(k=1), KLConfig(), DSConfig()])
    def test_kernel_dispatch_rejects_non_finite_moments(self, config):
        """The unchecked path the Frank-Wolfe loops take still refuses a
        non-finite moment, with the public message."""
        moment = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="^moment contains non-finite entries$"):
            metric_solvers._adversary(moment, config)

    @pytest.mark.parametrize("family", [KLConfig, DSConfig])
    def test_config_reference_of_another_size_is_refused(self, family):
        """A config's m0 is checked once, when built; the kernels still
        compare its size with the moment's."""
        config = family(m0=np.full((4, 4), 0.25))
        with pytest.raises(ValueError, match=r"^m0 must be 3x3, got \(4, 4\)$"):
            adversarial_value(np.eye(3), config)


@pytest.mark.parametrize("family", [KLConfig, DSConfig])
def test_reference_within_the_symmetry_tolerance_is_stored_symmetric(family):
    """A reference asymmetric by 5e-11 passes the 1e-10 check and is stored
    exactly symmetric, so the DS kernel's symmetric scaling accepts it and
    both families return exactly symmetric metrics."""
    m0 = np.full((4, 4), 0.25)
    m0[0, 1] += 5e-11
    config = family(m0=m0)
    assert np.array_equal(config.m0, config.m0.T)
    v = random_psd(np.random.default_rng(18), 4)
    result = adversarial_value(v, config)
    assert np.array_equal(result.matrix, result.matrix.T)


class TestOneCheckedPath:
    """Each family's settings are checked once, by its config, and
    :func:`adversarial_value` is the one public solve: it returns the
    family's kernel result, bit for bit, for the settings the config holds."""

    @pytest.mark.parametrize("family", [KLConfig, DSConfig])
    def test_public_solvers_refuse_a_non_psd_reference(self, family):
        m0 = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(ValueError, match="^m0 must be positive semidefinite$"):
            family(lambda_m=1.0, m0=m0)

    @pytest.mark.parametrize("family", [KLConfig, DSConfig])
    def test_a_large_psd_reference_is_accepted(self, family):
        """The rank-one reference 1e8 * ones is PSD, but eigvalsh puts its
        smallest eigenvalue near -1e-8: the tolerance scales with m0."""
        m0 = 1e8 * np.ones((50, 50))
        assert np.linalg.eigvalsh(m0).min() < -1e-10
        assert np.array_equal(family(m0=m0).m0, m0)
        assert np.isfinite(adversarial_value(np.zeros((50, 50)), family(1.0, m0=m0)).value)

    m0 = np.full((5, 5), 0.2) + np.eye(5)
    CASES = {
        "pnorm1": (lambda v: metric_solvers._pnorm(v, 1), PNormConfig(k=1)),
        "pnorm3": (lambda v: metric_solvers._pnorm(v, 3), PNormConfig(k=3)),
        "kl": (lambda v: metric_solvers._kl(v, 0.7, None), KLConfig(lambda_m=0.7)),
        "kl_m0": (lambda v: metric_solvers._kl(v, 2.0, TestOneCheckedPath.m0), KLConfig(2.0, m0)),
        "ds": (lambda v: metric_solvers._ds(v, 0.7, None), DSConfig(lambda_m=0.7)),
        "ds_m0": (lambda v: metric_solvers._ds(v, 2.0, TestOneCheckedPath.m0), DSConfig(2.0, m0)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_public_solvers_equal_adversarial_value(self, case):
        """The family's kernel, called with the settings written out, on an
        exactly symmetric moment (which the moment check keeps as it is)."""
        solve, config = self.CASES[case]
        rng = np.random.default_rng(19)
        for _ in range(5):
            v = random_psd(rng, 5, scale=3.0)
            v = 0.5 * (v + v.T)
            got, want = solve(v), adversarial_value(v, config)
            assert got.matrix.tobytes() == want.matrix.tobytes()
            assert got.value == want.value
            assert got.family == want.family
