"""Loss-level checks: values against independent oracles, the
simplex-tangent gradient and the weights it refuses, and qualitative
contour behavior."""

import importlib
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from targets import spread_target, unit_rows
from wrot import frank_wolfe, metric_solvers
from wrot.data_io import make_grouping
from wrot.frank_wolfe import FWConfig, _frank_wolfe, rot_distance
from wrot.measures import (
    FeatureGrouping,
    TransportPlan,
    _moment_arrays,
    _pair_costs_full,
    _point_arrays,
    make_measure,
)
from wrot.metric_solvers import (
    AdversarialMetric,
    DSConfig,
    KLConfig,
    PNormConfig,
    adversarial_value,
)
from wrot.rot_loss import (
    _LOSS_CONFIG,
    LabelSpace,
    rot_loss,
    rot_loss_gradient,
)
from wrot.sinkhorn import SinkhornConfig, _entropic_plan, _marginals


def converged_kw(lam=0.02, fw=150, sk=1000, metric=PNormConfig(k=1)):
    """Keyword arguments of rot_loss for a solve that runs all ``fw`` steps;
    rot_loss_gradient takes the ``config`` alone. lambda_beta equal to
    lambda_gamma puts the oracle fixed point at the regularized optimum
    itself; iteration counts sized for 3x3 problems."""
    sinkhorn = SinkhornConfig(lambda_beta=lam, iterations=sk)
    return {"config": FWConfig(metric, sinkhorn, fw, gap_tol=None), "lambda_gamma": lam}


def pair_cost(emb, metric):
    diff = emb[:, None, :] - emb[None, :, :]
    return np.einsum("pqa,ab,pqb->pq", diff, metric, diff)


def plan_moment(emb, plan):
    diff = emb[:, None, :] - emb[None, :, :]
    return np.einsum("pq,pqa,pqb->ab", plan, diff, diff)


def entropic_fixed_point(cost, p, q, lam):
    """Entropic OT by log-domain potential iteration, run to stationarity."""
    f = np.zeros(len(p))
    g = np.zeros(len(q))
    lp = np.log(p)
    lq = np.log(q)
    for _ in range(20_000):
        f_new = lam * (lp - logsumexp((g[None, :] - cost) / lam, axis=1))
        g_new = lam * (lq - logsumexp((f_new[:, None] - cost) / lam, axis=0))
        done = (
            np.max(np.abs(f_new - f)) < 1e-14
            and np.max(np.abs(g_new - g)) < 1e-14
        )
        f, g = f_new, g_new
        if done:
            break
    return np.exp((f[:, None] + g[None, :] - cost) / lam)


def alternation_value(emb, h, y, lam, k=1):
    # Independent oracle: alternate the closed-form worst case with exact
    # entropic OT at its cost until the plan stops moving.
    plan = np.outer(h, y)
    for _ in range(400):
        worst = adversarial_value(plan_moment(emb, plan), PNormConfig(k=k))
        new = entropic_fixed_point(pair_cost(emb, worst.matrix), h, y, lam)
        moved = np.max(np.abs(new - plan))
        plan = new
        if moved < 1e-13:
            break
    worst = adversarial_value(plan_moment(emb, plan), PNormConfig(k=k))
    return worst.value + lam * float(np.sum(plan * np.log(plan)))


def random_instance(seed, size=3, dim=4, alpha=0.05):
    rng = np.random.default_rng(seed)
    emb = unit_rows(rng, size, dim)
    h = rng.dirichlet(np.ones(size))
    onehot = np.zeros(size)
    onehot[rng.integers(0, size)] = 1.0
    return emb, h, spread_target(onehot, alpha=alpha)


ALL_FAMILIES = [
    PNormConfig(k=1),
    PNormConfig(k=2),
    KLConfig(lambda_m=2.0),
    DSConfig(lambda_m=2.0),
    None,
]


class TestLabelSpace:
    def test_requires_unit_rows(self):
        with pytest.raises(ValueError, match="unit 2-norm"):
            LabelSpace(embeddings=np.array([[1.0, 0.0], [0.5, 0.0]]))

    def test_requires_a_label(self):
        with pytest.raises(ValueError, match="^embeddings have 0 rows"):
            LabelSpace(embeddings=np.zeros((0, 3)))


class TestConfigValidation:
    def test_rejects_bad_settings(self):
        labels = LabelSpace(embeddings=np.eye(2))
        with pytest.raises(ValueError, match="^lambda_gamma must be positive"):
            rot_loss([0.5, 0.5], [0.5, 0.5], labels, lambda_gamma=0.0)
        with pytest.raises(ValueError, match="^max_iter must be at least 1"):
            FWConfig(None, max_iter=0)


class TestLossValues:
    def test_identical_one_hots_force_the_plan(self):
        labels = LabelSpace(embeddings=np.eye(2))
        res = rot_loss([1.0, 0.0], [1.0, 0.0], labels, **converged_kw(fw=5, sk=50))
        assert res.value == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(res.plan.matrix, [[1.0, 0.0], [0.0, 0.0]])

    def test_identical_embeddings_reduce_to_entropy(self):
        """With all displacements zero the robust term vanishes for every
        plan, so the minimizer is the independent coupling and the value is
        its scaled entropy."""
        labels = LabelSpace(embeddings=np.tile([1.0, 0.0], (3, 1)))
        rng = np.random.default_rng(5)
        h = rng.dirichlet(np.ones(3))
        y = spread_target(np.array([0.0, 1.0, 0.0]), alpha=0.1)
        res = rot_loss(h, y, labels, **converged_kw(lam=0.05))
        ind = np.outer(h, y)
        np.testing.assert_allclose(res.plan.matrix, ind, atol=1e-12)
        assert res.value == pytest.approx(
            0.05 * np.sum(ind * np.log(ind)), abs=1e-12
        )

    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_alternation_oracle(self, seed):
        emb, h, y = random_instance(seed)
        labels = LabelSpace(embeddings=emb)
        got = rot_loss(h, y, labels, **converged_kw()).value
        want = alternation_value(emb, h, y, lam=0.02, k=1)
        assert got == pytest.approx(want, abs=1e-5)

    @pytest.mark.parametrize("metric", ALL_FAMILIES)
    def test_entropy_floor(self, metric):
        # worst-case term is nonnegative for every family, so the value is
        # bounded below by the scaled negative max entropy
        emb, h, y = random_instance(11)
        labels = LabelSpace(embeddings=emb)
        kw = converged_kw(lam=0.05, fw=60, sk=500, metric=metric)
        value = rot_loss(h, y, labels, **kw).value
        assert value >= -0.05 * np.log(9.0) - 1e-12

    def test_plan_marginals_feasible(self):
        emb, h, y = random_instance(3)
        res = rot_loss(h, y, LabelSpace(embeddings=emb), **converged_kw())
        np.testing.assert_allclose(res.plan.matrix.sum(axis=1), h, atol=1e-9)
        np.testing.assert_allclose(res.plan.matrix.sum(axis=0), y, atol=1e-9)

    def test_worst_case_cost_structure(self):
        emb, h, y = random_instance(9)
        res = rot_loss(h, y, LabelSpace(embeddings=emb), **converged_kw())
        costs = pair_cost(emb, res.metric.matrix)
        np.testing.assert_allclose(costs, costs.T, atol=1e-12)
        np.testing.assert_allclose(np.diag(costs), 0.0, atol=1e-12)
        assert np.min(costs) >= -1e-10
        assert np.min(np.linalg.eigvalsh(res.metric.matrix)) >= -1e-10

    @pytest.mark.parametrize("metric", [PNormConfig(k=1), KLConfig(lambda_m=2.0)])
    def test_convex_along_simplex_segments(self, metric):
        rng = np.random.default_rng(21)
        emb = unit_rows(rng, 3, 4)
        labels = LabelSpace(embeddings=emb)
        y = spread_target(np.array([1.0, 0.0, 0.0]), alpha=0.05)
        kw = converged_kw(metric=metric)
        for _ in range(2):
            h1 = rng.dirichlet(np.ones(3))
            h2 = rng.dirichlet(np.ones(3))
            mid = rot_loss(0.5 * h1 + 0.5 * h2, y, labels, **kw).value
            ends = 0.5 * (
                rot_loss(h1, y, labels, **kw).value
                + rot_loss(h2, y, labels, **kw).value
            )
            assert mid <= ends + 1e-6

    def test_boundary_prediction_allowed(self):
        # zero entries in h pin the corresponding plan rows to zero
        emb, _, y = random_instance(2)
        res = rot_loss([0.0, 0.3, 0.7], y, LabelSpace(embeddings=emb), **converged_kw())
        assert np.isfinite(res.value)
        np.testing.assert_allclose(res.plan.matrix[0], 0.0, atol=1e-300)


class TestGradient:
    def test_symmetric_instance_is_zero(self):
        labels = LabelSpace(embeddings=np.array([[1.0, 0.0], [-1.0, 0.0]]))
        kw = converged_kw(lam=0.1, fw=60, sk=500)
        grad, _ = rot_loss_gradient([0.5, 0.5], [0.5, 0.5], labels, kw["config"])
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    @pytest.mark.parametrize("metric", ALL_FAMILIES)
    def test_tangent_sum_is_zero(self, metric):
        emb, h, y = random_instance(13)
        kw = converged_kw(lam=0.05, fw=40, sk=400, metric=metric)
        grad, _ = rot_loss_gradient(h, y, LabelSpace(embeddings=emb), kw["config"])
        assert abs(grad.sum()) < 1e-12

    @pytest.mark.parametrize("metric", ALL_FAMILIES)
    def test_matches_finite_differences(self, metric):
        emb, h, y = random_instance(4)
        labels = LabelSpace(embeddings=emb)
        kw = converged_kw(metric=metric)
        grad, _ = rot_loss_gradient(h, y, labels, kw["config"])
        eps = 1e-6
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            u = np.zeros(3)
            u[i], u[j] = 1.0, -1.0
            u /= np.sqrt(2.0)
            plus = rot_loss(h + eps * u, y, labels, **kw).value
            minus = rot_loss(h - eps * u, y, labels, **kw).value
            fd = (plus - minus) / (2 * eps)
            assert float(grad @ u) == pytest.approx(fd, rel=1e-3)

    def test_matches_finite_differences_ten_labels(self):
        rng = np.random.default_rng(2)
        emb = unit_rows(rng, 10, 6)
        labels = LabelSpace(embeddings=emb)
        h = rng.dirichlet(np.ones(10))
        onehot = np.zeros(10)
        onehot[3] = 1.0
        y = spread_target(onehot, alpha=0.05)
        kw = converged_kw(lam=0.05, fw=60, sk=600)
        grad, _ = rot_loss_gradient(h, y, labels, kw["config"])
        eps = 1e-6
        for i, j in [(0, 4), (2, 7), (5, 9), (1, 8)]:
            u = np.zeros(10)
            u[i], u[j] = 1.0, -1.0
            u /= np.sqrt(2.0)
            plus = rot_loss(h + eps * u, y, labels, **kw).value
            minus = rot_loss(h - eps * u, y, labels, **kw).value
            fd = (plus - minus) / (2 * eps)
            assert float(grad @ u) == pytest.approx(fd, rel=1e-3)

    def test_zero_target_weight_accepted(self):
        """A zero target weight drops a plan column; the gradient is finite
        and tangent to the simplex, for a one-hot and a two-hot target."""
        emb, h, _ = random_instance(6)
        labels = LabelSpace(embeddings=emb)
        for y in ([1.0, 0.0, 0.0], [0.5, 0.0, 0.5]):
            grad, loss = rot_loss_gradient(h, y, labels, converged_kw()["config"])
            assert np.all(np.isfinite(grad)) and abs(grad.sum()) <= 1e-12
            np.testing.assert_array_equal(loss.plan.matrix[:, 1], 0.0)

    def test_zero_predicted_weight_rejected(self):
        emb, _, y = random_instance(6)
        labels = LabelSpace(embeddings=emb)
        for target in (y, [1.0, 0.0, 0.0]):
            with pytest.raises(ValueError, match="gradient undefined: a predicted weight"):
                rot_loss_gradient([0.0, 0.4, 0.6], target, labels, converged_kw()["config"])

    def test_zero_predicted_weight_refused_before_any_solve(self, monkeypatch):
        """The refusal comes before the loss solve: spies on the oracle's
        solve and on the adversary see no call, for a general and a one-hot
        target. rot_loss itself still accepts the weights."""
        calls = []

        def spy(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        spy(importlib.import_module("wrot.rot_loss"), "_entropic_plan")
        spy(frank_wolfe, "_adversary")
        labels = LabelSpace(embeddings=np.eye(3))
        h = [0.0, 0.5, 0.5]
        config = FWConfig(PNormConfig(), max_iter=3, gap_tol=None)
        for target in ([0.5, 0.5, 0.0], [1.0, 0.0, 0.0]):
            with pytest.raises(ValueError, match="gradient undefined: a predicted weight"):
                rot_loss_gradient(h, target, labels, config)
            assert calls == []
        assert np.isfinite(rot_loss(h, [0.5, 0.5, 0.0], labels, config).value)
        assert calls.count("_entropic_plan") == 3

    def test_underflowed_plan_entries_keep_the_gradient(self):
        """At lambda_beta = 0.004 the antipodal labels' cost / lambda_beta is
        1000, so plan entries underflow to 0 although every weight is
        positive. The gradient is read from the oracle's row potential, not
        from logs of those entries: it is finite, tangent to the simplex and
        matches central finite differences."""
        labels = LabelSpace(embeddings=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))
        h = np.array([0.5, 0.3, 0.2])
        y = np.array([0.2, 0.5, 0.3])
        kw = converged_kw(lam=0.004, fw=1, metric=None)
        grad, loss = rot_loss_gradient(h, y, labels, kw["config"])
        assert np.any(loss.plan.matrix == 0.0)
        assert np.all(np.isfinite(grad))
        assert abs(grad.sum()) <= 1e-12
        eps = 1e-6
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            u = np.zeros(3)
            u[i], u[j] = 1.0, -1.0
            u /= np.sqrt(2.0)
            plus = rot_loss(h + eps * u, y, labels, **kw).value
            minus = rot_loss(h - eps * u, y, labels, **kw).value
            fd = (plus - minus) / (2 * eps)
            assert float(grad @ u) == pytest.approx(fd, rel=1e-3)

    def test_oracle_runs_every_configured_round(self):
        """At the default config the gradient equals, bit for bit, that of
        a solve whose every oracle call runs all Sinkhorn rounds. On this
        2-hot target a stop at a row-sum error of 1e-13 would end some
        solves early and move the gradient by 1.4e-13."""
        rng = np.random.default_rng(12)
        labels = LabelSpace(embeddings=unit_rows(rng, 3, 3))
        h = rng.dirichlet(np.ones(3))
        y = np.array([0.5, 0.5, 0.0])
        grad, _ = rot_loss_gradient(h, y, labels)
        np.testing.assert_array_equal(grad, eager_loss(h, y, labels, _LOSS_CONFIG)[2])

    def test_return_loss_consistency(self):
        emb, h, y = random_instance(8)
        labels = LabelSpace(embeddings=emb)
        kw = converged_kw()
        grad, loss = rot_loss_gradient(h, y, labels, kw["config"])
        np.testing.assert_array_equal(grad, rot_loss_gradient(h, y, labels, kw["config"])[0])
        direct = rot_loss(h, y, labels, **kw)
        assert loss.value == direct.value
        np.testing.assert_array_equal(loss.plan.matrix, direct.plan.matrix)


class TestGroupingAndCaches:
    def test_trivial_grouping_matches_plain(self):
        rng = np.random.default_rng(31)
        emb = unit_rows(rng, 3, 4)
        trivial = FeatureGrouping(
            dim=4, group_count=4, permutation=np.arange(4)
        )
        h = rng.dirichlet(np.ones(3))
        y = spread_target(np.array([0.0, 1.0, 0.0]), alpha=0.05)
        kw = converged_kw(lam=0.05, fw=60, sk=500)
        plain = rot_loss(h, y, LabelSpace(embeddings=emb), **kw)
        grouped = rot_loss(h, y, LabelSpace(embeddings=emb, grouping=trivial), **kw)
        assert grouped.value == pytest.approx(plain.value, abs=1e-12)
        np.testing.assert_allclose(grouped.plan.matrix, plain.plan.matrix, atol=1e-12)

    def test_streamed_kernels_match_pairwise_gram_oracle(self, monkeypatch):
        rng = np.random.default_rng(33)
        emb = unit_rows(rng, 4, 6)
        grouping = make_grouping(6, 3, seed=1)
        h = rng.dirichlet(np.ones(4))
        y = spread_target(np.array([0.0, 0.0, 1.0, 0.0]), alpha=0.05)
        kw = converged_kw(lam=0.05, fw=60, sk=500)
        labels = LabelSpace(embeddings=emb, grouping=grouping)

        # the oracle: per-pair r x r Grams of the reshaped embedding
        # differences, group g holding permuted coordinates g*d1 .. g*d1+d1-1
        d1, r = grouping.rows_per_group, grouping.group_count
        padded = np.hstack([emb, np.zeros((4, grouping.pad))])
        points = padded[:, grouping.permutation].reshape(4, r, d1).transpose(0, 2, 1)
        diff = points[:, None, :, :] - points[None, :, :, :]
        gram = np.einsum("pqar,pqas->pqrs", diff, diff)

        def gram_moment(plan, src, tgt):
            return np.einsum("pq,pqrs->rs", plan, gram)

        def gram_pair_costs(src, tgt, metric):
            return np.einsum("pqrs,rs->pq", gram, metric)

        plan = rng.dirichlet(np.ones(16)).reshape(4, 4)
        a = rng.normal(size=(r, r))
        metric = a @ a.T
        # the streamed kernels on the label space's (L, d1, r) point array
        arr = labels._points
        np.testing.assert_allclose(
            _moment_arrays(plan, arr, arr), gram_moment(plan, arr, arr), atol=1e-12
        )
        np.testing.assert_allclose(
            _pair_costs_full(arr, arr, metric), gram_pair_costs(arr, arr, metric), atol=1e-12
        )

        streamed = rot_loss(h, y, labels, **kw)
        monkeypatch.setattr(frank_wolfe, "_moment_arrays", gram_moment)
        monkeypatch.setattr(frank_wolfe, "_pair_costs_full", gram_pair_costs)
        assembled = rot_loss(h, y, labels, **kw)
        assert streamed.value == pytest.approx(assembled.value, abs=1e-12)
        np.testing.assert_allclose(
            streamed.plan.matrix, assembled.plan.matrix, atol=1e-12
        )

    def test_grouped_space_holds_no_per_pair_state(self):
        # 48 labels, d = 200, r = 40: an O(L^2 r^2) per-pair array would be
        # about 30 MB; the (L, d1, r) reshape and its temporaries are 0.15 MB
        emb = unit_rows(np.random.default_rng(34), 48, 200)
        grouping = make_grouping(200, 40, seed=0)
        tracemalloc.start()
        try:
            LabelSpace(embeddings=emb, grouping=grouping)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestContourOrdering:
    @pytest.mark.parametrize("metric", ALL_FAMILIES)
    def test_nearer_label_costs_less(self, metric):
        """A one-hot prediction on the label closer to the truth must score
        strictly below one on the farther label, for every family."""
        emb = np.array([
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.8, 0.6, 0.0],
        ])
        labels = LabelSpace(embeddings=emb)
        assert np.linalg.norm(emb[0] - emb[2]) < np.linalg.norm(emb[1] - emb[2])
        y = spread_target(np.array([0.0, 0.0, 1.0]), alpha=0.02)
        kw = converged_kw(lam=0.05, fw=80, sk=600, metric=metric)
        near = rot_loss([1.0, 0.0, 0.0], y, labels, **kw).value
        far = rot_loss([0.0, 1.0, 0.0], y, labels, **kw).value
        assert near < far


class TestValidationAtTheBoundary:
    @pytest.mark.parametrize(
        "metric", ALL_FAMILIES, ids=["p1", "p2", "kl", "ds", "euclidean"]
    )
    def test_gradient_call_checks_no_moment_and_builds_one_plan(self, monkeypatch, metric):
        """Inside the Frank-Wolfe loop moments, adversaries and oracle plans
        pass as bare arrays: a gradient call or a distance solve builds no
        TransportPlan and no AdversarialMetric, and never re-validates a
        moment. The first read of the result's plan builds exactly one, the
        first read of its metric one metric, and later reads build none. So
        does the span path of an ungrouped space with fewer labels than
        dimensions, whose worst case is mapped back to d x d."""
        rng = np.random.default_rng(35)
        emb = unit_rows(rng, 6, 8)
        src = make_measure(rng.normal(size=(5, 3)))
        tgt = make_measure(rng.normal(size=(4, 3)) + 1.0, rng.dirichlet(np.ones(4)))
        h = np.random.default_rng(36).dirichlet(np.ones(6))
        y = spread_target(np.eye(6)[1], alpha=0.05)
        cfg = FWConfig(metric, max_iter=3, gap_tol=None)
        built, checked = [], []
        plan_init = TransportPlan.__post_init__
        metric_init = AdversarialMetric.__post_init__
        check_moment = metric_solvers._check_moment

        def counting(init):
            def counted(obj):
                built.append(obj)
                init(obj)

            return counted

        def counting_check(moment):
            checked.append(moment)
            return check_moment(moment)

        grouped = LabelSpace(embeddings=emb, grouping=make_grouping(8, 4, seed=2))
        span = LabelSpace(embeddings=emb)
        monkeypatch.setattr(TransportPlan, "__post_init__", counting(plan_init))
        monkeypatch.setattr(AdversarialMetric, "__post_init__", counting(metric_init))
        monkeypatch.setattr(metric_solvers, "_check_moment", counting_check)
        solves = [
            lambda: rot_loss_gradient(h, y, grouped, cfg)[1],
            lambda: rot_loss_gradient(h, y, span, cfg)[1],
            lambda: rot_distance(src, tgt, FWConfig(metric, max_iter=4)),
        ]
        for solve in solves:
            built.clear()
            result = solve()
            assert built == []
            plan = result.plan
            assert built == [plan]
            worst = result.metric
            assert built == [plan, worst]
            assert result.plan is plan and result.metric is worst
            assert built == [plan, worst]
            assert checked == []


def eager_loss(h, y, labels, config):
    """The loss solved as rot_loss solves it, with the plan and the d x d
    worst-case metric built at once: on the span coordinates for p-norm
    k = 1 and the identity on a space with a span basis, else on the
    space's points. Every oracle solve runs all ``config.sinkhorn``
    rounds. Also returns the gradient that rot_loss_gradient reads from one
    more oracle solve, for a target with two or more positive weights."""
    marginals = _marginals(h, y, (labels.size,) * 2)
    warm = None

    def oracle(costs):
        nonlocal warm
        plan, f, warm = _entropic_plan(costs, marginals, config.sinkhorn, state=warm)
        return plan, f

    metric = config.metric
    span = labels._basis is not None and (
        metric is None or (isinstance(metric, PNormConfig) and metric.k == 1)
    )
    points = labels._coords if span else labels._points
    gamma, worst, _, _ = _frank_wolfe(
        points, points, metric, lambda c: oracle(c)[0], marginals, config.max_iter, config.gap_tol
    )
    f = oracle(_pair_costs_full(points, points, worst.matrix))[1]
    gradient = config.sinkhorn.lambda_beta * (f - f.mean())
    if span:
        basis = labels._basis
        matrix = np.eye(labels.dim) if metric is None else basis @ worst.matrix @ basis.T
        worst = AdversarialMetric(matrix=matrix, value=worst.value, family=worst.family)
    return TransportPlan(matrix=gamma), worst, gradient


def eager_distance(src, tgt, config, grouping):
    """The distance solved as rot_distance solves it, with the plan and the
    worst-case metric built at once, and the gaps and the stop."""
    src_arr, tgt_arr = _point_arrays(src, tgt, grouping)
    marginals = _marginals(src.weights, tgt.weights, (src.size, tgt.size))
    gamma, worst, gaps, converged = _frank_wolfe(
        src_arr,
        tgt_arr,
        config.metric,
        lambda costs: _entropic_plan(costs, marginals, config.sinkhorn)[0],
        marginals,
        config.max_iter,
        config.gap_tol,
    )
    return TransportPlan(matrix=gamma), AdversarialMetric(*worst), gaps, converged


class TestLazyLossValue:
    """The loss and the distance return one lazy result type, RotResult."""

    @pytest.mark.parametrize("space", ["full", "grouped", "span"])
    @pytest.mark.parametrize(
        "metric", ALL_FAMILIES, ids=["p1", "p2", "kl", "ds", "euclidean"]
    )
    def test_plan_and_metric_equal_the_eagerly_built_ones(self, space, metric):
        """The plan and worst-case metric built on first read equal those
        built with the solve, bit for bit, on full, grouped and span
        spaces."""
        rng = np.random.default_rng(41)
        size, dim = (6, 4) if space == "full" else (4, 6)
        emb = unit_rows(rng, size, dim)
        grouping = make_grouping(dim, 3, seed=4) if space == "grouped" else None
        labels = LabelSpace(embeddings=emb, grouping=grouping)
        assert (labels._basis is not None) == (space == "span")
        h = rng.dirichlet(np.ones(size))
        y = spread_target(np.eye(size)[2], alpha=0.05)
        cfg = FWConfig(metric, max_iter=3, gap_tol=None)
        loss = rot_loss(h, y, labels, cfg)
        plan, worst, _ = eager_loss(h, y, labels, cfg)
        assert np.array_equal(loss.plan.matrix, plan.matrix)
        assert np.array_equal(loss.metric.matrix, worst.matrix)
        assert (loss.metric.value, loss.metric.family) == (worst.value, worst.family)

    @pytest.mark.parametrize("grouped", [False, True], ids=["ungrouped", "grouped"])
    @pytest.mark.parametrize("max_iter", [3, 200], ids=["capped", "long"])
    @pytest.mark.parametrize(
        "metric", ALL_FAMILIES, ids=["p1", "p2", "kl", "ds", "euclidean"]
    )
    def test_distance_plan_and_metric_equal_the_eagerly_built_ones(
        self, grouped, max_iter, metric
    ):
        """A distance solve's plan and worst-case metric, built on first
        read, equal those built with the solve bit for bit, and its value,
        gaps and stop are the loop's."""
        rng = np.random.default_rng(43)
        src = make_measure(rng.normal(size=(5, 6)), rng.dirichlet(np.ones(5)))
        tgt = make_measure(rng.normal(size=(4, 6)) + 0.5)
        grouping = make_grouping(6, 3, seed=5) if grouped else None
        cfg = FWConfig(metric, max_iter=max_iter, gap_tol=1e-4)
        result = rot_distance(src, tgt, cfg, grouping)
        plan, worst, gaps, converged = eager_distance(src, tgt, cfg, grouping)
        assert result.gap_history == tuple(gaps) and result.converged is converged
        assert result.iterations_used == len(gaps)
        assert result.value == worst.value
        assert np.array_equal(result.plan.matrix, plan.matrix)
        assert np.array_equal(result.metric.matrix, worst.matrix)
        assert (result.metric.value, result.metric.family) == (worst.value, worst.family)
