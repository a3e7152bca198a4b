import importlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lp_reference import exact_ot_small
from targets import spread_target
from wrot import (
    DSConfig,
    FWConfig,
    KLConfig,
    LabelSpace,
    PNormConfig,
    SinkhornConfig,
    TransportPlan,
    adversarial_value,
    displacement_second_moment,
    make_grouping,
    make_measure,
    rot_distance,
    rot_loss,
    rot_loss_gradient,
)
from wrot import frank_wolfe, measures, sinkhorn
from wrot.measures import FeatureGrouping, _moment_arrays, _pair_costs_full, _point_arrays
from wrot.metric_solvers import _adversary


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


def plan_on(gamma, src, tgt):
    """The plan ``gamma``, after checking that it couples the two measures'
    weights to 1e-8."""
    assert np.max(np.abs(gamma.sum(axis=1) - src.weights)) <= 1e-8
    assert np.max(np.abs(gamma.sum(axis=0) - tgt.weights)) <= 1e-8
    return TransportPlan(gamma)


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
        assert rot_distance(src, tgt, FWConfig(None)).value == pytest.approx(1.0, abs=1e-3)


class TestGradient:
    @pytest.mark.parametrize(
        "metric",
        [
            PNormConfig(k=1),
            PNormConfig(k=2),
            KLConfig(lambda_m=1.0),
            DSConfig(lambda_m=1.0),
        ],
        ids=["pnorm1", "pnorm2", "kl", "ds"],
    )
    def test_matches_directional_derivative(self, metric):
        """Danskin direction check: f(gamma + h delta) - f(gamma) ~ h <g, delta>."""
        rng = np.random.default_rng(8)
        src, tgt = random_instance(rng, 3, 4, 3)
        base = TransportPlan(matrix=np.outer(src.weights, tgt.weights))
        vertex, _ = exact_ot_small(
            rng.uniform(size=(3, 4)), src.weights, tgt.weights
        )
        delta = vertex.matrix - base.matrix

        def objective(gamma):
            moment = displacement_second_moment(plan_on(gamma, src, tgt), src, tgt)
            return adversarial_value(moment, metric).value

        worst_case = adversarial_value(
            displacement_second_moment(base, src, tgt), metric
        )
        grad = _pair_costs_full(*_point_arrays(src, tgt), worst_case.matrix)
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
        plan = TransportPlan(matrix=np.outer(src.weights, tgt.weights))
        u = displacement_second_moment(plan, src, tgt, grouping)
        small = adversarial_value(u, PNormConfig(k=1))
        grad_grouped = _pair_costs_full(*_point_arrays(src, tgt, grouping), small.matrix)

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
        g1 = TransportPlan(matrix=np.outer(src.weights, tgt.weights)).matrix
        vertex, _ = exact_ot_small(rng.uniform(size=(3, 4)), src.weights, tgt.weights)
        g2 = vertex.matrix
        for metric in (PNormConfig(k=1), KLConfig(lambda_m=1.0), DSConfig(lambda_m=1.0)):
            def f(gamma):
                return adversarial_value(
                    displacement_second_moment(plan_on(gamma, src, tgt), src, tgt), metric
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
        cfg = converged_config(metric)
        if capped:
            # one step: the returned worst case must be the one after it
            cfg = FWConfig(metric=metric, sinkhorn=cfg.sinkhorn, max_iter=1)
        result = rot_distance(src, tgt, cfg, grouping)
        assert result.converged is not capped
        assert result.iterations_used == (1 if capped else len(result.gap_history))
        if grouped:
            moment = displacement_second_moment(result.plan, src, tgt, grouping)
        else:
            moment = displacement_second_moment(result.plan, src, tgt)
        want = adversarial_value(moment, metric)
        assert result.value == pytest.approx(want.value, rel=1e-12)
        assert_allclose(result.metric.matrix, want.matrix, rtol=1e-12, atol=1e-15)


class TestCarriedMoment:
    def test_one_moment_per_step_plus_one(self, monkeypatch):
        """The loop takes the starting moment and one per step, of the
        oracle's plan, and none after the loop, whether it stops on the gap
        or at max_iter; the loss's three steps take four."""
        events = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            frank_wolfe, "_moment_arrays", counted("moment", frank_wolfe._moment_arrays)
        )
        monkeypatch.setattr(
            frank_wolfe, "_entropic_plan", counted("oracle", frank_wolfe._entropic_plan)
        )
        rng = np.random.default_rng(10)
        src, tgt = random_instance(rng, 4, 5, 4)
        converged = converged_config(PNormConfig(k=1))
        for cfg in (converged, converged_config(PNormConfig(k=1), max_iter=3)):
            events.clear()
            result = rot_distance(src, tgt, cfg)
            assert result.converged is (cfg is converged)
            assert events == ["moment"] + ["oracle", "moment"] * result.iterations_used

        emb = rng.normal(size=(4, 3))
        labels = LabelSpace(embeddings=emb / np.linalg.norm(emb, axis=1, keepdims=True))
        events.clear()
        config = FWConfig(PNormConfig(), max_iter=3, gap_tol=None)
        rot_loss(np.full(4, 0.25), spread_target(np.eye(4)[1]), labels, config)
        assert events == ["moment"] * 4

    @pytest.mark.parametrize("metric", [None, PNormConfig(k=1), KLConfig()], ids=str)
    def test_first_step_takes_the_oracle_plan_and_moment(self, metric):
        """The first step has theta = 1, so with max_iter = 1 the loop
        returns the oracle's plan, bit for bit but in its own array, and the
        worst case at that plan's moment."""
        rng = np.random.default_rng(12)
        src, tgt = random_instance(rng, 4, 5, 3)
        src_arr, tgt_arr = _point_arrays(src, tgt)
        plan = rng.random((4, 5))
        plan /= plan.sum()
        marginals = sinkhorn._marginals(src.weights, tgt.weights, (src.size, tgt.size))
        gamma, worst, gaps, converged = frank_wolfe._frank_wolfe(
            src_arr, tgt_arr, metric, lambda costs: plan, marginals, 1, -np.inf
        )
        assert gamma is not plan and np.array_equal(gamma, plan)
        assert len(gaps) == 1 and not converged
        want = _adversary(_moment_arrays(plan, src_arr, tgt_arr), metric)
        assert np.array_equal(worst.matrix, want.matrix)
        assert worst.value == want.value


class TestIdentityOracle:
    """Every family, the identity (``metric=None``) included, solves the
    distance's oracle once per step."""

    @pytest.mark.parametrize(
        "overrides", [{}, {"max_iter": 3, "gap_tol": None}], ids=["default", "3 steps"]
    )
    def test_one_solve_per_step_matches_cold_solves(self, monkeypatch, overrides):
        """Counted against a spy on the oracle's solve, one solve per step,
        and results equal, bit for bit, to those of the loop with a cold
        solve at every step."""
        calls = []
        solve = frank_wolfe._entropic_plan

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(frank_wolfe, "_entropic_plan", counted)
        rng = np.random.default_rng(18)
        src, tgt = random_instance(rng, 6, 5, 3)
        sink = SinkhornConfig()
        marginals = sinkhorn._marginals(src.weights, tgt.weights, (src.size, tgt.size))
        for metric in (None, PNormConfig(k=1)):
            config = FWConfig(metric, sink, **overrides)
            calls.clear()
            result = rot_distance(src, tgt, config)
            assert result.iterations_used > 1
            assert len(calls) == result.iterations_used
            gamma, worst, gaps, converged = frank_wolfe._frank_wolfe(
                *_point_arrays(src, tgt), metric,
                lambda costs: solve(costs, marginals, sink)[0],
                marginals, config.max_iter, config.gap_tol,
            )
            assert result.value == worst.value
            assert result.gap_history == tuple(gaps)
            assert result.converged is converged
            assert np.array_equal(result.plan.matrix, gamma)


# (points, dimension) of the distance benchmark's two log-domain sizes
TRUNCATION_SIZES = [(32, 8), (128, 24)]
TRUNCATION_FAMILIES = [None, PNormConfig(k=1), PNormConfig(k=2), KLConfig(), DSConfig()]


class TestReadOnlyOraclePlans:
    @pytest.mark.parametrize("metric", TRUNCATION_FAMILIES, ids=str)
    def test_read_only_plans_match_writeable_copies(self, metric):
        """The loop moves only its own iterate and never writes a plan its
        oracle returned: an oracle whose plans are read-only runs every step
        and gives, bit for bit, what one returning writeable copies gives."""
        rng = np.random.default_rng(19)
        src, tgt = random_instance(rng, 6, 5, 3)
        sink = SinkhornConfig()
        marginals = sinkhorn._marginals(src.weights, tgt.weights, (src.size, tgt.size))

        def read_only(costs):
            plan = sinkhorn._entropic_plan(costs, marginals, sink)[0]
            plan.flags.writeable = False
            return plan

        runs = [
            frank_wolfe._frank_wolfe(
                *_point_arrays(src, tgt), metric, oracle, marginals, 4, None
            )
            for oracle in (read_only, lambda costs: read_only(costs).copy())
        ]
        (gamma, worst, gaps, converged), (want, want_worst, want_gaps, want_converged) = runs
        assert len(gaps) == 4 and converged is want_converged is False
        assert gaps == want_gaps and worst.value == want_worst.value
        assert np.array_equal(gamma, want)
        assert np.array_equal(worst.matrix, want_worst.matrix)


class TestStopRule:
    """One FWConfig stops the distance and the loss alike: at a gap of at
    most gap_tol, or, with gap_tol=None, after exactly max_iter steps."""

    def solves(self):
        rng = np.random.default_rng(16)
        src, tgt = random_instance(rng, 4, 5, 3)
        emb = rng.normal(size=(4, 3))
        labels = LabelSpace(embeddings=emb / np.linalg.norm(emb, axis=1, keepdims=True))
        h, y = np.full(4, 0.25), spread_target(np.eye(4)[1])
        return {
            "distance": lambda cfg: rot_distance(src, tgt, cfg),
            "loss": lambda cfg: rot_loss(h, y, labels, cfg),
        }

    @pytest.mark.parametrize("solve", ["distance", "loss"])
    def test_no_tolerance_runs_every_step(self, solve):
        result = self.solves()[solve](FWConfig(PNormConfig(), max_iter=5, gap_tol=None))
        assert result.iterations_used == 5 and result.converged is False

    @pytest.mark.parametrize("solve", ["distance", "loss"])
    def test_a_tolerance_stops_the_solve(self, solve):
        result = self.solves()[solve](converged_config(PNormConfig()))
        assert result.converged is True and result.gap_history[-1] <= 1e-6
        assert result.iterations_used < 150


class TestOnePlan:
    """Weights with one positive entry on either side admit one plan, p q^T,
    whose adversary ``_one_plan`` gives in closed form."""

    @staticmethod
    def count(monkeypatch, names):
        """Wrap each name where the solvers look it up; returns the list of
        names called, in order."""
        events = []
        modules = [frank_wolfe, importlib.import_module("wrot.rot_loss"), measures]
        for module in modules:
            for name in set(names) & set(vars(module)):
                fn = getattr(module, name)

                def wrapper(*args, _fn=fn, _name=name, **kwargs):
                    events.append(_name)
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, wrapper)
        return events

    @pytest.mark.parametrize("gap_tol", [None, 0.0])
    @pytest.mark.parametrize("solve", ["distance", "loss"])
    def test_one_plan_calls_no_oracle(self, monkeypatch, solve, gap_tol):
        """A distance from a one-point measure and a loss at a one-hot target
        take the closed form and the adversary there once, call no oracle,
        and record one gap of 0.0, which meets any gap_tol but None. The
        value and worst-case metric match ``_frank_wolfe`` run directly for
        every step to 1e-12 relative."""
        events = self.count(
            monkeypatch, ["_one_plan", "_moment_arrays", "_adversary", "_entropic_plan"]
        )
        rng = np.random.default_rng(17)
        config = FWConfig(PNormConfig(), max_iter=5, gap_tol=gap_tol)
        if solve == "distance":
            src = make_measure(rng.normal(size=(1, 3)))
            tgt = make_measure(rng.normal(size=(4, 3)), rng.dirichlet(np.ones(4)))
            p, q, arrays = src.weights, tgt.weights, _point_arrays(src, tgt)
            result = rot_distance(src, tgt, config)
        else:
            emb = rng.normal(size=(4, 3))
            labels = LabelSpace(embeddings=emb / np.linalg.norm(emb, axis=1, keepdims=True))
            p, q, arrays = rng.dirichlet(np.ones(4)), np.eye(4)[2], (labels._points,) * 2
            result = rot_loss(p, q, labels, config)
        assert events == ["_one_plan", "_adversary"]
        assert result.gap_history == (0.0,)
        assert result.converged is (gap_tol is not None)
        assert np.array_equal(result.plan.matrix, p[:, None] * q)
        monkeypatch.undo()
        marginals = sinkhorn._marginals(p, q, (p.size, q.size))
        gamma, worst, gaps, _ = frank_wolfe._frank_wolfe(
            *arrays,
            config.metric,
            lambda costs: sinkhorn._entropic_plan(costs, marginals, config.sinkhorn)[0],
            marginals,
            5,
            None,
        )
        assert len(gaps) == 5
        value = worst.value
        if solve == "loss":
            value += 0.02 * float((gamma[gamma > 0] * np.log(gamma[gamma > 0])).sum())
        assert result.value == pytest.approx(value, rel=1e-12)
        assert np.max(np.abs(result.metric.matrix - worst.matrix)) <= 1e-12

    @pytest.mark.parametrize(
        "case",
        ["one-point source", "one-point target", "one positive weight", "one-hot target",
         "one-hot prediction", "grouped one-hot target", "gradient at a one-hot target"],
    )
    def test_each_one_plan_input_calls_one_plan_once(self, monkeypatch, case):
        """Every one-plan input, of the distance or of the loss, calls
        ``_one_plan`` once and neither the oracle nor the m x n moment."""
        rng = np.random.default_rng(18)
        one = make_measure(rng.normal(size=(1, 4)))
        many = make_measure(rng.normal(size=(5, 4)), rng.dirichlet(np.ones(5)))
        sparse = make_measure(rng.normal(size=(3, 4)), [0.0, 1.0, 0.0])
        emb = rng.normal(size=(5, 4))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        labels = LabelSpace(embeddings=emb)
        grouped = LabelSpace(embeddings=emb, grouping=make_grouping(4, 2, 0))
        h, e = rng.dirichlet(np.ones(5)), np.eye(5)[3]
        config = FWConfig(KLConfig(), max_iter=4, gap_tol=None)
        solves = {
            "one-point source": lambda: rot_distance(one, many, config),
            "one-point target": lambda: rot_distance(many, one, config),
            "one positive weight": lambda: rot_distance(many, sparse, config),
            "one-hot target": lambda: rot_loss(h, e, labels, config),
            "one-hot prediction": lambda: rot_loss(e, h, labels, config),
            "grouped one-hot target": lambda: rot_loss(h, e, grouped, config),
            "gradient at a one-hot target": lambda: rot_loss_gradient(h, e, labels, config),
        }
        events = self.count(monkeypatch, ["_one_plan", "_moment_arrays", "_entropic_plan"])
        solves[case]()
        assert events == ["_one_plan"]


class TestTruncatedKernel:
    def test_truncation_moves_no_distance_beyond_1e_12(self, monkeypatch):
        """At lambda_beta 0.02, where every solve absorbs its potentials into
        the kernel, dropping the kernel's entries below exp(-700) moves
        neither the value, the gaps nor the plan beyond 1e-12 of the solve
        with np.exp's subnormals; a solve that refuses refuses alike."""
        rng = np.random.default_rng(2)
        solves = []
        for m, d in TRUNCATION_SIZES:
            for _ in range(2):
                src = make_measure(rng.normal(size=(m, d)))
                tgt = make_measure(rng.normal(size=(m, d)) + 2.0 / np.sqrt(d))
                for metric in TRUNCATION_FAMILIES:
                    config = FWConfig(
                        metric=metric, sinkhorn=SinkhornConfig(lambda_beta=0.02), max_iter=10
                    )
                    solves.append((src, tgt, config))

        def outcomes():
            out = []
            for src, tgt, config in solves:
                try:
                    out.append(rot_distance(src, tgt, config))
                except (OverflowError, ValueError) as exc:
                    out.append((type(exc), str(exc)))
            return out

        truncated = outcomes()
        monkeypatch.setattr(sinkhorn, "_exp", np.exp)
        subnormal = outcomes()
        identical = 0
        for got, want in zip(truncated, subnormal):
            if isinstance(want, tuple):
                assert got == want
                continue
            assert got.iterations_used == want.iterations_used
            assert got.converged == want.converged
            assert got.value == pytest.approx(want.value, rel=1e-12)
            assert_allclose(got.gap_history, want.gap_history, rtol=1e-12)
            assert_allclose(got.plan.matrix, want.plan.matrix, rtol=0.0, atol=1e-12)
            identical += got.value == want.value
        # the dropped entries lie far under the float64 spacing of the values
        assert identical >= len(solves) // 2


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
        grouped = rot_distance(src, tgt, converged_config(PNormConfig(k=1)), trivial)
        assert grouped.value == pytest.approx(full.value, abs=1e-9)
        assert_allclose(grouped.plan.matrix, full.plan.matrix, atol=1e-9)
        assert_allclose(grouped.gap_history, full.gap_history, atol=1e-9)

    def test_grouped_metric_shape(self):
        rng = np.random.default_rng(15)
        src, tgt = random_instance(rng, 3, 4, 10)
        grouping = make_grouping(10, 5, seed=2)
        result = rot_distance(src, tgt, converged_config(PNormConfig(k=1)), grouping)
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
        value = rot_distance(
            src, tgt, FWConfig(None, SinkhornConfig(lambda_beta=0.005, iterations=8000))
        ).value
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
                w22 = rot_distance(
                    src, tgt, FWConfig(None, SinkhornConfig(lambda_beta=0.02, iterations=400))
                ).value
                assert wp <= w22 + 1e-6
                assert wp >= w22 / d ** (1.0 / p) - 1e-6
