"""Release acceptance gate.

One test per shipping criterion. Each test prints a single
``criterion N PASS (...)`` line with its measured wall time and fails if the
stated runtime budget is exceeded, so a verbose run of this module reads as a
checklist. The criteria pin down the numerical claims the rest of the suite
checks piecewise: distance bounds against the plain quadratic transport cost,
frozen small-instance optima, closed-form metric optimality, gradient
correctness, the grouped Kronecker equivalence, feature-selection identities,
end-to-end learning, quadratic scaling in the group count, and the loss
contour ordering exposed through the command line.
"""

import json
import time

import numpy as np
import pytest
from scipy.special import logsumexp

from lp_reference import exact_ot_small
from targets import spread_target, unit_rows
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
    feature_selection_objective,
    make_grouping,
    make_measure,
    rot_distance,
    rot_loss,
    rot_loss_gradient,
)
from wrot.classifier import TrainConfig, evaluate, sgd_train
from wrot.cli import main as cli_main
from wrot.data_io import Dataset
from wrot.measures import _pair_costs_full, _point_arrays


def _report(number, label, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, (
        f"criterion {number} exceeded its {budget:.0f}s budget: {elapsed:.1f}s"
    )
    print(f"criterion {number} PASS ({elapsed:.1f}s / {budget:.0f}s budget): {label}")


def random_cloud_pair(rng, m, n, d):
    return (
        make_measure(rng.normal(size=(m, d))),
        make_measure(rng.normal(size=(n, d))),
    )


def test_criterion_1_quadratic_cost_sandwich():
    """W2^2 / d^(1/p) - 1e-6 <= W_P <= W2^2 + 1e-6 on 50 random instances."""
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    d = 10
    # loose solves are enough: the bound holds with slack around 0.29 at its
    # tightest over this sample, far above the 1e-6 tolerance
    sink = SinkhornConfig(lambda_beta=0.02, iterations=100)
    for _ in range(50):
        src, tgt = random_cloud_pair(rng, 5, 5, d)
        w22 = rot_distance(src, tgt, FWConfig(None, sink)).value
        for k in (1, 2):
            p = 2 * k / (2 * k - 1)
            cfg = FWConfig(
                metric=PNormConfig(k=k), sinkhorn=sink, max_iter=20, gap_tol=3e-3
            )
            wp = rot_distance(src, tgt, cfg).value
            assert wp <= w22 + 1e-6
            assert wp >= w22 / d ** (1.0 / p) - 1e-6
    _report(1, "robust p-norm distance sandwiched by the quadratic cost", started, 30)


def test_criterion_2_two_by_two_frozen_optimum():
    """The hand-solvable 2x2 instance: 0.70711 for k=1, 1.000 for the plain cost."""
    started = time.perf_counter()
    src = make_measure(np.array([[0.0, 0.0], [1.0, 1.0]]))
    tgt = make_measure(np.array([[1.0, 0.0], [0.0, 1.0]]))
    value = rot_distance(src, tgt, FWConfig(metric=PNormConfig(k=1))).value
    assert value == pytest.approx(0.70711, abs=1e-3)
    assert rot_distance(src, tgt, FWConfig(None)).value == pytest.approx(1.000, abs=1e-3)
    _report(2, "2x2 frozen optima for the robust and plain distances", started, 1)


def test_criterion_3_closed_form_metric_optimality():
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    d = 6
    base = rng.normal(size=(d, d))
    v = base @ base.T

    # p-norm closed form beats 10^4 random feasible metrics per k
    for k in (1, 2):
        p = 2 * k / (2 * k - 1)
        best = adversarial_value(v, PNormConfig(k=k)).value
        samples = np.abs(rng.normal(size=(10_000, d, d)))
        samples = samples + np.transpose(samples, (0, 2, 1))
        norms = np.sum(samples**p, axis=(1, 2)) ** (1.0 / p)
        samples /= norms[:, None, None]
        values = np.einsum("nij,ij->n", samples, v)
        assert best - values.max() >= -1e-9

    # KL stationarity: V = lambda * log(M*/M0) on the support
    b = np.abs(rng.normal(size=(4, 4)))
    m0 = b @ b.T + np.eye(4)
    small = rng.normal(size=(4, 4))
    v_small = small @ small.T
    result = adversarial_value(v_small, KLConfig(lambda_m=1.5, m0=m0))
    residual = np.abs(v_small - 1.5 * np.log(result.matrix / m0)).max()
    assert residual < 1e-9

    # doubly stochastic solver against the 1-d frozen oracle
    ds = adversarial_value(
        np.diag([1.0, 0.0]),
        DSConfig(lambda_m=1.0, m0=np.array([[0.6, 0.4], [0.4, 0.6]])),
    )
    assert ds.matrix[0, 0] == pytest.approx(0.71207, abs=1e-5)
    assert np.abs(ds.matrix.sum(axis=1) - 1.0).max() < 1e-8
    assert np.abs(ds.matrix.sum(axis=0) - 1.0).max() < 1e-8
    _report(3, "closed-form adversarial metrics are optimal", started, 30)


def test_criterion_4_gradient_suites():
    started = time.perf_counter()

    # plan-space gradient of the adversarial value, all three families
    rng = np.random.default_rng(2)
    families = [PNormConfig(k=1), KLConfig(lambda_m=2.0), DSConfig(lambda_m=2.0)]
    for trial in range(20):
        src, tgt = random_cloud_pair(rng, 3, 4, 3)
        base = TransportPlan(matrix=np.outer(src.weights, tgt.weights))
        # a vertex-pointing direction keeps the perturbed plan inside the
        # transport polytope, so both FD evaluations stay feasible
        vertex, _ = exact_ot_small(
            rng.uniform(size=(3, 4)), src.weights, tgt.weights
        )
        delta = vertex.matrix - base.matrix
        metric = families[trial % 3]

        def objective(gamma):
            # both evaluations stay on the measures' marginals
            assert np.max(np.abs(gamma.sum(axis=1) - src.weights)) <= 1e-8
            assert np.max(np.abs(gamma.sum(axis=0) - tgt.weights)) <= 1e-8
            return adversarial_value(
                displacement_second_moment(TransportPlan(gamma), src, tgt), metric
            ).value

        worst = adversarial_value(
            displacement_second_moment(base, src, tgt), metric
        )
        grad = _pair_costs_full(*_point_arrays(src, tgt), worst.matrix)
        h = 1e-6
        fd = (
            objective(base.matrix + h * delta) - objective(base.matrix - h * delta)
        ) / (2 * h)
        assert fd == pytest.approx(float(np.sum(grad * delta)), rel=1e-4)

    # prediction-space gradient: tangency and finite differences at L=3, L=10,
    # with lambda_beta = lambda_gamma = lam, so the gradient is the value's
    def loss_cfg(lam, fw, sk):
        return FWConfig(
            PNormConfig(), SinkhornConfig(lambda_beta=lam, iterations=sk), fw, gap_tol=None
        )

    rng = np.random.default_rng(4)
    emb3 = unit_rows(rng, 3, 4)
    labels3 = LabelSpace(embeddings=emb3)
    h3 = rng.dirichlet(np.ones(3))
    y3 = spread_target(np.array([0.0, 1.0, 0.0]), alpha=0.05)
    cfg3 = loss_cfg(0.02, 150, 1000)
    grad3, _ = rot_loss_gradient(h3, y3, labels3, cfg3)
    assert abs(grad3.sum()) < 1e-12

    emb10 = unit_rows(rng, 10, 6)
    labels10 = LabelSpace(embeddings=emb10)
    h10 = rng.dirichlet(np.ones(10))
    onehot = np.zeros(10)
    onehot[3] = 1.0
    y10 = spread_target(onehot, alpha=0.05)
    cfg10 = loss_cfg(0.05, 60, 600)
    grad10, _ = rot_loss_gradient(h10, y10, labels10, cfg10)
    assert abs(grad10.sum()) < 1e-12

    eps = 1e-6
    cases = [
        (grad3, h3, y3, labels3, cfg3, 3, [(0, 1), (0, 2), (1, 2)]),
        (grad10, h10, y10, labels10, cfg10, 10, [(0, 4), (2, 7), (5, 9)]),
    ]
    for grad, h, y, labels, cfg, size, pairs in cases:
        lam = cfg.sinkhorn.lambda_beta
        for i, j in pairs:
            u = np.zeros(size)
            u[i], u[j] = 1.0, -1.0
            u /= np.sqrt(2.0)
            plus = rot_loss(h + eps * u, y, labels, cfg, lambda_gamma=lam).value
            minus = rot_loss(h - eps * u, y, labels, cfg, lambda_gamma=lam).value
            fd = (plus - minus) / (2 * eps)
            assert float(grad @ u) == pytest.approx(fd, rel=1e-3)
    _report(4, "plan-space and prediction-space gradients match FD", started, 60)


def test_criterion_5_kronecker_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(21)
    d = 6
    src = make_measure(rng.normal(size=(4, d)))
    tgt = make_measure(rng.normal(size=(5, d)))
    sink = SinkhornConfig(lambda_beta=0.05, iterations=300)

    # singleton groups reproduce the ungrouped path iterate by iterate
    plain = rot_distance(
        src, tgt, FWConfig(metric=PNormConfig(k=1), sinkhorn=sink,
                           max_iter=6, gap_tol=0.0)
    )
    grouped = rot_distance(
        src, tgt, FWConfig(metric=PNormConfig(k=1), sinkhorn=sink,
                           max_iter=6, gap_tol=0.0),
        make_grouping(d, d, seed=1),
    )
    assert len(plain.gap_history) == len(grouped.gap_history) == 6
    np.testing.assert_allclose(plain.gap_history, grouped.gap_history, atol=1e-9)
    assert abs(plain.value - grouped.value) < 1e-9
    np.testing.assert_allclose(plain.plan.matrix, grouped.plan.matrix, atol=1e-9)

    # <V, B kron I> = <U, B> for the grouped second moment
    grouping = make_grouping(d, 3, seed=5)
    assert grouping.pad == 0
    plan = TransportPlan(matrix=np.outer(src.weights, tgt.weights))
    u = displacement_second_moment(plan, src, tgt, grouping)
    v = displacement_second_moment(plan, src, tgt)
    perm = grouping.permutation
    v_perm = v[np.ix_(perm, perm)]
    eye_block = np.eye(grouping.rows_per_group)
    for _ in range(100):
        b = rng.normal(size=(3, 3))
        b = b + b.T
        lhs = float(np.sum(v_perm * np.kron(b, eye_block)))
        rhs = float(np.sum(u * b))
        assert lhs == pytest.approx(rhs, abs=1e-10)
    _report(5, "grouped metric path equals the Kronecker-expanded path", started, 10)


def test_criterion_6_feature_selection_identity():
    """lam*log(value/lam + d) - lam*(d-1) maps the identity-reference KL value
    of diag(V) onto the simplex selection objective."""
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    d = 8
    for _ in range(50):
        src, tgt = random_cloud_pair(rng, 4, 5, d)
        plan = TransportPlan(matrix=np.outer(src.weights, tgt.weights))
        v = displacement_second_moment(plan, src, tgt)
        lam = float(rng.uniform(0.4, 2.0))
        diag_value = adversarial_value(np.diag(np.diag(v)), KLConfig(lambda_m=lam)).value
        lhs = lam * np.log(diag_value / lam + d) - lam * (d - 1)
        rhs = feature_selection_objective(v, lambda_m=lam)
        assert lhs == pytest.approx(rhs, abs=1e-9)
        # the diagonal KL value itself has the exponential closed form
        assert diag_value == pytest.approx(
            lam * (np.exp(np.diag(v) / lam).sum() - d), rel=1e-11
        )
    _report(6, "selection objective equals the transformed KL value", started, 5)


def test_criterion_7_end_to_end_training():
    """3-class Gaussian blobs, 10 features, 3-sigma mean separation, package
    defaults (1 outer iteration, 10 scaling iterations): test AUC >= 0.95."""
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    d = 10
    means = np.zeros((3, d))
    means[0, 0] = means[1, 1] = means[2, 2] = 3.0 / np.sqrt(2.0)

    def sample(n_per):
        feats, labs = [], []
        for c in range(3):
            feats.append(means[c] + rng.normal(size=(n_per, d)))
            labs.append(np.full(n_per, c))
        return np.vstack(feats), np.concatenate(labs)

    names = ["first", "second", "third"]
    x_train, y_train = sample(100)
    x_test, y_test = sample(100)
    train = Dataset(x_train, np.eye(3, dtype=int)[y_train], names)
    test = Dataset(x_test, np.eye(3, dtype=int)[y_test], names)
    labels = LabelSpace(embeddings=np.eye(3))

    config = TrainConfig(epochs=20)  # defaults elsewhere, well under 50 epochs
    result = sgd_train(train, labels, config)
    metrics = evaluate(result.model, test)
    assert metrics.auc >= 0.95
    assert result.epoch_losses[-1] < result.epoch_losses[0]
    _report(7, f"blob training reaches test AUC {metrics.auc:.3f}", started, 60)


def test_criterion_8_group_count_scaling():
    """Per-epoch time at r in {25, 50, 100, 200} fits t = a + b*r^2 with R^2 >= 0.9.

    One loss solve streams over the (L, d1, r) embedding reshape: its moments
    and pair costs cost O(L^2 d + L d r), and the adversary works on an r x r
    moment, which is where the r^2 term comes from. At d = 200 the work that
    does not grow with r dominates and the epoch time is flat up to r of about
    40, so the fit spans r = 25 to r = 200 (singleton groups), where the r x r
    terms rather than the noise of a shared machine set the spread of the
    epoch times.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    n_labels, dim, n_samples = 48, 200, 48
    emb = unit_rows(rng, n_labels, dim)
    features = rng.normal(size=(n_samples, 6))
    hard = rng.integers(0, n_labels, size=n_samples)
    data = Dataset(
        features,
        np.eye(n_labels, dtype=int)[hard],
        [f"label_{i}" for i in range(n_labels)],
    )

    group_counts = (25, 50, 100, 200)
    spaces = [
        LabelSpace(embeddings=emb, grouping=make_grouping(dim, r, seed=0))
        for r in group_counts
    ]
    per_epoch = [np.inf] * len(group_counts)
    # Each r is timed as the minimum over eight warm epochs, taken in rounds
    # that visit every r in turn, so a slow phase of a shared machine lands
    # on all of them alike. The first epoch of each call runs cold.
    for _ in range(4):
        for i, labels in enumerate(spaces):
            result = sgd_train(data, labels, TrainConfig(epochs=3))
            per_epoch[i] = min(per_epoch[i], *result.epoch_seconds[1:])

    t = np.array(per_epoch)
    r_sq = np.array([float(r) ** 2 for r in group_counts])
    design = np.vstack([np.ones_like(r_sq), r_sq]).T
    coef, *_ = np.linalg.lstsq(design, t, rcond=None)
    residual = t - design @ coef
    total = t - t.mean()
    r_squared = 1.0 - float(residual @ residual) / float(total @ total)
    assert coef[1] > 0
    assert r_squared >= 0.9
    _report(
        8,
        f"epoch time fits a + b*r^2 with R^2 = {r_squared:.3f}",
        started,
        300,
    )


def test_criterion_9_contour_ordering(tmp_path, capsys):
    """Through the CLI: the nearer wrong label always loses less, and every
    grid normalizes its maximum to exactly 1."""
    started = time.perf_counter()
    emb_path = tmp_path / "three.txt"
    # near is much closer to the true label than far is
    emb_path.write_text("3 3\nnear 1 0 0\nfar -1 0 0\ntruth 0.8 0.6 0\n")
    for family in ("pnorm", "kl", "ds", "w22"):
        out_csv = tmp_path / f"contour_{family}.csv"
        code = cli_main(
            ["contour", "--labels", "near,far,truth", "--family", family,
             "--embeddings", str(emb_path), "--grid-n", "6", "--out", str(out_csv)]
        )
        capsys.readouterr()
        assert code == 0
        rows = np.array(
            [
                [float(v) for v in line.split(",")]
                for line in out_csv.read_text().strip().split("\n")[1:]
            ]
        )
        value = {(x, y): loss for x, y, loss in rows}
        assert value[(1.0, 0.0)] < value[(0.0, 1.0)]
        assert rows[:, 2].max() == pytest.approx(1.0, abs=1e-12)
    _report(9, "contour ordering holds for every metric family", started, 30)
