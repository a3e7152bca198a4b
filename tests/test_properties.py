"""Property tests for the entropic solver's rounds and automatic domain
choice, its once-per-solve scaling range test against the per-round one,
the self-moment kernel, the Frank-Wolfe loop's carried moment and
gap, translation and support-permutation invariance of the distances, the
loss gradient's tangency to the simplex and its agreement with the
bracket formula on normal plans and with central differences on targets
with zeros, the one-plan exit of one-hot targets and one-point measures
against the general loop, the loss's span-coordinate path
against a solve on the full points, the p-norm distance's scale
covariance, the feature, label, model and embedding file round trips, the
determinism of ``make_grouping``, the identity-metric loop against one
entropic solve on the squared-distance costs, the loss's one sum rule for
its weights, the clipped logsumexp and the one-mat-vec symmetric scaling,
which must equal their plain formulas bit for bit, the finite slice maxima
that logsumexp rests on, in the solve and in
``feature_selection_objective``, and the absorbed kernel's truncated exp
and its cold start.

Examples are derandomized and bounded so the suite stays deterministic and
fast; each property still sweeps shapes, weights and scales no fixed seed
covers.
"""

import importlib
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import logsumexp, xlogy

from targets import spread_target
from wrot import (
    DSConfig,
    FeatureGrouping,
    FWConfig,
    KLConfig,
    LabelSpace,
    PNormConfig,
    SinkhornConfig,
    SoftmaxModel,
    feature_selection_objective,
    load_dataset,
    load_embedding_file,
    load_embeddings,
    load_model,
    make_grouping,
    make_measure,
    rot_distance,
    rot_loss,
    rot_loss_gradient,
    save_features,
    save_labels,
    save_model,
    sinkhorn,
)
from wrot.frank_wolfe import _frank_wolfe
from wrot.measures import _grouped_reshape, _moment_arrays, _pair_costs_full, _point_arrays
from wrot.metric_solvers import _adversary
from wrot.sinkhorn import SinkhornConvergenceError

# the package rebinds ``wrot.rot_loss`` to the function; this is the module
rot_loss_module = importlib.import_module("wrot.rot_loss")
frank_wolfe_module = importlib.import_module("wrot.frank_wolfe")
metric_solvers_module = importlib.import_module("wrot.metric_solvers")
bounded = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def vectors(size, low=0.0):
    return st.lists(st.floats(low, 1.0), min_size=size, max_size=size).map(np.array)


@st.composite
def instances(draw):
    """A unit-range m x n matrix and two weight vectors with entries reaching
    down to about 1e-6."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    unit = draw(vectors(m * n)).reshape(m, n)
    p = draw(vectors(m, 1e-6))
    q = draw(vectors(n, 1e-6))
    return unit, p / p.sum(), q / q.sum()


@bounded
@given(instances(), st.floats(0.005, 2.0), st.floats(1.0, 699.0))
def test_plain_and_log_iterations_agree_below_the_bound(instance, lam, top):
    """Wherever the plain kernel is representable, both domains give the
    same plan."""
    unit, p, q = instance
    scaled = (unit * top * lam) / lam
    assert np.max(scaled) <= sinkhorn._EXP_LIMIT
    marginals = sinkhorn._marginals(p, q, scaled.shape)
    plain = sinkhorn._rounds(-scaled, marginals, 30)[0]
    logd = sinkhorn._rounds(-scaled, marginals, 30, log_first=True)[0]
    assert_allclose(plain, logd, rtol=0.0, atol=1e-10)


def reference_sinkhorn(scaled, p, q, iterations, g):
    """``iterations`` rounds of alternating Sinkhorn on the potentials
    (f, g), in the log domain, row update first."""
    for _ in range(iterations):
        f = np.log(p) - logsumexp(g - scaled, axis=1)
        g = np.log(q) - logsumexp(f[:, None] - scaled, axis=0)
    return np.exp(f[:, None] - scaled + g)


def peaked(unit):
    """``unit`` with its largest entry set to 1, so that ``unit * top``
    peaks at ``top``."""
    unit.flat[np.argmax(unit)] = 1.0
    return unit


@pytest.mark.parametrize("top_range", [(1.0, 699.0), (701.0, 3000.0)])
@bounded
@given(
    instances(),
    st.one_of(st.none(), st.floats(0.0, 50.0)),
    st.data(),
)
def test_rounds_match_a_reference_sinkhorn(top_range, instance, spread, data):
    """Cold or warm, and from either first round, a solve gives the plan of
    alternating log-domain Sinkhorn, on costs peaking below and above the
    plain kernel's limit."""
    unit, p, q = instance
    scaled = peaked(unit) * data.draw(st.floats(*top_range))
    n = q.shape[0]
    g = None if spread is None else data.draw(vectors(n)) * spread
    config = SinkhornConfig(lambda_beta=1.0, iterations=30)
    marginals = sinkhorn._marginals(p, q, scaled.shape)
    plan = sinkhorn._entropic_plan(scaled, marginals, config, g)[0]
    want = reference_sinkhorn(scaled, p, q, 30, np.zeros(n) if g is None else g)
    assert_allclose(plan, want, rtol=0.0, atol=1e-12)


def per_round_checked_rounds(log_kernel, marginals, iterations, g=None, log_first=False):
    """The round loop with its scaling range tested in every round: a round
    whose scalings leave ``exp(+-_EXP_LIMIT / 2)`` is redone in the log
    domain at once. ``sinkhorn._rounds`` tests the range once per solve and
    must return this loop's ``(plan, f, g)`` bit for bit."""
    p, q = marginals.active_p, marginals.active_q
    log_p, log_q = marginals.log_p, marginals.log_q
    if log_first:
        g = np.zeros_like(q) if g is None else g
        kernel, f, g = sinkhorn._absorbed_kernel(log_kernel, log_p, log_q, g)
        v = np.ones_like(q)
    else:
        kernel = np.exp(log_kernel)
        v = np.ones_like(q) if g is None else np.exp(g - np.max(g))
        f = g = 0.0
    u = np.ones_like(p)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(int(log_first), iterations):
            u_next = p / (kernel @ v)
            v_next = q / (kernel.T @ u_next)
            both = np.concatenate((u_next, v_next))
            if sinkhorn._SCALING_LOW <= both.min() and both.max() <= sinkhorn._SCALING_HIGH:
                u, v = u_next, v_next
            else:
                kernel, f, g = sinkhorn._absorbed_kernel(log_kernel, log_p, log_q, g + np.log(v))
                u, v = np.ones_like(p), np.ones_like(q)
        return kernel * u[:, None] * v, f + np.log(u), g + np.log(v)


def assert_same_rounds(got, want):
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("top_range", [(1.0, 699.0), (600.0, 700.0), (701.0, 3000.0)])
@bounded
@given(
    instances(),
    st.lists(st.integers(5, 250), max_size=2),
    st.one_of(st.none(), st.floats(0.0, 1000.0)),
    st.integers(1, 30),
    st.booleans(),
    st.data(),
)
def test_one_range_test_per_solve_equals_the_per_round_test(
    top_range, instance, tiny, spread, iterations, log_first, data
):
    """Testing the scalings' range once per solve, and rerunning the rounds
    with the test in each round only when a scaling left it, gives the
    per-round loop's plan and potentials bit for bit: cold or warm, from
    either first round, on costs peaking below, near and past the plain
    kernel's limit and on weights down to 1e-250, which push the scalings
    out of range."""
    unit, p, q = instance
    unit, top = peaked(unit), data.draw(st.floats(*top_range))
    for exponent in tiny:
        weights = p if data.draw(st.booleans()) else q
        weights[data.draw(st.integers(0, weights.size - 1))] = 10.0**-exponent
    p, q = p / p.sum(), q / q.sum()
    g = None if spread is None else data.draw(vectors(q.size)) * spread
    marginals = sinkhorn._marginals(p, q, unit.shape)
    args = (-unit * top, marginals, iterations, g, log_first)
    assert_same_rounds(sinkhorn._rounds(*args), per_round_checked_rounds(*args))


def test_scalings_that_leave_the_range_and_return_rerun_the_rounds(monkeypatch):
    """Cold plain rounds on this 2 x 2 cost leave the scaling range in the
    first four rounds and are back in it from the fifth, so a test of the
    last scalings alone would keep the unchecked rounds. The solve reruns
    them with the per-round test, which absorbs into the log domain, and
    returns the per-round loop's result."""
    scaled = np.array([[550.0, 296.0], [371.0, 379.0]])
    marginals = sinkhorn._marginals(np.array([0.99, 0.01]), np.array([0.84, 0.16]), (2, 2))
    absorbed = []
    absorb = sinkhorn._absorbed_kernel

    def counting_absorb(*args):
        absorbed.append(args)
        return absorb(*args)

    monkeypatch.setattr(sinkhorn, "_absorbed_kernel", counting_absorb)
    got = sinkhorn._rounds(-scaled, marginals, 10)
    assert absorbed
    assert_same_rounds(got, per_round_checked_rounds(-scaled, marginals, 10))


@bounded
@given(
    instances(),
    st.data(),
    st.floats(0.0, 697.0),
    st.floats(701.0, 3000.0),
    st.booleans(),
)
def test_warm_start_across_a_domain_switch(instance, data, low, high, up):
    """A warm start from a solve in the other domain converges to the cold
    solve's plan.

    Each scaled cost is a row-plus-column offset, whose maximum picks the
    domain, plus an interaction of at most 3, which sets the plan and keeps
    the scaling rounds contracting fast.
    """
    unit, p, q = instance
    m, n = unit.shape

    def scaled_cost(top, interaction):
        rows = data.draw(vectors(m))
        rows[0] = 1.0
        offset = rows[:, None] + data.draw(vectors(n))[None, :]
        return offset * (top / offset.max()) + 3.0 * interaction

    below = scaled_cost(low, unit[::-1, ::-1])
    above = scaled_cost(high, unit)
    assert below.max() <= sinkhorn._EXP_LIMIT < above.max()
    first, second = (below, above) if up else (above, below)
    # lambda_beta is 1, so these are the scaled costs themselves
    config = SinkhornConfig(lambda_beta=1.0, iterations=2000)
    marginals = sinkhorn._marginals(p, q, unit.shape)
    _, _, state = sinkhorn._entropic_plan(first, marginals, config)
    warm = sinkhorn._entropic_plan(second, marginals, config, state=state)[0]
    cold = sinkhorn._entropic_plan(second, marginals, config)[0]
    for plan in (warm, cold):
        residual = max(np.abs(plan.sum(axis=1) - p).max(), np.abs(plan.sum(axis=0) - q).max())
        assert residual <= 1e-11
    assert_allclose(warm, cold, rtol=0.0, atol=1e-10)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 12), st.integers(3, 12))
def test_wide_clouds_solve_with_default_settings(seed, m, n):
    """Standard normals times 30 put max|cost| / lambda_beta far above 700
    at the default lambda_beta; both distances still return finite values
    and a plan with exact column sums."""
    rng = np.random.default_rng(seed)
    src = make_measure(30.0 * rng.normal(size=(m, 4)))
    tgt = make_measure(30.0 * rng.normal(size=(n, 4)), rng.random(n) + 0.1)
    assert np.isfinite(rot_distance(src, tgt, FWConfig(None)).value)
    result = rot_distance(src, tgt, FWConfig(metric=PNormConfig(k=1), max_iter=10))
    assert np.isfinite(result.value)
    assert_allclose(result.plan.matrix.sum(axis=0), tgt.weights, rtol=0.0, atol=1e-9)


@bounded
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 7),
    st.sampled_from([(), (1,), (3,)]),
    st.integers(1, 5),
    st.sampled_from([1.0, 1e-8, 0.0]),
)
def test_self_moment_matches_a_per_pair_sum(seed, n, rows, k, off_mass):
    """For ``tgt is src`` the Laplacian form of the moment matches a
    per-pair sum to 1e-12 of its largest entry and is exactly symmetric, for
    plain (n, k) points and (n, d1, k) arrays, down to near-identity plans.
    It equals, bit for bit, the Laplacian built with ``np.fill_diagonal``."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, *rows, k))
    gamma = np.diag(rng.uniform(0.5, 1.5, n)) + off_mass * rng.uniform(size=(n, n))
    gamma /= gamma.sum()
    pts = points.reshape(n, -1, k)
    diff = pts[:, None] - pts[None, :]
    want = np.einsum("ij,ijak,ijal->kl", gamma, diff, diff)
    got = _moment_arrays(gamma, points, points)
    assert np.array_equal(got, got.T)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    laplacian = -(gamma + gamma.T)
    np.fill_diagonal(laplacian, 0.0)
    np.fill_diagonal(laplacian, -laplacian.sum(axis=1))
    v = points.reshape(-1, k).T @ (laplacian @ points.reshape(n, -1)).reshape(-1, k)
    assert np.array_equal(got, 0.5 * (v + v.T))


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 6.0))
def test_distances_ignore_a_common_shift(seed, exponent):
    """Shifting both clouds by one vector of length up to 1e6 moves every
    family's robust distance and w22 by at most 1e-9 relative."""
    rng = np.random.default_rng(seed)
    src = make_measure(rng.normal(size=(16, 4)))
    tgt = make_measure(rng.normal(size=(16, 4)) + 0.5, rng.random(16) + 0.1)
    shift = rng.normal(size=4)
    shift *= 10.0**exponent / np.linalg.norm(shift)
    moved = (make_measure(src.points + shift), make_measure(tgt.points + shift, tgt.weights))
    for metric in (PNormConfig(k=1), PNormConfig(k=2), KLConfig(), DSConfig()):
        config = FWConfig(metric=metric, max_iter=5)
        want = rot_distance(src, tgt, config).value
        assert rot_distance(*moved, config).value == pytest.approx(want, rel=1e-9)
    identity = FWConfig(None)
    assert rot_distance(*moved, identity).value == pytest.approx(
        rot_distance(src, tgt, identity).value, rel=1e-9
    )


@bounded
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 64),
    st.integers(1, 64),
    st.integers(1, 16),
    st.sampled_from([0.2, 0.02]),
    st.booleans(),
    st.data(),
)
def test_identity_metric_loop_equals_w22(seed, m, n, dim, lam, grouped, data):
    """At the identity metric the Frank-Wolfe loop is the plain entropic
    W2^2: ``rot_distance`` with ``metric=None`` equals ``<P, C>``, with
    ``P`` one entropic solve on the squared-distance costs ``C`` of the
    centred clouds, to 1e-12 relative, with or without a feature grouping,
    in either Sinkhorn domain, and stops converged within 2 iterations. Its
    costs never move, so the second oracle plan is the first and the gap
    is 0."""
    rng = np.random.default_rng(seed)
    src = make_measure(rng.normal(size=(m, dim)), rng.uniform(0.05, 1.0, m))
    tgt = make_measure(rng.normal(size=(n, dim)) + 0.5, rng.uniform(0.05, 1.0, n))
    grouping = None
    if grouped:
        # group counts that leave no group all padding
        counts = [r for r in range(1, dim + 1) if -(-dim // r) * r - dim < -(-dim // r)]
        grouping = make_grouping(dim, data.draw(st.sampled_from(counts)), seed)
    sink = SinkhornConfig(lambda_beta=lam)
    result = rot_distance(src, tgt, FWConfig(None, sink), grouping)
    centre = src.weights @ src.points
    diff = (src.points - centre)[:, None] - (tgt.points - centre)[None]
    cost = (diff**2).sum(axis=2)
    marginals = sinkhorn._marginals(src.weights, tgt.weights, cost.shape)
    plan = sinkhorn._entropic_plan(cost, marginals, sink)[0]
    assert result.value == pytest.approx(float((plan * cost).sum()), rel=1e-12)
    assert result.iterations_used <= 2
    assert result.converged


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 8),
    st.integers(2, 8),
    st.integers(1, 5),
    st.floats(-3.0, 3.0),
    st.sampled_from([0.2, 0.02]),
    st.integers(1, 10),
)
def test_pnorm_distances_scale_with_the_clouds(seed, m, n, dim, exponent, lam, max_iter):
    """Scaling both clouds by c and lambda_beta by c^2 scales the p-norm
    robust distance by c^2 to 1e-9 relative, in either Sinkhorn domain and
    at the same iteration count: the worst-case metric is normalized, so the
    pair costs scale by c^2 and their ratio to lambda_beta does not. A gap
    tolerance of 0 is scale-free, so both solves stop alike."""
    rng = np.random.default_rng(seed)
    src = make_measure(rng.normal(size=(m, dim)), rng.uniform(0.05, 1.0, m))
    tgt = make_measure(rng.normal(size=(n, dim)) + 0.5, rng.uniform(0.05, 1.0, n))
    c = 10.0**exponent
    scaled = (make_measure(c * src.points, src.weights), make_measure(c * tgt.points, tgt.weights))
    for metric in (PNormConfig(k=1), PNormConfig(k=2)):
        config = FWConfig(metric, SinkhornConfig(lambda_beta=lam), max_iter=max_iter, gap_tol=0.0)
        want = rot_distance(src, tgt, config)
        config = FWConfig(
            metric, SinkhornConfig(lambda_beta=c**2 * lam), max_iter=max_iter, gap_tol=0.0
        )
        got = rot_distance(*scaled, config)
        assert got.iterations_used == want.iterations_used
        assert got.value == pytest.approx(c**2 * want.value, rel=1e-9)


@bounded
@given(
    st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(2, 8), st.integers(1, 5)
)
def test_distances_ignore_the_order_of_the_support(seed, m, n, dim):
    """Permuting each cloud's points together with their weights permutes
    the plan's rows and columns and changes neither the value nor the
    iteration count."""
    rng = np.random.default_rng(seed)
    src = make_measure(rng.normal(size=(m, dim)), rng.uniform(0.05, 1.0, m))
    tgt = make_measure(rng.normal(size=(n, dim)) + 0.5, rng.uniform(0.05, 1.0, n))
    rows, cols = rng.permutation(m), rng.permutation(n)
    moved = (
        make_measure(src.points[rows], src.weights[rows]),
        make_measure(tgt.points[cols], tgt.weights[cols]),
    )
    for metric in (PNormConfig(k=1), PNormConfig(k=2), KLConfig(), DSConfig()):
        config = FWConfig(metric=metric, max_iter=10)
        want = rot_distance(src, tgt, config)
        got = rot_distance(*moved, config)
        assert got.iterations_used == want.iterations_used
        assert got.value == pytest.approx(want.value, rel=1e-12)
        want_plan = want.plan.matrix[np.ix_(rows, cols)]
        assert_allclose(got.plan.matrix, want_plan, rtol=0.0, atol=1e-12)


FW_FAMILIES = [None, PNormConfig(k=1), PNormConfig(k=2), KLConfig(), DSConfig()]


@bounded
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 7),
    st.integers(2, 7),
    st.sampled_from(range(len(FW_FAMILIES))),
    st.sampled_from([None, 2]),
    st.booleans(),
    st.integers(1, 6),
    st.sampled_from([-np.inf, 1e-3]),
)
def test_carried_moment_and_gaps_match_the_plans(
    seed, m, n, family, groups, self_pair, max_iter, gap_tol
):
    """Frank-Wolfe's carried moment gives the worst case at the returned
    plan to 1e-12 relative, and each recorded gap is ``<gamma_t - P_t,
    C_t>`` to 1e-12 of its terms, for every family, ungrouped or at r = 2,
    on self and non-self pairs; the plan steps exactly as the formula."""
    rng = np.random.default_rng(seed)
    dim = 5
    src = make_measure(rng.normal(size=(m, dim)), rng.uniform(0.05, 1.0, m))
    tgt = src if self_pair else make_measure(rng.normal(size=(n, dim)) + 0.5)
    grouping = None if groups is None else make_grouping(dim, groups, seed)
    src_arr, tgt_arr = _point_arrays(src, tgt, grouping)
    metric = FW_FAMILIES[family]
    marginals = sinkhorn._marginals(src.weights, tgt.weights, (src.size, tgt.size))
    calls = []

    def oracle(costs):
        plan = sinkhorn._entropic_plan(costs, marginals, SinkhornConfig())[0]
        calls.append((costs.copy(), plan.copy()))
        return plan

    gamma, worst, gaps, converged = _frank_wolfe(
        src_arr, tgt_arr, metric, oracle, marginals, max_iter, gap_tol
    )
    assert len(gaps) == len(calls)
    assert converged or len(gaps) == max_iter
    iterate = np.outer(src.weights, tgt.weights)
    for t, ((costs, plan), gap) in enumerate(zip(calls, gaps)):
        terms = np.sum((iterate + plan) * np.abs(costs))
        assert abs(gap - np.sum((iterate - plan) * costs)) <= 1e-12 * terms
        if not (converged and t == len(gaps) - 1):
            theta = 2.0 / (t + 2.0)
            iterate = (1.0 - theta) * iterate + theta * plan
    assert np.array_equal(gamma, iterate)
    want = _adversary(_moment_arrays(gamma, src_arr, tgt_arr), metric)
    assert worst.value == pytest.approx(want.value, rel=1e-12)


@st.composite
def grouping_shapes(draw):
    """A dim in 1..300 and a group count r that leaves no group all padding:
    with d1 = ceil(dim / r) rows per group, the pad d1 * r - dim is below d1."""
    dim = draw(st.integers(1, 300))
    accepted = [r for r in range(1, dim + 1) if -(-dim // r) * r - dim < -(-dim // r)]
    return dim, draw(st.sampled_from(accepted))


@bounded
@given(grouping_shapes(), st.integers(0, 2**32 - 1))
def test_make_grouping_is_determined_by_its_arguments(shape, seed):
    """Every grouping make_grouping builds is rebuilt from ``(dim, r, seed)``
    with the same fields and the same reshape of points, which is what lets
    a grouped run be reproduced from its command line alone."""
    dim, r = shape
    grouping = make_grouping(dim, r, seed)
    again = make_grouping(dim, r, seed)
    fields = ("dim", "group_count", "rows_per_group", "pad", "padded_dim")
    assert [getattr(again, f) for f in fields] == [getattr(grouping, f) for f in fields]
    assert np.array_equal(again.permutation, grouping.permutation)
    points = np.random.default_rng(seed).normal(size=(3, dim))
    assert np.array_equal(
        _grouped_reshape(points, again), _grouped_reshape(points, grouping)
    )


LOSS_FAMILIES = [None, PNormConfig(k=1), PNormConfig(k=2), KLConfig(), DSConfig()]


@bounded
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 8),
    st.sampled_from(range(len(LOSS_FAMILIES))),
    st.sampled_from([None, 1, 3, 6]),
    st.integers(1, 4),
    st.booleans(),
)
def test_loss_gradient_is_tangent_to_the_simplex(seed, size, family, groups, max_iter, spread):
    """For every family, ungrouped or grouped, the loss gradient in the
    prediction sums to zero to rounding: it moves along the simplex. The
    target is a label row normalized as sgd_train does, zeros and one-hot
    rows included, or that row spread to positive weights."""
    rng = np.random.default_rng(seed)
    emb = rng.normal(size=(size, 6))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    grouping = None if groups is None else make_grouping(6, groups, seed)
    labels = LabelSpace(embeddings=emb, grouping=grouping)
    h = 0.9 * rng.dirichlet(np.ones(size)) + 0.1 / size
    raw = rng.integers(0, 2, size=size).astype(float)
    raw[rng.integers(size)] = 1.0
    config = FWConfig(LOSS_FAMILIES[family], max_iter=max_iter, gap_tol=None)
    y = spread_target(raw) if spread else raw / raw.sum()
    grad, loss = rot_loss_gradient(h, y, labels, config)
    assert np.isfinite(loss.value)
    assert abs(grad.sum()) <= 1e-12


def full_point_loss(h, y, emb, config, lambda_gamma=0.02):
    """Reference for the span path and the potential gradient: the loss
    solved on the point array ``emb`` (the full d-dimensional embeddings, or
    a grouped reshape), step for step as ``rot_loss_gradient`` solves it at
    its default ``lambda_gamma``.
    Returns the value, plan, worst-case metric matrix and gradient. The
    gradient is the bracket formula, the recentred row means of ``C* +
    lambda_beta (log P + 1)`` with ``P`` one more oracle plan at the final
    costs ``C*``; it is None when an entry of ``P`` is below the smallest
    normal float, whose log it could not take accurately."""
    size = emb.shape[0]
    marginals = sinkhorn._marginals(h, y, (size, size))
    warm = None

    def oracle(costs):
        nonlocal warm
        plan, _, warm = sinkhorn._entropic_plan(costs, marginals, config.sinkhorn, state=warm)
        return plan

    gamma, worst, _, _ = _frank_wolfe(
        emb, emb, config.metric, oracle, marginals, config.max_iter, config.gap_tol
    )
    value = worst.value + lambda_gamma * float(np.sum(xlogy(gamma, gamma)))
    costs = _pair_costs_full(emb, emb, worst.matrix)
    plan = oracle(costs)
    if plan.min() < np.finfo(float).tiny:
        return value, gamma, worst.matrix, None
    rows = (costs + config.sinkhorn.lambda_beta * (np.log(plan) + 1.0)).sum(axis=1)
    return value, gamma, worst.matrix, rows / size - rows.sum() / size**2


def assert_close_to_reference(got, want):
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@bounded
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 8),
    st.data(),
    st.sampled_from([PNormConfig(k=1), None]),
    st.integers(1, 3),
)
def test_span_path_matches_the_full_point_solve(seed, size, data, metric, max_iter):
    """An ungrouped space with L < d <= 3L solves p-norm k = 1 and the
    identity metric in L span coordinates; value, plan, gradient and the
    mapped-back d x d worst case match a solve on the full points to 1e-12
    relative."""
    dim = data.draw(st.integers(size + 1, 3 * size))
    rng = np.random.default_rng(seed)
    emb = rng.normal(size=(size, dim))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    labels = LabelSpace(embeddings=emb)
    h = 0.9 * rng.dirichlet(np.ones(size)) + 0.1 / size
    raw = rng.integers(0, 2, size=size).astype(float)
    raw[rng.integers(size)] = 1.0
    y = spread_target(raw)
    config = FWConfig(metric, max_iter=max_iter, gap_tol=None)
    grad, loss = rot_loss_gradient(h, y, labels, config)
    value, plan, worst, want_grad = full_point_loss(h, y, labels.embeddings, config)
    assert loss.value == pytest.approx(value, rel=1e-12)
    assert_close_to_reference(loss.plan.matrix, plan)
    assert_close_to_reference(grad, want_grad)
    assert loss.metric.matrix.shape == (dim, dim)
    assert_close_to_reference(loss.metric.matrix, worst)


@bounded
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 8),
    st.sampled_from(range(len(LOSS_FAMILIES))),
    st.sampled_from([None, 1, 3, 6]),
    st.integers(1, 3),
    st.sampled_from([0.2, 0.05, 0.02, 0.005]),
)
def test_potential_gradient_matches_the_bracket_formula(
    seed, size, family, groups, max_iter, lambda_beta
):
    """The gradient read from the oracle's row potential, ``lambda_beta (f -
    mean f)``, matches the bracket formula to 1e-12 relative for every
    family, ungrouped or grouped, on every oracle plan whose entries are
    all normal floats. At the smaller lambda_beta some of the loop's solves
    run a log-domain round, and the last one starts warm from them."""
    rng = np.random.default_rng(seed)
    emb = rng.normal(size=(size, 6))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    grouping = None if groups is None else make_grouping(6, groups, seed)
    labels = LabelSpace(embeddings=emb, grouping=grouping)
    h = 0.9 * rng.dirichlet(np.ones(size)) + 0.1 / size
    raw = rng.integers(0, 2, size=size).astype(float)
    raw[rng.integers(size)] = 1.0
    y = spread_target(raw)
    config = FWConfig(
        LOSS_FAMILIES[family], SinkhornConfig(lambda_beta=lambda_beta), max_iter, gap_tol=None
    )
    want = full_point_loss(h, y, labels._points, config)[3]
    assume(want is not None)
    grad, _ = rot_loss_gradient(h, y, labels, config)
    assert_close_to_reference(grad, want)


@bounded
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 8),
    st.integers(2, 10),
    st.sampled_from(range(len(LOSS_FAMILIES))),
    st.sampled_from([None, 1, 2, "singletons"]),
)
def test_only_rotation_invariant_families_solve_in_the_span(seed, size, dim, family, groups):
    """Frank-Wolfe runs on the span coordinates only for p-norm k = 1 and
    the identity metric on an ungrouped space with fewer labels than
    dimensions; KL, DS, k = 2 and every grouped space, singleton groups
    (r = d) included, run on the space's own point array."""
    rng = np.random.default_rng(seed)
    emb = rng.normal(size=(size, dim))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    r = dim if groups == "singletons" else groups
    grouping = None if r is None else make_grouping(dim, r, seed)
    labels = LabelSpace(embeddings=emb, grouping=grouping)
    metric = LOSS_FAMILIES[family]
    seen = []

    def spy(src, *args):
        seen.append(src)
        return _frank_wolfe(src, *args)

    h = 0.9 * rng.dirichlet(np.ones(size)) + 0.1 / size
    with mock.patch.object(rot_loss_module, "_frank_wolfe", spy):
        config = FWConfig(metric, max_iter=1, gap_tol=None)
        rot_loss_gradient(h, np.eye(size)[0], labels, config)
    in_span = r is None and size < dim and metric in (None, PNormConfig(k=1))
    assert len(seen) == 1
    assert seen[0] is (labels._coords if in_span else labels._points)


def general_loop(src, tgt, metric, oracle, marginals, *rest):
    """``_frank_wolfe`` without its one-plan exit: the loop reads only ``p``,
    ``q`` and the active sizes of ``marginals``, which it is told are 2,
    while the oracle keeps the real ones from its caller."""
    two = np.ones(2)
    marginals = marginals._replace(active_p=two, active_q=two)
    return _frank_wolfe(src, tgt, metric, oracle, marginals, *rest)


ONE_PLAN_FAMILIES = LOSS_FAMILIES + [PNormConfig(k=3)]


def one_plan_space(rng, size, space):
    """A label space of ``size`` labels: ungrouped with as many dimensions
    (``full``), grouped in R^6, or ungrouped in R^(size + 2) with a span
    basis."""
    dim = {"full": size, "grouped": 6, "span": size + 2}[space]
    emb = rng.normal(size=(size, dim))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    grouping = make_grouping(dim, 3, 0) if space == "grouped" else None
    return LabelSpace(embeddings=emb, grouping=grouping)


@bounded
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.sampled_from(range(len(ONE_PLAN_FAMILIES))),
    st.sampled_from(["full", "grouped", "span"]),
    st.booleans(),
    st.integers(1, 5),
)
def test_one_plan_exit_matches_the_general_loop(
    seed, size, family, space, one_hot_target, max_iter
):
    """A one-hot target, or a one-point prediction, admits one plan, which
    the loop returns with no oracle call. Value, plan and worst-case metric
    match a run of every step of the general loop to 1e-12 relative, and so
    does the gradient, whose closed form for a one-hot target replaces the
    L x 1 oracle's row potential; for every family, on full, grouped and
    span spaces."""
    rng = np.random.default_rng(seed)
    labels = one_plan_space(rng, size, space)
    spread = 0.9 * rng.dirichlet(np.ones(size)) + 0.1 / size
    one_hot = np.eye(size)[rng.integers(size)]
    h, y = (spread, one_hot) if one_hot_target else (one_hot, spread)
    config = FWConfig(ONE_PLAN_FAMILIES[family], max_iter=max_iter, gap_tol=None)
    if one_hot_target:
        grad, loss = rot_loss_gradient(h, y, labels, config)
    else:
        loss = rot_loss_module.rot_loss(h, y, labels, config)
    assert loss.gap_history == (0.0,) and loss.converged is False
    with mock.patch.object(rot_loss_module, "_frank_wolfe", general_loop):
        general, _, solve, points = rot_loss_module._solve(h, y, labels, config, 0.02)
    assert general.iterations_used == max_iter
    assert loss.value == pytest.approx(general.value, rel=1e-12)
    assert_close_to_reference(loss.plan.matrix, general.plan.matrix)
    assert_close_to_reference(loss.metric.matrix, general.metric.matrix)
    if one_hot_target:
        f = solve(_pair_costs_full(points, points, general._worst.matrix))[1]
        assert_close_to_reference(grad, config.sinkhorn.lambda_beta * (f - f.mean()))


@bounded
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.sampled_from(range(len(ONE_PLAN_FAMILIES))),
    st.sampled_from([None, 3]),
    st.booleans(),
    st.integers(1, 5),
)
def test_one_point_distance_matches_the_general_loop(seed, n, family, groups, swap, max_iter):
    """A distance to or from a one-point measure takes the same exit: its
    value, plan and worst-case metric match every step of the general loop
    to 1e-12 relative, and its one gap of 0.0 meets any tolerance."""
    rng = np.random.default_rng(seed)
    one = make_measure(rng.normal(size=(1, 6)))
    many = make_measure(rng.normal(size=(n, 6)) + 0.5, rng.dirichlet(np.ones(n)))
    src, tgt = (many, one) if swap else (one, many)
    grouping = None if groups is None else make_grouping(6, groups, seed)
    metric = ONE_PLAN_FAMILIES[family]
    result = rot_distance(src, tgt, FWConfig(metric, max_iter=max_iter), grouping)
    assert result.gap_history == (0.0,) and result.converged is True
    config = FWConfig(metric, max_iter=max_iter, gap_tol=None)
    with mock.patch.object(frank_wolfe_module, "_frank_wolfe", general_loop):
        general = rot_distance(src, tgt, config, grouping)
    assert general.iterations_used == max_iter
    assert result.value == pytest.approx(general.value, rel=1e-12)
    assert_close_to_reference(result.plan.matrix, general.plan.matrix)
    assert_close_to_reference(result.metric.matrix, general.metric.matrix)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(3, 6),
    st.integers(2, 6),
    st.sampled_from(range(len(LOSS_FAMILIES))),
)
def test_gradient_at_a_target_with_zeros_matches_finite_differences(seed, size, dim, family):
    """On a target with zero weights and two or more positive ones, the
    gradient, read from the oracle's row potential on the target's support,
    matches central differences of the value at converged settings
    (lambda_beta = lambda_gamma = 0.1, 100 steps, 500 rounds) to 1e-3 of
    its norm, along two random simplex directions."""
    rng = np.random.default_rng(seed)
    emb = rng.normal(size=(size, dim))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    labels = LabelSpace(embeddings=emb)
    h = 0.9 * rng.dirichlet(np.ones(size)) + 0.1 / size
    support = rng.choice(size, int(rng.integers(2, size)), replace=False)
    y = np.zeros(size)
    y[support] = rng.dirichlet(np.ones(support.size))
    lam = 0.1
    config = FWConfig(
        LOSS_FAMILIES[family], SinkhornConfig(lambda_beta=lam, iterations=500), 100, gap_tol=None
    )
    grad, _ = rot_loss_gradient(h, y, labels, config)
    eps = 1e-6
    for _ in range(2):
        i, j = rng.choice(size, 2, replace=False)
        u = np.zeros(size)
        u[i], u[j] = 1.0, -1.0
        u /= np.sqrt(2.0)
        plus, minus = (
            rot_loss_module.rot_loss(h + s * u, y, labels, config, lambda_gamma=lam).value
            for s in (eps, -eps)
        )
        assert abs(grad @ u - (plus - minus) / (2 * eps)) <= 1e-3 * np.linalg.norm(grad)


# a sum error the 1e-12 rule accepts (the drawn vectors sum to 1 within a
# few 1e-16), and one it refuses, of either sign
ACCEPTED_SUM_ERRORS = st.floats(-0.99e-12, 0.99e-12)
REFUSED_SUM_ERRORS = st.floats(1e-11, 1e-8) | st.floats(-1e-8, -1e-11)


@bounded
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 6),
    st.integers(1, 3),
    st.sampled_from(["predicted", "target"]),
    st.booleans(),
    st.data(),
)
def test_loss_weights_follow_the_one_sum_rule(seed, size, hot, side, refused, data):
    """``rot_loss`` and ``rot_loss_gradient`` solve weights whose sum is
    within 1e-12 of 1, and the result's plan builds, on one-hot and
    multi-hot targets; a sum off by 1e-11 to 1e-8 is refused at the entry,
    by the argument's name."""
    rng = np.random.default_rng(seed)
    labels = LabelSpace(np.eye(size))
    h = rng.uniform(0.1, 1.0, size)
    weights = {"predicted": h / h.sum(), "target": np.zeros(size)}
    weights["target"][rng.choice(size, min(hot, size), replace=False)] = 1.0 / min(hot, size)
    error = data.draw(REFUSED_SUM_ERRORS if refused else ACCEPTED_SUM_ERRORS)
    weights[side][np.argmax(weights[side])] += error
    args = (weights["predicted"], weights["target"], labels)
    if refused:
        for solve in (rot_loss, rot_loss_gradient):
            with pytest.raises(ValueError, match=f"^{side} must sum to 1"):
                solve(*args)
    else:
        for loss in (rot_loss(*args), rot_loss_gradient(*args)[1]):
            assert loss.plan.shape == (size, size)


@pytest.mark.parametrize("target", [[0.5, 0.5 + 5e-9, 0.0], [0.0, 1.0 + 5e-9, 0.0]])
@pytest.mark.parametrize("solve", [rot_loss, rot_loss_gradient])
def test_a_target_off_by_5e_9_is_refused_at_the_entry(target, solve):
    """Both targets passed the old 1e-8 rule: the two-hot one then failed
    in the oracle with an OverflowError that blamed lambda_beta, and the
    one-hot one when its plan was first read."""
    with pytest.raises(ValueError, match="^target must sum to 1"):
        solve([0.3, 0.3, 0.4], target, LabelSpace(np.eye(3)))


@st.composite
def labelled_features(draw, elements):
    """An n x m feature matrix of the given elements and an n x L indicator
    matrix with at least one label per row."""
    n, m, size = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    features = np.array(draw(st.lists(elements, min_size=n * m, max_size=n * m)))
    bits = draw(st.lists(st.booleans(), min_size=n * size, max_size=n * size))
    labels = np.array(bits, dtype=np.int8).reshape(n, size)
    labels[np.arange(n), draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n))] = 1
    return features.reshape(n, m), labels


finite = st.floats(allow_nan=False, allow_infinity=False)
float32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@bounded
@given(
    st.one_of(
        st.tuples(st.just(True), labelled_features(float32)),
        st.tuples(st.just(False), labelled_features(finite)),
    )
)
def test_dataset_files_round_trip(case):
    """Features in either format and labels saved as index lines load back
    equal: the ``.npy`` file ``save_features`` writes for float32-representable
    values, CSV with 17 significant digits for any finite float."""
    binary, (features, labels) = case
    with tempfile.TemporaryDirectory() as tmp:
        features_path = os.path.join(tmp, "features")
        labels_path = os.path.join(tmp, "labels.txt")
        if binary:
            save_features(features_path, features)
        else:
            np.savetxt(features_path, features, fmt="%.17g", delimiter=",")
        save_labels(labels_path, labels)
        dataset = load_dataset(features_path, labels_path, num_labels=labels.shape[1])
    assert np.array_equal(dataset.features, features)
    assert np.array_equal(dataset.labels, labels)


# the same values as a C array, a Fortran array and a strided view
LAYOUTS = {
    "C": np.ascontiguousarray,
    "Fortran": np.asfortranarray,
    "strided": lambda a: np.repeat(np.repeat(a, 2, axis=0), 3, axis=1)[::2, ::3],
}
in_float32_range = st.floats(-3.4e38, 3.4e38)


@bounded
@given(st.integers(1, 8), st.integers(1, 8), st.sampled_from(sorted(LAYOUTS)), st.data())
def test_feature_file_round_trips_the_float32_rounding(n, m, layout, data):
    """``save_features`` writes an ``.npy`` file that numpy reads as the
    float32 rounding of the input, and ``load_dataset`` as that rounding in
    float64, bit for bit, whatever the input's memory layout."""
    values = np.array(data.draw(st.lists(in_float32_range, min_size=n * m, max_size=n * m)))
    features = LAYOUTS[layout](values.reshape(n, m))
    rounded = values.reshape(n, m).astype(np.float32)
    with tempfile.TemporaryDirectory() as tmp:
        features_path = os.path.join(tmp, "features.npy")
        labels_path = os.path.join(tmp, "labels.txt")
        save_features(features_path, features)
        save_labels(labels_path, np.ones((n, 1), dtype=int))
        stored = np.load(features_path, allow_pickle=False)
        dataset = load_dataset(features_path, labels_path)
    assert stored.dtype == np.float32 and stored.tobytes() == rounded.tobytes()
    assert dataset.features.tobytes() == rounded.astype(np.float64).tobytes()


@bounded
@given(st.integers(1, 8), st.integers(1, 8), st.sampled_from(sorted(LAYOUTS)), st.data())
def test_model_file_round_trips(n_features, n_labels, layout, data):
    """A checkpoint loads back with the same float64 weights, bit for bit,
    through :func:`load_model` and through numpy, whatever the layout of
    the weights the model was built from."""
    size = n_features * n_labels
    weights = np.array(data.draw(st.lists(finite, min_size=size, max_size=size)))
    model = SoftmaxModel(weights=LAYOUTS[layout](weights.reshape(n_features, n_labels)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        save_model(model, path)
        loaded = load_model(path)
        stored = np.load(path, allow_pickle=False)
    assert loaded.weights.tobytes() == model.weights.tobytes() == weights.tobytes()
    assert stored.dtype == np.float64 and stored.tobytes() == weights.tobytes()


# magnitudes whose squares neither underflow nor overflow inside np.linalg.norm
embedding_entries = st.floats(-1e100, 1e100).filter(lambda x: x == 0 or abs(x) >= 1e-100)


def unit(v):
    return v / np.linalg.norm(v)


@bounded
@given(
    st.lists(st.text("abcd", min_size=1, max_size=3), min_size=1, max_size=5, unique=True),
    st.integers(1, 6),
    st.booleans(),
    st.data(),
)
def test_embedding_files_round_trip(words, dim, compound, data):
    """A ``count dim`` file of ``repr`` floats loads back in file order with
    each row ``v / ||v||`` bit for bit. ``load_embeddings`` takes a name's
    underscore token when the file has it, and otherwise the unit mean of its
    words' vectors, which is refused by name when it is zero. A zero vector
    is refused with an error that names its label."""

    def nonzero_vector():
        v = np.array(data.draw(st.lists(embedding_entries, min_size=dim, max_size=dim)))
        v[0] += not v.any()
        return v

    vectors = {word: nonzero_vector() for word in words}
    pair = [words[0], words[-1]]
    if compound:
        vectors["_".join(pair)] = nonzero_vector()
    zero_at = data.draw(st.integers(0, len(vectors)))

    def write(path, entries):
        lines = [f"{t} {' '.join(repr(float(x)) for x in v)}\n" for t, v in entries]
        path.write_text(f"{len(entries)} {dim}\n" + "".join(lines), encoding="utf-8")

    with tempfile.TemporaryDirectory() as tmp:
        path, zero_path = Path(tmp) / "emb.txt", Path(tmp) / "zero.txt"
        entries = list(vectors.items())
        write(path, entries)
        write(zero_path, entries[:zero_at] + [("zz", np.zeros(dim))] + entries[zero_at:])
        names, matrix = load_embedding_file(path)
        rows = load_embeddings(path, words)
        name = " ".join(pair)
        mean = np.mean([vectors[w] for w in pair], axis=0)
        if compound or mean.any():
            joined = load_embeddings(path, [name])
        else:
            with pytest.raises(ValueError, match=f"zero embedding for {re.escape(name)}$"):
                load_embeddings(path, [name])
        with pytest.raises(ValueError, match="zero embedding for zz$"):
            load_embedding_file(zero_path)
        with pytest.raises(ValueError, match="zero embedding for zz$"):
            load_embeddings(zero_path, ["zz"])
    assert names == list(vectors)
    assert matrix.tobytes() == np.array([unit(v) for v in vectors.values()]).tobytes()
    assert rows.tobytes() == matrix[: len(words)].tobytes()
    if compound:
        assert joined.tobytes() == unit(vectors["_".join(pair)]).tobytes()
    elif mean.any():
        assert joined.tobytes() == unit(mean).tobytes()


def test_grouping_shape_is_not_free():
    """10 features in 2 groups have 5 rows per group and no pad, so a
    12-entry permutation (a 6-row, pad-2 shape) is refused when built."""
    with pytest.raises(ValueError, match="expected 10"):
        FeatureGrouping(dim=10, group_count=2, permutation=np.arange(12))


def arrays(elements, max_side=12):
    return st.tuples(st.integers(1, max_side), st.integers(1, max_side)).flatmap(
        lambda shape: st.lists(
            elements, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
        ).map(lambda xs: np.array(xs, dtype=np.float64).reshape(shape))
    )


@bounded
@given(
    arrays(
        st.one_of(
            st.floats(-1e5, 700.0),
            st.floats(-760.0, -690.0),
            st.floats(-745.2, -707.0),
            st.just(-np.inf),
        )
    )
)
def test_exp_equals_numpy_exp(x):
    """The absorbed kernel's exp equals np.exp bit for bit from -700 up to
    700 and is exactly 0 below, across np.exp's slow range (-745, -707], its
    rounding to 0 and -inf."""
    assert_truncated_exp(x)


def test_exp_equals_numpy_exp_across_the_underflow():
    """A dense sweep over every exponent where np.exp leaves its vector path,
    turns subnormal and rounds to 0: no entry of the result is subnormal."""
    x = np.linspace(-760.0, -690.0, 700_000).reshape(-1, 7)
    got = assert_truncated_exp(x)
    assert not np.any((got > 0) & (got < np.finfo(np.float64).tiny))


def assert_truncated_exp(x):
    got = sinkhorn._exp(x)
    kept = x >= -sinkhorn._EXP_LIMIT
    assert np.array_equal(got[kept], np.exp(x[kept]))
    # positive zeros, bit for bit
    assert np.array_equal(got[~kept].view(np.uint64), np.zeros(np.sum(~kept), np.uint64))
    return got


def unclipped_logsumexp(a, axis):
    shift = np.max(a, axis=axis, keepdims=True)
    with np.errstate(under="ignore"):
        out = np.log(np.sum(np.exp(a - shift), axis=axis))
    return out + np.squeeze(shift, axis=axis)


FINITE_TERMS = st.one_of(st.floats(-40.0, 40.0), st.floats(-3000.0, -650.0))


@bounded
@given(
    arrays(FINITE_TERMS | st.just(-np.inf), max_side=24),
    st.sampled_from([0, 1]),
    st.data(),
)
def test_clipped_logsumexp_equals_the_unclipped_sum(a, axis, data):
    """Clipping the shifted terms at -700 leaves the logsumexp of every
    slice with a finite entry, the function's precondition, unchanged bit
    for bit: slices with -inf entries, and terms more than 700 below the
    maximum."""
    a = a.copy()
    for row in a if axis == 1 else a.T:  # views of a's slices
        row[data.draw(st.integers(0, row.size - 1))] = data.draw(FINITE_TERMS)
    assert np.array_equal(sinkhorn._logsumexp(a, axis), unclipped_logsumexp(a, axis))


@pytest.mark.parametrize("redo", ["none", "tiny weight", "every round"])
@pytest.mark.parametrize("top_range", [(1.0, 699.0), (701.0, 3000.0)])
@bounded
@given(
    instances(),
    st.one_of(st.none(), st.floats(0.0, 1000.0)),
    st.integers(1, 30),
    st.booleans(),
    st.data(),
)
def test_every_slice_maximum_the_solve_sees_is_finite(
    redo, top_range, instance, spread, iterations, zero_weight, data
):
    """Logsumexp serves finite slice maxima only, and the solve passes it no
    other: plain and log-domain first rounds, cold and warm,
    with zero weights, and with rounds redone in the log domain, either by
    a weight of 1e-250 that pushes the scalings out of range or by a range
    test that fails in every round."""
    unit, p, q = instance
    top = data.draw(st.floats(*top_range))
    for weights in (p, q):
        if zero_weight and weights.size > 1:
            weights[data.draw(st.integers(0, weights.size - 1))] = 0.0
    if redo == "tiny weight":
        weights = p if data.draw(st.booleans()) else q
        weights[data.draw(st.integers(0, weights.size - 1))] = 1e-250
    p, q = p / p.sum(), q / q.sum()
    marginals = sinkhorn._marginals(p, q, unit.shape)
    g = None if spread is None else data.draw(vectors(marginals.active_q.size)) * spread
    inner, maxima = sinkhorn._logsumexp, []

    def checked(a, axis):
        maxima.append(np.maximum.reduce(a, axis=axis))
        return inner(a, axis)

    in_range = (lambda scalings: False) if redo == "every round" else sinkhorn._in_range
    config = SinkhornConfig(lambda_beta=1.0, iterations=iterations)
    with mock.patch.object(sinkhorn, "_logsumexp", checked), mock.patch.object(
        sinkhorn, "_in_range", in_range
    ):
        sinkhorn._entropic_plan(unit * top, marginals, config, g)
    active = (unit * top)[np.ix_(marginals.rows, marginals.cols)]
    if active.max() > sinkhorn._EXP_LIMIT or (redo == "every round" and iterations > 1):
        assert maxima
    for shift in maxima:
        assert np.isfinite(shift).all()


@bounded
@given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=8), st.floats(1e-300, 1e300))
def test_every_feature_selection_maximum_is_finite(diagonal, lambda_m):
    """``feature_selection_objective``, logsumexp's other caller, passes it
    the diagonal shifted by its own maximum, so the one slice maximum is
    exactly 0 at any diagonal within +-1e300 and any lambda_m from 1e-300
    to 1e300, where the quotients of the other entries reach -inf."""
    inner, maxima = metric_solvers_module._logsumexp, []

    def checked(a, axis):
        maxima.append(np.maximum.reduce(a, axis=axis))
        return inner(a, axis)

    with mock.patch.object(metric_solvers_module, "_logsumexp", checked):
        assert np.isfinite(feature_selection_objective(np.diag(diagonal), lambda_m))
    assert maxima == [0.0]


@bounded
@given(instances(), st.floats(1.0, 3000.0))
def test_a_cold_absorbed_kernel_is_a_zero_potential_one(instance, top):
    """``_absorbed_kernel`` with no potential skips adding a zero vector to
    the kernel and returns what it returns from zeros, bit for bit, signed
    zeros of a zero cost included."""
    unit, p, q = instance
    marginals = sinkhorn._marginals(p, q, unit.shape)
    args = (-(unit * top), marginals.log_p, marginals.log_q)
    cold = sinkhorn._absorbed_kernel(*args, None)
    zeros = sinkhorn._absorbed_kernel(*args, np.zeros(q.size))
    for a, b in zip(cold, zeros):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def two_mat_vec_scaling(kernel, tol, max_iter):
    d = np.ones(kernel.shape[0])
    residual = np.inf
    for _ in range(max_iter):
        kd = kernel @ d
        if np.any(kd <= 0):
            raise SinkhornConvergenceError(
                "scaling iterate left the positive cone", residual=float(residual)
            )
        d = np.sqrt(d / kd)
        residual = float(np.max(np.abs(d * (kernel @ d) - 1.0)))
        if residual <= tol:
            return d
    raise SinkhornConvergenceError(
        f"symmetric scaling residual {residual:.3e} above tol {tol:.3e} "
        f"after {max_iter} iterations",
        residual=residual,
    )


def scaling_outcome(scale, kernel, tol, max_iter):
    try:
        return scale(kernel, tol, max_iter).tobytes()
    except SinkhornConvergenceError as exc:
        return str(exc), exc.residual


@bounded
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 24),
    st.floats(0.05, 60.0),
    st.sampled_from([1e-4, 1e-8, 1e-12, 1e-15]),
    st.integers(1, 60),
)
def test_one_mat_vec_scaling_equals_the_two_mat_vec_loop(seed, n, spread, tol, max_iter):
    """Reusing each residual's kernel @ d in the next update changes neither
    the scaling nor the residual of a SinkhornConvergenceError, on DS
    kernels m0 * exp(V / lambda_m) up to max|V| / lambda_m = 60."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n + 2, n))
    moment = points.T @ points
    v = 0.5 * (moment + moment.T)
    kernel = np.exp(v * (spread / np.max(np.abs(v)))) / n
    assert scaling_outcome(sinkhorn._symmetric_scaling, kernel, tol, max_iter) == (
        scaling_outcome(two_mat_vec_scaling, kernel, tol, max_iter)
    )
