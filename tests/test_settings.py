"""The pinned inventory of settings, and property tests for the rules every
setting of the package follows.

The inventory lists every field of an exported config class, every defaulted
parameter of an exported function and every flag of each ``wrot``
subcommand, so adding or removing a knob is a deliberate edit of a list.

A count (``iterations``, ``max_iter``, ``epochs``, ``k``, ``num_labels``,
and a grouping's ``dim`` and ``group_count``) is an ``int`` or numpy
integer, not a ``bool``, and at least 1; a ``seed``, of training or of a
grouping, is one at least 0. A real is a finite number, not a ``bool``, and
positive (``lambda_beta``, ``lambda_gamma`` of :func:`rot_loss`,
``lambda_m``, ``learning_rate``) or nonnegative
(``weight_decay``); ``gap_tol`` is a nonnegative real or ``None``. The
``metric`` of :class:`FWConfig`, and the ``config`` of
:func:`adversarial_value`, is a :class:`PNormConfig`, :class:`KLConfig`,
:class:`DSConfig` or ``None``, the identity. A field that holds a nested
config holds one of its kind: ``sinkhorn`` a :class:`SinkhornConfig`,
``grouping`` (of :class:`LabelSpace`, :func:`rot_distance` or
:func:`displacement_second_moment`) a :class:`FeatureGrouping` or ``None``,
and ``loss``, like the ``config`` of the loss functions, a :class:`FWConfig`,
one with ``gap_tol=None`` for :class:`TrainConfig`, which runs every step;
the ``config`` of :func:`w22_distance` is a :class:`SinkhornConfig`, that of
:func:`sgd_train` a :class:`TrainConfig`.
Each config, :class:`LabelSpace`, :func:`make_grouping`,
:func:`feature_weights`, :func:`adversarial_value`, the loss functions,
:func:`rot_distance`, :func:`w22_distance`, :func:`sgd_train`,
:func:`displacement_second_moment` and :func:`load_dataset` (whose
``num_labels`` is a count or ``None``), and :class:`FeatureGrouping`
(whose ``permutation`` holds integers, not floats, strings or bools that
cast to them), refuses anything else with a
``ValueError`` whose message starts with the field's name (``metric`` for
:func:`adversarial_value`), and still builds from every valid value. A
structured positional argument of another type (a measure or the config of
:func:`rot_distance`, the plan of :func:`displacement_second_moment`, the
label space of the loss functions and :func:`sgd_train`, the dataset of
:func:`sgd_train` and :func:`evaluate`, the model of :func:`evaluate` and
:func:`save_model`) is refused the same way, by the argument's name.
"""

import argparse
import dataclasses
import inspect
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wrot
from wrot import (
    Dataset,
    DSConfig,
    FeatureGrouping,
    FWConfig,
    KLConfig,
    LabelSpace,
    PNormConfig,
    SinkhornConfig,
    SoftmaxModel,
    TrainConfig,
    TransportPlan,
    adversarial_value,
    displacement_second_moment,
    evaluate,
    feature_selection_objective,
    feature_weights,
    load_dataset,
    make_grouping,
    make_measure,
    rot_distance,
    rot_loss,
    rot_loss_gradient,
    save_model,
    sgd_train,
    w22_distance,
)
from wrot.cli import _build_parser

# Adding or removing a setting is a deliberate edit of these lists.
CONFIG_FIELDS = [
    "DSConfig.lambda_m",
    "DSConfig.m0",
    "FWConfig.gap_tol",
    "FWConfig.max_iter",
    "FWConfig.metric",
    "FWConfig.sinkhorn",
    "KLConfig.lambda_m",
    "KLConfig.m0",
    "PNormConfig.k",
    "SinkhornConfig.iterations",
    "SinkhornConfig.lambda_beta",
    "TrainConfig.epochs",
    "TrainConfig.learning_rate",
    "TrainConfig.loss",
    "TrainConfig.seed",
    "TrainConfig.weight_decay",
]
FUNCTION_DEFAULTS = [
    "displacement_second_moment.grouping",
    "feature_selection_objective.lambda_m",
    "feature_weights.lambda_m",
    "load_dataset.label_names",
    "load_dataset.num_labels",
    "make_measure.weights",
    "rot_distance.grouping",
    "rot_loss.config",
    "rot_loss.lambda_gamma",
    "rot_loss_gradient.config",
    "sgd_train.config",
    "w22_distance.config",
]
CLI_FLAGS = {
    "contour": [
        "--embeddings", "--family", "--grid-n", "--k", "--labels", "--lambda-gamma",
        "--lambda-m", "--out",
    ],
    "distance": [
        "--family", "--fw-iters", "--gap-tol", "--json", "--k", "--lambda-beta", "--lambda-m",
        "--r", "--seed", "--src", "--tgt",
    ],
    "eval": ["--features", "--labels", "--metrics-json", "--model-in"],
    "train": [
        "--embeddings", "--epochs", "--family", "--features", "--k", "--labels",
        "--lambda-beta", "--lambda-m", "--lr", "--model-out", "--r", "--seed", "--weight-decay",
    ],
}
EXPORTED = [getattr(wrot, name) for name in sorted(wrot.__all__)]


def test_config_fields_are_the_pinned_list():
    configs = [
        c for c in EXPORTED if dataclasses.is_dataclass(c) and c.__name__.endswith("Config")
    ]
    found = [f"{c.__name__}.{f.name}" for c in configs for f in dataclasses.fields(c)]
    assert sorted(found) == CONFIG_FIELDS


def test_function_defaults_are_the_pinned_list():
    found = [
        f"{fn.__name__}.{p.name}"
        for fn in EXPORTED
        if inspect.isfunction(fn)
        for p in inspect.signature(fn).parameters.values()
        if p.default is not p.empty
    ]
    assert sorted(found) == FUNCTION_DEFAULTS


def test_cli_flags_are_the_pinned_list():
    sub = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    found = {
        name: sorted(o for a in p._actions for o in a.option_strings if o not in ("-h", "--help"))
        for name, p in sub.choices.items()
    }
    assert found == CLI_FLAGS


bounded = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def two_points(grouping):
    """A measure of two points in the grouping's dimension, or in 4."""
    return make_measure(np.eye(2, getattr(grouping, "dim", 4)))


MEASURE = two_points(None)
# two one-hot samples of two labels, and their label space
TWO_SAMPLES = Dataset(np.eye(2), np.eye(2, dtype=np.int8), ("a", "b"))
TWO_LABELS = LabelSpace(np.eye(2))


def two_label_loss(solve, keyword):
    """``solve`` on the uniform prediction and target over two labels, with
    its ``keyword`` argument as the one argument of the returned function."""
    return lambda x: solve([0.5, 0.5], [0.5, 0.5], LabelSpace(np.eye(2)), **{keyword: x})


# (rule, field, build): build passes one value to the field or argument
SETTINGS = {
    "SinkhornConfig.iterations": ("count", "iterations", lambda x: SinkhornConfig(iterations=x)),
    "FWConfig.max_iter": ("count", "max_iter", lambda x: FWConfig(PNormConfig(), max_iter=x)),
    "TrainConfig.epochs": ("count", "epochs", lambda x: TrainConfig(epochs=x)),
    "PNormConfig.k": ("count", "k", lambda x: PNormConfig(k=x)),
    "SinkhornConfig.lambda_beta": (
        "positive", "lambda_beta", lambda x: SinkhornConfig(lambda_beta=x)
    ),
    "rot_loss.lambda_gamma": (
        "positive", "lambda_gamma", two_label_loss(rot_loss, "lambda_gamma")
    ),
    "TrainConfig.learning_rate": (
        "positive", "learning_rate", lambda x: TrainConfig(learning_rate=x)
    ),
    "KLConfig.lambda_m": ("positive", "lambda_m", lambda x: KLConfig(lambda_m=x)),
    "DSConfig.lambda_m": ("positive", "lambda_m", lambda x: DSConfig(lambda_m=x)),
    # a zero moment keeps diag(V) / lambda_m at 0 for every valid lambda_m
    "feature_weights.lambda_m": (
        "positive", "lambda_m", lambda x: feature_weights(np.zeros((2, 2)), lambda_m=x)
    ),
    "feature_selection_objective.lambda_m": (
        "positive", "lambda_m", lambda x: feature_selection_objective(np.zeros((2, 2)), x)
    ),
    "FWConfig.gap_tol": (
        "optional nonnegative", "gap_tol", lambda x: FWConfig(PNormConfig(), gap_tol=x)
    ),
    "TrainConfig.weight_decay": (
        "nonnegative", "weight_decay", lambda x: TrainConfig(weight_decay=x)
    ),
    "TrainConfig.seed": ("seed", "seed", lambda x: TrainConfig(seed=x)),
    "make_grouping.seed": ("seed", "seed", lambda x: make_grouping(1, 1, x)),
    "FWConfig.metric": ("metric", "metric", lambda x: FWConfig(x)),
    "adversarial_value.config": (
        "metric", "metric", lambda x: adversarial_value(np.eye(2), x)
    ),
    "FWConfig.sinkhorn": ("sinkhorn", "sinkhorn", lambda x: FWConfig(PNormConfig(), x)),
    "rot_distance.grouping": (
        "grouping",
        "grouping",
        lambda x: rot_distance(two_points(x), two_points(x), FWConfig(None, max_iter=1), x),
    ),
    "displacement_second_moment.grouping": (
        "grouping",
        "grouping",
        lambda x: displacement_second_moment(
            TransportPlan(np.full((2, 2), 0.25)), two_points(x), two_points(x), x
        ),
    ),
    "TrainConfig.loss": ("train loss", "loss", lambda x: TrainConfig(loss=x)),
    "w22_distance.config": (
        "sinkhorn", "config", lambda x: w22_distance(MEASURE, MEASURE, x)
    ),
    "sgd_train.config": ("train", "config", lambda x: sgd_train(TWO_SAMPLES, TWO_LABELS, x)),
    "rot_loss.config": ("loss", "config", two_label_loss(rot_loss, "config")),
    "rot_loss_gradient.config": ("loss", "config", two_label_loss(rot_loss_gradient, "config")),
    # one label in the grouping's dimension
    "LabelSpace.grouping": (
        "grouping", "grouping", lambda x: LabelSpace(np.eye(1, getattr(x, "dim", 4)), x)
    ),
}
# refused only: a large valid count would allocate a permutation that long, or
# a label matrix that wide; the label count is checked before the files are read;
# valid permutations are the ones make_grouping draws
REFUSABLE = {
    **SETTINGS,
    "make_grouping.dim": ("count", "dim", lambda x: make_grouping(x, 1, 0)),
    "make_grouping.group_count": ("count", "group_count", lambda x: make_grouping(1, x, 0)),
    "load_dataset.num_labels": (
        "optional count", "num_labels", lambda x: load_dataset("x.feat", "y.labels", None, x)
    ),
    "FeatureGrouping.permutation": (
        "permutation", "permutation", lambda x: FeatureGrouping(len(x), len(x), x)
    ),
}

NEGATIVE = st.integers(max_value=-1) | st.floats(max_value=0.0, exclude_max=True)
NOT_NUMBERS = st.booleans() | st.sampled_from([np.bool_(True), None, "1", [1]])
NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf, np.float64(np.nan), np.float32(np.inf)])
ZERO = st.sampled_from([0, 0.0, np.int64(0), np.float64(0.0)])

FLOATS = st.floats() | st.floats(0, 1e6).map(np.float64)
# every object but a metric family's config and None
NOT_METRICS = (
    st.text() | st.integers() | st.floats() | st.booleans()
    | st.sampled_from([PNormConfig, SinkhornConfig(), FWConfig(None), np.eye(2), [1]])
)

GROUPING = make_grouping(10, 3, 1)
# every object but a config of the nested kind a rule names, which adds the
# configs of the other kinds
NOT_CONFIGS = (
    st.text() | st.integers() | st.floats() | st.booleans()
    | st.sampled_from([SinkhornConfig, FWConfig, np.eye(2), [1], PNormConfig()])
)

# a count or a seed refuses every float, integral ones included
NOT_COUNTS = NOT_NUMBERS | NON_FINITE | NEGATIVE | ZERO | FLOATS

REFUSED = {
    "count": NOT_COUNTS,
    "seed": NOT_NUMBERS | NON_FINITE | NEGATIVE | FLOATS,
    "metric": NOT_METRICS,
    "positive": NOT_NUMBERS | NON_FINITE | NEGATIVE | ZERO,
    "nonnegative": NOT_NUMBERS | NON_FINITE | NEGATIVE,
    # None, the default of the loss, runs every step
    "optional nonnegative": (NOT_NUMBERS | NON_FINITE | NEGATIVE).filter(lambda x: x is not None),
    # None, the default, reads the count from the file
    "optional count": NOT_COUNTS.filter(lambda x: x is not None),
    "sinkhorn": NOT_CONFIGS | st.sampled_from([None, FWConfig(None), GROUPING]),
    "grouping": NOT_CONFIGS | st.sampled_from([SinkhornConfig(), FWConfig(None)]),
    "loss": NOT_CONFIGS | st.sampled_from([None, SinkhornConfig(), GROUPING]),
    # training runs every step of its loss, so it refuses an early stop
    "train loss": NOT_CONFIGS
    | st.sampled_from([None, SinkhornConfig(), GROUPING, FWConfig(None), FWConfig(None, gap_tol=0)]),
    "train": NOT_CONFIGS
    | st.sampled_from([None, TrainConfig, SinkhornConfig(), FWConfig(None, max_iter=1, gap_tol=None)]),
    # a permutation of 1 to 4 indices whose cast to int lists each index once
    "permutation": (
        st.integers(1, 4).flatmap(lambda n: st.permutations(range(n))).flatmap(
            lambda p: st.sampled_from(
                [np.array(p, dtype=float), [i + 0.5 for i in p], [str(i) for i in p]]
            )
        )
        | st.sampled_from([[False], [True, False], np.array([False, True])])
    ),
}
POSITIVE_REALS = (
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    | st.integers(1, 10**12)
    | st.floats(1e-300, 1e300).map(np.float64)
    | st.integers(1, 2**31).map(np.int64)
)
ACCEPTED = {
    "count": st.integers(1, 10**12) | st.integers(1, 2**31).map(np.int64),
    "seed": st.integers(0, 10**12) | st.integers(0, 2**31).map(np.int64),
    "metric": st.sampled_from(
        [None, PNormConfig(), PNormConfig(k=3), KLConfig(), DSConfig(lambda_m=0.5)]
    ),
    "positive": POSITIVE_REALS,
    "nonnegative": POSITIVE_REALS | ZERO,
    "optional nonnegative": POSITIVE_REALS | ZERO | st.none(),
    "sinkhorn": st.sampled_from([SinkhornConfig(), SinkhornConfig(0.5, 3)]),
    "grouping": st.sampled_from([None, GROUPING, FeatureGrouping(4, 2, np.arange(4))]),
    "loss": st.sampled_from(
        [FWConfig(PNormConfig(), max_iter=1, gap_tol=None), FWConfig(None, max_iter=2)]
    ),
    "train loss": st.sampled_from(
        [FWConfig(PNormConfig(), max_iter=1, gap_tol=None), FWConfig(None, max_iter=2, gap_tol=None)]
    ),
    "train": st.sampled_from(
        [TrainConfig(epochs=1), TrainConfig(FWConfig(None, max_iter=2, gap_tol=None), epochs=2, seed=3)]
    ),
}


@pytest.mark.parametrize("setting", REFUSABLE)
@bounded
@given(data=st.data())
def test_invalid_values_are_refused_by_name(setting, data):
    rule, field, build = REFUSABLE[setting]
    value = data.draw(REFUSED[rule], label=field)
    with pytest.raises(ValueError, match=f"^{field} must be "):
        build(value)


@pytest.mark.parametrize("setting", SETTINGS)
@bounded
@given(data=st.data())
def test_valid_values_build(setting, data):
    rule, _, build = SETTINGS[setting]
    build(data.draw(ACCEPTED[rule]))


@pytest.mark.parametrize(
    "setting, value",
    [
        # rot_distance returned NaN with these two adversaries
        ("KLConfig.lambda_m", np.inf),
        ("DSConfig.lambda_m", np.inf),
        # a TypeError inside the round loop, or in the epoch loop
        ("SinkhornConfig.iterations", 2.5),
        ("TrainConfig.epochs", 3.0),
        # the rest built, and the solves ran on them
        ("feature_weights.lambda_m", np.inf),
        ("FWConfig.gap_tol", np.nan),
        ("SinkhornConfig.lambda_beta", np.inf),
        ("rot_loss.lambda_gamma", np.inf),
        ("TrainConfig.learning_rate", np.inf),
        ("TrainConfig.weight_decay", np.nan),
        ("PNormConfig.k", True),
        ("make_grouping.dim", True),
        # numpy's AxisError from the permutation draw
        ("make_grouping.group_count", 2.0),
        # TypeError "unknown metric solver config: str" from the solve
        ("FWConfig.metric", "pnorm"),
        ("adversarial_value.config", "pnorm"),
        # sgd_train's generator refused -1 and 1.5, and drew from True as 1
        ("TrainConfig.seed", -1),
        ("TrainConfig.seed", 1.5),
        ("TrainConfig.seed", True),
        # numpy's "expected non-negative integer", naming no field
        ("make_grouping.seed", -1),
        # numpy's TypeError from the label matrix, and a count of 1 shown as
        # "[0, True)"
        ("load_dataset.num_labels", 2.0),
        ("load_dataset.num_labels", True),
        # AttributeError inside the solve or the epoch loop
        ("FWConfig.sinkhorn", 0.2),
        ("rot_distance.grouping", 3),
        ("TrainConfig.loss", None),
        ("LabelSpace.grouping", 3),
        ("w22_distance.config", FWConfig(None)),
        ("sgd_train.config", FWConfig(None, max_iter=1, gap_tol=None)),
        # cast to the integer permutation [0 1 2], or [1 0]
        ("FeatureGrouping.permutation", [0.5, 1.2, 2.9]),
        ("FeatureGrouping.permutation", ["0", "1", "2"]),
        ("FeatureGrouping.permutation", np.array([True, False])),
    ],
)
def test_inputs_the_old_checks_let_through_are_refused(setting, value):
    """Each value passed its field's hand-written check."""
    _, field, build = REFUSABLE[setting]
    with pytest.raises(ValueError, match=f"^{field} must be "):
        build(value)


# (argument, call): a call with one structured positional argument of
# another type
POSITIONAL = {
    # AttributeError inside the solve or the epoch loop
    "rot_distance.config": ("config", lambda: rot_distance(MEASURE, MEASURE, SinkhornConfig())),
    "rot_distance.src": ("src", lambda: rot_distance(np.eye(2, 4), MEASURE, FWConfig(None))),
    "rot_distance.tgt": ("tgt", lambda: rot_distance(MEASURE, np.eye(2, 4), FWConfig(None))),
    "displacement_second_moment.plan": (
        "plan", lambda: displacement_second_moment(np.full((2, 2), 0.25), MEASURE, MEASURE)
    ),
    "displacement_second_moment.src": (
        "src",
        lambda: displacement_second_moment(
            TransportPlan(np.full((2, 2), 0.25)), np.eye(2, 4), MEASURE
        ),
    ),
    "w22_distance.tgt": ("tgt", lambda: w22_distance(MEASURE, np.eye(2, 4))),
    # a ValueError about the length of the weights, or about the label count
    "rot_loss.labels": ("labels", lambda: rot_loss([0.5, 0.5], [0.5, 0.5], np.eye(2))),
    "rot_loss_gradient.labels": (
        "labels", lambda: rot_loss_gradient([0.5, 0.5], [0.5, 0.5], np.eye(2))
    ),
    "sgd_train.labels": ("labels", lambda: sgd_train(TWO_SAMPLES, np.eye(2))),
    # AttributeError on the first field read
    "sgd_train.dataset": ("dataset", lambda: sgd_train(np.eye(2), LabelSpace(np.eye(2)))),
    "evaluate.model": ("model", lambda: evaluate(np.zeros((2, 2)), TWO_SAMPLES)),
    "evaluate.dataset": ("dataset", lambda: evaluate(SoftmaxModel(np.zeros((2, 2))), np.eye(2))),
    "save_model.model": ("model", lambda: save_model(np.zeros((2, 2)), os.devnull)),
}


@pytest.mark.parametrize("case", POSITIONAL)
def test_wrong_structured_arguments_are_refused_by_name(case):
    argument, call = POSITIONAL[case]
    with pytest.raises(ValueError, match=f"^{argument} must be a "):
        call()
