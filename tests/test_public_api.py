"""The package's export list: a pinned set of names, no duplicates, no
stale names, and exactly the library modules' own exports; the private
W2^2 function the benchmark still calls, which is the identity-metric
distance; the exported types that hold arrays compare and hash without
raising and leave the caller's arrays alone; the exported errors survive
``pickle``; and
``scripts/runtime_check.py``, which runs every public entry point, loads
no SciPy module."""

import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wrot

# every module but cli, which exports only its entry point; imported by name
# because the package rebinds ``wrot.rot_loss`` to the function
LIBRARY_MODULES = [
    importlib.import_module(f"wrot.{name}")
    for name in (
        "classifier",
        "data_io",
        "frank_wolfe",
        "measures",
        "metric_solvers",
        "rot_loss",
        "sinkhorn",
    )
]


# Adding or removing a public name is a deliberate edit of this list.
PUBLIC_NAMES = [
    "AdversarialMetric",
    "DSConfig",
    "Dataset",
    "DiscreteMeasure",
    "EvalMetrics",
    "FWConfig",
    "FeatureGrouping",
    "KLConfig",
    "LabelSpace",
    "MetricSolverConfig",
    "PNormConfig",
    "RotResult",
    "SinkhornConfig",
    "SinkhornConvergenceError",
    "SoftmaxModel",
    "TrainConfig",
    "TrainResult",
    "TrainingDivergedError",
    "TransportPlan",
    "adversarial_value",
    "displacement_second_moment",
    "evaluate",
    "feature_selection_objective",
    "feature_weights",
    "load_dataset",
    "load_embedding_file",
    "load_embeddings",
    "load_model",
    "make_grouping",
    "make_measure",
    "rot_distance",
    "rot_loss",
    "rot_loss_gradient",
    "save_features",
    "save_labels",
    "save_model",
    "sgd_train",
]

# deleted with no caller outside the tests (exact_ot_small moved into them,
# as tests/lp_reference.py; entropic_ot's checks run _entropic_plan through
# tests/entropic_reference.py; smooth_target's spread targets are
# tests/targets.py), as a pass-through to adversarial_value, or
# folded into another type (LossValue into RotResult, RotLossConfig into
# FWConfig), each from its module
DELETED = [
    ("data_io", "load_grouping"),
    ("data_io", "save_grouping"),
    ("frank_wolfe", "gradient_wrt_plan"),
    ("measures", "independent_coupling"),
    ("metric_solvers", "ds_metric"),
    ("metric_solvers", "euclidean_metric"),
    ("metric_solvers", "kl_metric"),
    ("metric_solvers", "pnorm_metric"),
    ("rot_loss", "LossValue"),
    ("rot_loss", "RotLossConfig"),
    ("rot_loss", "smooth_target"),
    ("sinkhorn", "entropic_ot"),
    ("sinkhorn", "exact_ot_small"),
    ("sinkhorn", "symmetric_scaling"),
]


def test_all_is_the_pinned_list():
    assert sorted(wrot.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("module, name", DELETED)
def test_deleted_names_stay_deleted(module, name):
    assert not hasattr(wrot, name)
    assert not hasattr(importlib.import_module(f"wrot.{module}"), name)


def test_w22_distance_is_the_identity_metric_distance():
    """``frank_wolfe.w22_distance`` is no export of the package, but the
    ``distance`` benchmark still calls it, so its values must keep meaning
    the identity-metric ``rot_distance``."""
    frank_wolfe = importlib.import_module("wrot.frank_wolfe")
    assert not hasattr(wrot, "w22_distance")
    assert "w22_distance" not in frank_wolfe.__all__
    rng = np.random.default_rng(3)
    src = wrot.make_measure(rng.normal(size=(9, 3)))
    tgt = wrot.make_measure(rng.normal(size=(7, 3)) + 1.0, rng.uniform(0.1, 1.0, 7))
    for sink in (wrot.SinkhornConfig(), wrot.SinkhornConfig(lambda_beta=0.02)):
        want = wrot.rot_distance(src, tgt, wrot.FWConfig(None, sink)).value
        assert frank_wolfe.w22_distance(src, tgt, sink) == pytest.approx(want, rel=1e-12)


def test_all_has_no_duplicates():
    assert len(wrot.__all__) == len(set(wrot.__all__))


def test_every_export_resolves():
    missing = [name for name in wrot.__all__ if not hasattr(wrot, name)]
    assert missing == []


def test_all_is_the_union_of_library_exports():
    union = set().union(*(module.__all__ for module in LIBRARY_MODULES))
    assert set(wrot.__all__) == union


# each exported type that holds arrays: the arrays a caller passes, by field
# name, and the build from them
ARRAY_HOLDERS = {
    "DiscreteMeasure": (
        lambda: {"points": np.eye(2), "weights": np.full(2, 0.5)},
        lambda a: wrot.DiscreteMeasure(**a),
    ),
    "TransportPlan": (
        lambda: {"matrix": np.full((2, 2), 0.25)}, lambda a: wrot.TransportPlan(**a)
    ),
    "FeatureGrouping": (
        lambda: {"permutation": np.arange(12)}, lambda a: wrot.FeatureGrouping(10, 3, **a)
    ),
    "AdversarialMetric": (
        lambda: {"matrix": np.eye(2)}, lambda a: wrot.AdversarialMetric(value=1.0, family="kl", **a)
    ),
    "SoftmaxModel": (lambda: {"weights": np.zeros((3, 2))}, lambda a: wrot.SoftmaxModel(**a)),
    "LabelSpace": (lambda: {"embeddings": np.eye(3)}, lambda a: wrot.LabelSpace(**a)),
    "KLConfig": (lambda: {"m0": np.eye(2)}, lambda a: wrot.KLConfig(**a)),
    "DSConfig": (lambda: {"m0": np.full((2, 2), 0.5)}, lambda a: wrot.DSConfig(**a)),
    "Dataset": (
        lambda: {"features": np.zeros((2, 3)), "labels": np.eye(2, dtype=np.int8)},
        lambda a: wrot.Dataset(label_names=("a", "b"), **a),
    ),
}


def test_errors_survive_pickle():
    """The type, the message and every field survive a round trip, as
    they must to leave a ``multiprocessing`` worker."""
    errors = [
        (wrot.TrainingDivergedError("loss 2e6", 0, 1, 2e6), ("reason", "epoch", "sample", "loss")),
        (wrot.SinkhornConvergenceError("x", 1.0), ("residual",)),
    ]
    for error, fields in errors:
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error)
        assert str(copy) == str(error)
        for name in fields:
            assert getattr(copy, name) == getattr(error, name)


@pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
def test_array_holders_compare_and_hash_by_identity(name):
    """Value equality would take the truth value of an array comparison."""
    inputs, build = ARRAY_HOLDERS[name]
    first, second = build(inputs()), build(inputs())
    assert type(first).__name__ == name
    assert first == first and first != second
    assert hash(first) == hash(first)
    assert len({first, second}) == 2


def test_config_holding_arrays_compares_and_hashes():
    metric = wrot.KLConfig(m0=np.eye(2))
    first = wrot.FWConfig(metric)
    second = wrot.FWConfig(metric)
    assert first == second and hash(first) == hash(second)
    assert first != wrot.FWConfig(wrot.KLConfig(m0=np.eye(2)))


@pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
def test_array_holders_leave_the_callers_arrays_writeable(name):
    """A holder stores a frozen copy of an array the caller keeps: the
    caller's array stays writeable, and writing to it leaves the stored
    field unchanged."""
    inputs, build = ARRAY_HOLDERS[name]
    arrays = inputs()
    holder = build(arrays)
    for field, array in arrays.items():
        stored = getattr(holder, field)
        before = stored.copy()
        assert array.flags.writeable, field
        array += 1
        assert np.array_equal(stored, before), field


def test_make_measure_leaves_the_callers_points_writeable():
    points = np.eye(2)
    measure = wrot.make_measure(points)
    points += 1
    assert np.array_equal(measure.points, np.eye(2))


def test_runtime_check_loads_no_scipy():
    """Every public function, every adversary family, training, evaluation,
    a checkpoint round trip and the four subcommands run on numpy alone,
    with RuntimeWarnings as errors, as CI's numpy-only job runs them."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         str(root / "scripts" / "runtime_check.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "no scipy module loaded" in result.stdout
